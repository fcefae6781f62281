"""Tests for repro.nn.activations, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.activations import (
    Identity,
    ReLU,
    Softmax,
    get_activation,
)

ALL_ACTIVATIONS = [Identity(), ReLU(), Softmax()]


def numerical_jacobian_vector_product(activation, x, upstream, eps=1e-6):
    """Finite-difference J^T v for a single row input."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus, minus = x.copy(), x.copy()
        plus[i] += eps
        minus[i] -= eps
        f_plus = activation.forward(plus[np.newaxis, :])[0]
        f_minus = activation.forward(minus[np.newaxis, :])[0]
        grad[i] = np.sum(upstream * (f_plus - f_minus)) / (2 * eps)
    return grad


class TestForwardValues:
    def test_identity_passthrough(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Identity().forward(x), x)

    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 7))
        out = Softmax().forward(x)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4))
        assert np.all(out > 0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        np.testing.assert_allclose(
            Softmax().forward(x), Softmax().forward(x + 100.0), atol=1e-12
        )

    def test_softmax_stable_for_large_logits(self):
        out = Softmax().forward(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)


class TestBackwardGradients:
    @pytest.mark.parametrize("activation", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_backward_matches_numerical_jacobian(self, activation, rng):
        x = rng.normal(size=6)
        upstream = rng.normal(size=6)
        output = activation.forward(x[np.newaxis, :])
        analytic = activation.backward(upstream[np.newaxis, :], output)[0]
        numerical = numerical_jacobian_vector_product(activation, x, upstream)
        np.testing.assert_allclose(analytic, numerical, atol=1e-4)

    def test_relu_gradient_zero_below_zero(self):
        act = ReLU()
        out = act.forward(np.array([[-1.0, 2.0]]))
        grad = act.backward(np.array([[1.0, 1.0]]), out)
        np.testing.assert_allclose(grad, [[0.0, 1.0]])


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_activation("relu"), ReLU)
        assert isinstance(get_activation("linear"), Identity)
        assert isinstance(get_activation("identity"), Identity)
        assert isinstance(get_activation("SOFTMAX"), Softmax)

    def test_lookup_passthrough_instance(self):
        act = ReLU()
        assert get_activation(act) is act

    def test_lookup_by_class(self):
        assert isinstance(get_activation(Softmax), Softmax)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_activation("swish-9000")
