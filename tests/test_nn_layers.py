"""Tests for repro.nn.layers: forward correctness and gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError


class TestConstruction:
    def test_weight_shape_matches_paper_orientation(self):
        layer = Dense(5, 3, random_state=0)
        assert layer.weights.shape == (3, 5)  # (outputs, inputs) = W in y = W u

    def test_bias_optional(self):
        assert Dense(4, 2, random_state=0).bias is None
        assert Dense(4, 2, use_bias=True, random_state=0).bias.shape == (2,)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, 0)

    def test_deterministic_initialization(self):
        a = Dense(6, 4, random_state=11).weights
        b = Dense(6, 4, random_state=11).weights
        np.testing.assert_array_equal(a, b)

    def test_set_weights_validates_shape(self):
        layer = Dense(4, 2, random_state=0)
        with pytest.raises(ValueError):
            layer.set_weights(np.zeros((3, 4)))

    def test_set_bias_requires_use_bias(self):
        layer = Dense(4, 2, random_state=0)
        with pytest.raises(ValueError):
            layer.set_weights(np.zeros((2, 4)), bias=np.zeros(2))


class TestForward:
    def test_linear_forward_equals_matmul(self, rng):
        layer = Dense(6, 3, activation="linear", random_state=0)
        inputs = rng.normal(size=(5, 6))
        np.testing.assert_allclose(layer.forward(inputs), inputs @ layer.weights.T)

    def test_bias_added(self, rng):
        layer = Dense(4, 2, activation="linear", use_bias=True, random_state=0)
        layer.set_weights(np.zeros((2, 4)), bias=np.array([1.0, -2.0]))
        out = layer.forward(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (3, 1)))

    def test_single_sample_promoted_to_batch(self, rng):
        layer = Dense(4, 2, random_state=0)
        out = layer.forward(rng.normal(size=4))
        assert out.shape == (1, 2)

    def test_wrong_feature_count_raises(self, rng):
        layer = Dense(4, 2, random_state=0)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, 5)))

    def test_softmax_activation_applied(self, rng):
        layer = Dense(4, 3, activation="softmax", random_state=0)
        out = layer.forward(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])


class TestBackward:
    def _numerical_weight_gradient(self, layer, inputs, targets, loss, eps=1e-6):
        grad = np.zeros_like(layer.weights)
        for index in np.ndindex(layer.weights.shape):
            original = layer.weights[index]
            layer.weights[index] = original + eps
            plus = loss.value(layer.forward(inputs), targets)
            layer.weights[index] = original - eps
            minus = loss.value(layer.forward(inputs), targets)
            layer.weights[index] = original
            grad[index] = (plus - minus) / (2 * eps)
        return grad

    @pytest.mark.parametrize("activation", ["linear", "relu", "softmax"])
    def test_weight_gradient_matches_numerical(self, activation, rng):
        layer = Dense(5, 3, activation=activation, random_state=1)
        inputs = rng.normal(size=(4, 5))
        targets = rng.normal(size=(4, 3))
        loss = MeanSquaredError()
        outputs = layer.forward(inputs, training=True)
        layer.backward(loss.gradient(outputs, targets))
        numerical = self._numerical_weight_gradient(layer, inputs, targets, loss)
        np.testing.assert_allclose(layer.grad_weights, numerical, atol=1e-5)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Dense(5, 3, activation="softmax", random_state=1)
        inputs = rng.normal(size=(2, 5))
        targets = rng.normal(size=(2, 3))
        loss = MeanSquaredError()
        outputs = layer.forward(inputs, training=True)
        analytic = layer.backward(loss.gradient(outputs, targets))

        numerical = np.zeros_like(inputs)
        eps = 1e-6
        for index in np.ndindex(inputs.shape):
            plus, minus = inputs.copy(), inputs.copy()
            plus[index] += eps
            minus[index] -= eps
            numerical[index] = (
                loss.value(layer.forward(plus), targets)
                - loss.value(layer.forward(minus), targets)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-5)

    def test_bias_gradient_matches_numerical(self, rng):
        layer = Dense(4, 2, activation="linear", use_bias=True, random_state=1)
        inputs = rng.normal(size=(3, 4))
        targets = rng.normal(size=(3, 2))
        loss = MeanSquaredError()
        outputs = layer.forward(inputs, training=True)
        layer.backward(loss.gradient(outputs, targets))

        numerical = np.zeros_like(layer.bias)
        eps = 1e-6
        for i in range(layer.bias.size):
            original = layer.bias[i]
            layer.bias[i] = original + eps
            plus = loss.value(layer.forward(inputs), targets)
            layer.bias[i] = original - eps
            minus = loss.value(layer.forward(inputs), targets)
            layer.bias[i] = original
            numerical[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(layer.grad_bias, numerical, atol=1e-5)

    def test_backward_without_forward_raises(self):
        layer = Dense(4, 2, random_state=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_zero_gradients(self, rng):
        layer = Dense(4, 2, random_state=0)
        layer.forward(rng.normal(size=(2, 4)), training=True)
        layer.backward(rng.normal(size=(2, 2)))
        layer.zero_gradients()
        assert layer.grad_weights is None and layer.grad_bias is None
