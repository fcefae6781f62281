"""Tests for repro.nn.losses, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.activations import Softmax
from repro.nn.losses import CategoricalCrossEntropy, MeanSquaredError, get_loss


def numerical_gradient(loss, predictions, targets, eps=1e-6):
    grad = np.zeros_like(predictions)
    for index in np.ndindex(predictions.shape):
        plus, minus = predictions.copy(), predictions.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (loss.value(plus, targets) - loss.value(minus, targets)) / (2 * eps)
    return grad


class TestMeanSquaredError:
    def test_zero_for_perfect_predictions(self, rng):
        y = rng.normal(size=(4, 3))
        assert MeanSquaredError().value(y, y) == pytest.approx(0.0)

    def test_known_value(self):
        loss = MeanSquaredError()
        value = loss.value(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert value == pytest.approx((1.0 + 4.0) / 2)

    def test_gradient_matches_numerical(self, rng):
        loss = MeanSquaredError()
        predictions = rng.normal(size=(3, 4))
        targets = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            loss.gradient(predictions, targets),
            numerical_gradient(loss, predictions, targets),
            atol=1e-5,
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MeanSquaredError().value(np.zeros((2, 3)), np.zeros((2, 4)))


class TestCategoricalCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        targets = np.array([[0.0, 1.0, 0.0]])
        predictions = np.array([[1e-9, 1.0 - 2e-9, 1e-9]])
        assert CategoricalCrossEntropy().value(predictions, targets) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_uniform_prediction_value(self):
        targets = np.array([[1.0, 0.0, 0.0, 0.0]])
        predictions = np.full((1, 4), 0.25)
        assert CategoricalCrossEntropy().value(predictions, targets) == pytest.approx(
            np.log(4)
        )

    def test_gradient_matches_numerical(self, rng):
        loss = CategoricalCrossEntropy()
        logits = rng.normal(size=(3, 5))
        predictions = Softmax().forward(logits)
        labels = rng.integers(0, 5, size=3)
        targets = np.eye(5)[labels]
        np.testing.assert_allclose(
            loss.gradient(predictions, targets),
            numerical_gradient(loss, predictions, targets),
            rtol=1e-3,
            atol=1e-5,
        )

    def test_fused_softmax_gradient_matches_chain_rule(self, rng):
        """p - t must equal the CE gradient propagated through the softmax Jacobian."""
        logits = rng.normal(size=(4, 6))
        softmax = Softmax()
        probabilities = softmax.forward(logits)
        labels = rng.integers(0, 6, size=4)
        targets = np.eye(6)[labels]
        loss = CategoricalCrossEntropy()
        chained = softmax.backward(loss.gradient(probabilities, targets), probabilities)
        fused = CategoricalCrossEntropy.fused_softmax_gradient(probabilities, targets)
        np.testing.assert_allclose(chained, fused, atol=1e-8)

    def test_clipping_handles_zero_probabilities(self):
        targets = np.array([[1.0, 0.0]])
        predictions = np.array([[0.0, 1.0]])
        value = CategoricalCrossEntropy().value(predictions, targets)
        assert np.isfinite(value) and value > 10

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            CategoricalCrossEntropy().gradient(np.zeros((2, 3)), np.zeros((3, 3)))


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_loss("mse"), MeanSquaredError)
        assert isinstance(get_loss("categorical_crossentropy"), CategoricalCrossEntropy)
        assert isinstance(get_loss("ce"), CategoricalCrossEntropy)

    def test_passthrough_instance(self):
        loss = MeanSquaredError()
        assert get_loss(loss) is loss

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_loss("hinge-of-doom")
