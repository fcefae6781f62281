"""Tests for repro.nn.network."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import CategoricalCrossEntropy, MeanSquaredError
from repro.nn.network import Sequential, SingleLayerNetwork


class TestSequential:
    def test_add_checks_dimension_compatibility(self):
        net = Sequential([Dense(4, 3, random_state=0)])
        with pytest.raises(ValueError):
            net.add(Dense(5, 2, random_state=0))

    def test_forward_composition(self, rng):
        first = Dense(4, 3, activation="relu", random_state=0)
        second = Dense(3, 2, activation="linear", random_state=1)
        net = Sequential([first, second])
        inputs = rng.normal(size=(5, 4))
        expected = second.forward(first.forward(inputs))
        np.testing.assert_allclose(net.forward(inputs), expected)

    def test_predict_labels(self, rng):
        net = Sequential([Dense(4, 3, random_state=0)])
        labels = net.predict_labels(rng.normal(size=(6, 4)))
        assert labels.shape == (6,)
        assert labels.dtype.kind == "i"

    def test_empty_network_raises(self):
        with pytest.raises(RuntimeError):
            Sequential().forward(np.zeros((1, 3)))

    def test_multilayer_backward_gradient_check(self, rng):
        """End-to-end gradient check through a two-layer network."""
        net = Sequential(
            [Dense(5, 4, activation="softmax", random_state=0), Dense(4, 3, random_state=1)]
        )
        inputs = rng.normal(size=(3, 5))
        targets = rng.normal(size=(3, 3))
        loss = MeanSquaredError()
        outputs = net.forward(inputs, training=True)
        net.backward(loss.gradient(outputs, targets))
        analytic = net.layers[0].grad_weights.copy()

        eps = 1e-6
        numerical = np.zeros_like(analytic)
        weights = net.layers[0].weights
        for index in np.ndindex(weights.shape):
            original = weights[index]
            weights[index] = original + eps
            plus = loss.value(net.forward(inputs), targets)
            weights[index] = original - eps
            minus = loss.value(net.forward(inputs), targets)
            weights[index] = original
            numerical[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-5)


class TestSingleLayerNetwork:
    def test_invalid_output_rejected(self):
        with pytest.raises(ValueError):
            SingleLayerNetwork(4, 3, output="relu")

    def test_linear_default_loss(self):
        net = SingleLayerNetwork(4, 3, output="linear", random_state=0)
        assert isinstance(net.default_loss(), MeanSquaredError)

    def test_softmax_default_loss(self):
        net = SingleLayerNetwork(4, 3, output="softmax", random_state=0)
        assert isinstance(net.default_loss(), CategoricalCrossEntropy)

    def test_weights_property_roundtrip(self, rng):
        net = SingleLayerNetwork(4, 3, output="linear", random_state=0)
        new_weights = rng.normal(size=(3, 4))
        net.weights = new_weights
        np.testing.assert_allclose(net.weights, new_weights)

    def test_clone_architecture_matches_shape_but_not_values(self):
        net = SingleLayerNetwork(6, 3, output="softmax", random_state=0)
        clone = net.clone_architecture(random_state=1)
        assert clone.weights.shape == net.weights.shape
        assert clone.output_type == "softmax"
        assert not np.allclose(clone.weights, net.weights)

    def test_output_matches_paper_equation(self, rng):
        """y = f(W u) with no bias, per Eq. 4."""
        net = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        u = rng.normal(size=5)
        np.testing.assert_allclose(net.predict(u)[0], net.weights @ u)
