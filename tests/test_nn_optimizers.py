"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential
from repro.nn.optimizers import BETA1, BETA2, EPSILON, Adam


def make_problem(rng, n_samples=50, n_inputs=6, n_outputs=3):
    """A small linear regression problem with a known solution."""
    true_weights = rng.normal(size=(n_outputs, n_inputs))
    inputs = rng.normal(size=(n_samples, n_inputs))
    targets = inputs @ true_weights.T
    return inputs, targets, true_weights


def run_optimizer(optimizer, inputs, targets, steps=300, seed=0):
    net = Sequential([Dense(inputs.shape[1], targets.shape[1], random_state=seed)])
    loss = MeanSquaredError()
    for _ in range(steps):
        outputs = net.forward(inputs, training=True)
        net.backward(loss.gradient(outputs, targets))
        optimizer.step(net)
        net.zero_gradients()
    return loss.value(net.forward(inputs), targets)


class TestConvergence:
    @pytest.mark.parametrize("optimizer", [Adam(learning_rate=0.05)], ids=["adam"])
    def test_reduces_loss_on_linear_regression(self, optimizer, rng):
        inputs, targets, _ = make_problem(rng)
        final_loss = run_optimizer(optimizer, inputs, targets)
        assert final_loss < 1e-2


class TestValidationAndState:
    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)

    def test_step_without_gradients_raises(self):
        net = Sequential([Dense(4, 2, random_state=0)])
        with pytest.raises(RuntimeError):
            Adam().step(net)

    def test_first_step_is_normalised_gradient(self, rng):
        """Bias correction makes step one ``lr * g / (|g| + eps)``."""
        net = Sequential([Dense(4, 2, random_state=0)])
        layer = net.layers[0]
        before = layer.weights.copy()
        layer.grad_weights = rng.normal(size=before.shape)
        gradient = layer.grad_weights.copy()
        Adam(learning_rate=0.1).step(net)
        expected = before - 0.1 * gradient / (np.abs(gradient) + EPSILON)
        np.testing.assert_allclose(layer.weights, expected, rtol=1e-12)

    def test_matches_reference_adam(self, rng):
        """Five steps against a transcription of Kingma & Ba's Algorithm 1."""
        net = Sequential([Dense(3, 2, random_state=0)])
        layer = net.layers[0]
        reference = layer.weights.copy()
        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        optimizer = Adam(learning_rate=0.01)
        for t in range(1, 6):
            gradient = rng.normal(size=reference.shape)
            layer.grad_weights = gradient.copy()
            optimizer.step(net)
            m = BETA1 * m + (1 - BETA1) * gradient
            v = BETA2 * v + (1 - BETA2) * gradient**2
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            reference = reference - 0.01 * m_hat / (np.sqrt(v_hat) + EPSILON)
        np.testing.assert_allclose(layer.weights, reference, rtol=1e-12)

    def test_bias_updated_when_present(self, rng):
        net = Sequential([Dense(4, 2, use_bias=True, random_state=0)])
        inputs, targets = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
        loss = MeanSquaredError()
        before = net.layers[0].bias.copy()
        outputs = net.forward(inputs, training=True)
        net.backward(loss.gradient(outputs, targets))
        Adam(learning_rate=0.1).step(net)
        assert not np.allclose(net.layers[0].bias, before)

