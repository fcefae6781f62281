"""Tests for repro.nn.gradients — the sensitivity analysis of Eq. 7/8."""

import numpy as np
import pytest

from repro.nn.gradients import (
    input_gradients,
    mean_sensitivity,
    sensitivity_map,
    weight_column_norms,
)
from repro.nn.losses import MeanSquaredError
from repro.nn.network import SingleLayerNetwork


def numerical_input_gradient(network, loss, single_input, single_target, eps=1e-6):
    grad = np.zeros_like(single_input)
    for i in range(single_input.size):
        plus, minus = single_input.copy(), single_input.copy()
        plus[i] += eps
        minus[i] -= eps
        value_plus = loss.value(network.predict(plus[np.newaxis, :]), single_target[np.newaxis, :])
        value_minus = loss.value(network.predict(minus[np.newaxis, :]), single_target[np.newaxis, :])
        grad[i] = (value_plus - value_minus) / (2 * eps)
    return grad


class TestInputGradients:
    @pytest.mark.parametrize("output", ["linear", "softmax"])
    def test_matches_numerical_gradient(self, output, rng):
        network = SingleLayerNetwork(6, 3, output=output, random_state=0)
        network.weights = rng.normal(scale=0.5, size=(3, 6))
        loss = network.default_loss()
        inputs = rng.uniform(0, 1, size=(4, 6))
        labels = rng.integers(0, 3, size=4)
        targets = np.eye(3)[labels]
        analytic = input_gradients(network, inputs, targets)
        for b in range(len(inputs)):
            numerical = numerical_input_gradient(network, loss, inputs[b], targets[b])
            np.testing.assert_allclose(analytic[b], numerical, atol=1e-4)

    def test_linear_mse_closed_form(self, rng):
        """For y = Wu and per-sample MSE, dL/du = (2/M) W^T (Wu - t) (Eq. 7)."""
        network = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        weights = network.weights
        u = rng.uniform(0, 1, size=(1, 5))
        t = np.eye(3)[[1]]
        expected = (2.0 / 3) * (u @ weights.T - t) @ weights
        np.testing.assert_allclose(input_gradients(network, u, t), expected, atol=1e-10)

    def test_sample_count_mismatch(self, rng):
        network = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        with pytest.raises(ValueError):
            input_gradients(network, rng.normal(size=(2, 5)), np.eye(3))

    def test_explicit_loss_override(self, rng):
        network = SingleLayerNetwork(5, 3, output="softmax", random_state=0)
        inputs = rng.uniform(0, 1, size=(2, 5))
        targets = np.eye(3)[[0, 1]]
        grad_ce = input_gradients(network, inputs, targets)
        grad_mse = input_gradients(network, inputs, targets, loss=MeanSquaredError())
        assert not np.allclose(grad_ce, grad_mse)

    def test_gradients_cleared_after_call(self, rng):
        network = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        input_gradients(network, rng.normal(size=(2, 5)), np.eye(3)[[0, 1]])
        assert network.layers[0].grad_weights is None


class TestSensitivityBound:
    def test_paper_inequality_eq8_elementwise_activation(self, rng):
        """|dL/du_j| <= sum_i |dL/dy_i f'(s_i)| |w_ij| (Eq. 8).

        The paper states the bound for elementwise activations with
        non-negative slope; a ReLU output with MSE loss satisfies those
        assumptions exactly.
        """
        from repro.nn.layers import Dense
        from repro.nn.network import Sequential

        network = Sequential([Dense(8, 4, activation="relu", random_state=0)])
        network.layers[0].set_weights(rng.normal(scale=0.5, size=(4, 8)))
        inputs = rng.uniform(0, 1, size=(6, 8))
        labels = rng.integers(0, 4, size=6)
        targets = np.eye(4)[labels]

        gradients = np.abs(
            input_gradients(network, inputs, targets, loss=MeanSquaredError())
        )
        pre = network.layers[0].pre_activation(inputs)
        outputs = network.layers[0].activation.forward(pre)
        # per-sample MSE: dL/dy_i = 2 (y_i - t_i) / M
        dl_dy = 2.0 * (outputs - targets) / targets.shape[1]
        f_prime = network.layers[0].activation.backward(np.ones_like(outputs), outputs)
        bound = np.abs(dl_dy * f_prime) @ np.abs(network.layers[0].weights)
        assert np.all(gradients <= bound + 1e-8)

    def test_triangle_inequality_bound_holds_for_softmax(self, rng):
        """The generic bound |dL/du_j| <= sum_i |dL/ds_i| |w_ij| always holds."""
        network = SingleLayerNetwork(8, 4, output="softmax", random_state=0)
        network.weights = rng.normal(scale=0.5, size=(4, 8))
        inputs = rng.uniform(0, 1, size=(6, 8))
        labels = rng.integers(0, 4, size=6)
        targets = np.eye(4)[labels]

        gradients = np.abs(input_gradients(network, inputs, targets))
        pre = network.layers[0].pre_activation(inputs)
        probabilities = network.layers[0].activation.forward(pre)
        # Fused softmax + CE: dL/ds = p - t (per sample).
        dl_ds = probabilities - targets
        bound = np.abs(dl_ds) @ np.abs(network.weights)
        assert np.all(gradients <= bound + 1e-8)


class TestSensitivityMaps:
    def test_sensitivity_map_is_absolute_gradient(self, rng):
        network = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        inputs = rng.uniform(0, 1, size=(3, 5))
        targets = np.eye(3)[[0, 1, 2]]
        np.testing.assert_allclose(
            sensitivity_map(network, inputs, targets),
            np.abs(input_gradients(network, inputs, targets)),
        )

    def test_mean_sensitivity_shape_and_value(self, rng):
        network = SingleLayerNetwork(5, 3, output="linear", random_state=0)
        inputs = rng.uniform(0, 1, size=(10, 5))
        targets = np.eye(3)[rng.integers(0, 3, size=10)]
        mean_map = mean_sensitivity(network, inputs, targets)
        assert mean_map.shape == (5,)
        assert np.all(mean_map >= 0)


class TestWeightColumnNorms:
    def test_l1_definition(self):
        weights = np.array([[1.0, -2.0], [3.0, 0.5]])
        np.testing.assert_allclose(weight_column_norms(weights), [4.0, 2.5])

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            weight_column_norms(np.ones(4))

    def test_matches_crossbar_column_sums_for_ideal_mapping(self, rng):
        """The quantity probed through power equals the column 1-norms (Eq. 5-6)."""
        from repro.crossbar.array import CrossbarArray

        weights = rng.normal(size=(6, 9))
        array = CrossbarArray(weights, random_state=0)
        scale = array.mapping.conductance_per_unit_weight(weights)
        np.testing.assert_allclose(
            array.column_conductance_sums / scale,
            weight_column_norms(weights),
            atol=1e-10,
        )
