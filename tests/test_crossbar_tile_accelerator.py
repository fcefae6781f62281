"""Tests for repro.crossbar.tile and repro.crossbar.accelerator."""

import numpy as np
import pytest

from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.devices import IDEAL_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.tile import CrossbarTile
from repro.nn.gradients import weight_column_norms
from repro.nn.layers import Dense
from repro.nn.network import Sequential


class TestCrossbarTile:
    def test_ideal_tile_matches_software_layer(self, rng):
        layer = Dense(6, 4, activation="softmax", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        inputs = rng.uniform(0, 1, size=(5, 6))
        np.testing.assert_allclose(tile.forward(inputs), layer.forward(inputs), atol=1e-10)

    def test_single_vector_input(self, rng):
        layer = Dense(6, 4, activation="linear", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        u = rng.uniform(0, 1, size=6)
        assert tile.forward(u).shape == (4,)
        assert np.isscalar(tile.total_current(u))

    def test_bias_mapped_to_extra_column(self, rng):
        layer = Dense(5, 3, activation="linear", use_bias=True, random_state=0)
        layer.set_weights(rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        tile = CrossbarTile(layer, random_state=0)
        assert tile.physical_arrays[0].n_columns == 6
        inputs = rng.uniform(0, 1, size=(4, 5))
        np.testing.assert_allclose(tile.forward(inputs), layer.forward(inputs), atol=1e-10)

    def test_column_sums_exclude_bias_column(self, rng):
        layer = Dense(5, 3, activation="linear", use_bias=True, random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        assert len(tile.column_conductance_sums) == 5

    def test_total_current_proportional_to_column_1_norms(self, rng):
        layer = Dense(6, 4, activation="linear", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        # probing with basis vectors recovers the per-column conductance sums
        probes = np.eye(6)
        currents = tile.total_current(probes)
        norms = weight_column_norms(layer.weights)
        correlation = np.corrcoef(currents, norms)[0, 1]
        assert correlation > 0.999999

    def test_dac_quantization_degrades_fidelity(self, rng):
        layer = Dense(8, 4, activation="linear", random_state=0)
        ideal = CrossbarTile(layer, random_state=0)
        coarse = CrossbarTile(layer, dac=DAC(n_bits=2), random_state=0)
        inputs = rng.uniform(0, 1, size=(10, 8))
        ideal_error = np.abs(ideal.forward(inputs) - layer.forward(inputs)).max()
        coarse_error = np.abs(coarse.forward(inputs) - layer.forward(inputs)).max()
        assert ideal_error < 1e-10
        assert coarse_error > ideal_error

    def test_adc_applied_to_output(self, rng):
        layer = Dense(6, 3, activation="linear", random_state=0)
        tile = CrossbarTile(layer, adc=ADC(n_bits=2, current_range=(-1, 1)), random_state=0)
        out = tile.forward(rng.uniform(0, 1, size=(4, 6)))
        assert np.isfinite(out).all()

    def test_wrong_input_dimension(self, rng):
        tile = CrossbarTile(Dense(6, 3, random_state=0), random_state=0)
        with pytest.raises(ValueError):
            tile.forward(rng.uniform(size=(2, 7)))


class TestCrossbarAccelerator:
    def test_matches_software_network(self, trained_softmax, mnist_small):
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        inputs = mnist_small.test_inputs[:20]
        np.testing.assert_allclose(
            accelerator.forward(inputs), trained_softmax.predict(inputs), atol=1e-8
        )
        assert accelerator.fidelity(inputs) < 1e-10

    def test_predict_labels_agree(self, trained_softmax, mnist_small):
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        inputs = mnist_small.test_inputs[:20]
        np.testing.assert_array_equal(
            accelerator.predict_labels(inputs), trained_softmax.predict_labels(inputs)
        )

    def test_power_trace_shapes(self, accelerator, mnist_small):
        report = accelerator.power_trace(mnist_small.test_inputs[:7])
        assert report.total_current.shape == (7,)
        assert report.per_tile_current.shape == (7, 1)
        assert np.all(report.total_current > 0)

    def test_total_current_single_input(self, accelerator, mnist_small):
        value = accelerator.total_current(mnist_small.test_inputs[0])
        assert np.isscalar(value) and value > 0

    def test_multi_layer_accelerator(self, rng):
        network = Sequential(
            [Dense(10, 6, activation="relu", random_state=0), Dense(6, 3, random_state=1)]
        )
        accelerator = CrossbarAccelerator(network, random_state=0)
        assert accelerator.n_tiles == 2
        inputs = rng.uniform(0, 1, size=(4, 10))
        np.testing.assert_allclose(
            accelerator.forward(inputs), network.predict(inputs), atol=1e-8
        )
        report = accelerator.power_trace(inputs)
        assert report.per_tile_current.shape == (4, 2)
        np.testing.assert_allclose(
            report.total_current, report.per_tile_current.sum(axis=1)
        )

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            CrossbarAccelerator(Sequential())

    def test_nonideal_accelerator_diverges_from_software(self, trained_softmax, mnist_small):
        noisy = CrossbarAccelerator(
            trained_softmax,
            mapping=ConductanceMapping(device=IDEAL_DEVICE.with_noise(read_noise=0.05)),
            nonidealities=NonidealityConfig(wire_resistance=0.01),
            random_state=0,
        )
        assert noisy.fidelity(mnist_small.test_inputs[:10]) > 1e-6

    def test_balanced_mapping_hides_column_norms(self, trained_linear):
        """Ablation: with the balanced mapping the power channel leaks nothing."""
        balanced = CrossbarAccelerator(
            trained_linear,
            mapping=ConductanceMapping(scheme="balanced"),
            random_state=0,
        )
        n_features = trained_linear.layers[0].n_inputs
        probes = np.eye(n_features)
        currents = balanced.total_current(probes)
        norms = weight_column_norms(trained_linear.weights)
        # A constant current vector leaks nothing (and has no correlation).
        flat = currents.std() / currents.mean() < 1e-6
        assert flat or abs(np.corrcoef(currents, norms)[0, 1]) < 0.2
