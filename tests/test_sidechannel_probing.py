"""Tests for repro.sidechannel.probing — recovering the column 1-norms."""

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.crossbar import CrossbarAccelerator
from repro.crossbar.devices import IDEAL_DEVICE, NVMDeviceModel
from repro.crossbar.mapping import ConductanceMapping
from repro.nn.gradients import weight_column_norms
from repro.nn.network import SingleLayerNetwork
from repro.sidechannel.probing import ColumnNormProber, ProbeResult


def make_oracle(weights, *, device=IDEAL_DEVICE, noise_std=0.0, seed=0):
    """An oracle over a one-layer accelerator holding ``weights``, and its array."""
    network = SingleLayerNetwork(weights.shape[1], weights.shape[0], random_state=0)
    network.weights = weights
    accelerator = CrossbarAccelerator(
        network, mapping=ConductanceMapping(device=device), random_state=seed
    )
    (array,) = accelerator.physical_arrays
    return Oracle(accelerator, power_noise_std=noise_std, random_state=seed), array


def make_prober(weights, *, device=IDEAL_DEVICE, noise_std=0.0, measure_baseline=False, seed=0):
    oracle, array = make_oracle(weights, device=device, noise_std=noise_std, seed=seed)
    return ColumnNormProber(
        oracle, weights.shape[1], measure_baseline=measure_baseline
    ), array


class TestProbeAll:
    def test_recovers_exact_column_sums_ideal(self, rng):
        weights = rng.normal(size=(5, 8))
        prober, array = make_prober(weights)
        result = prober.probe_all()
        np.testing.assert_allclose(result.column_sums, array.column_conductance_sums, atol=1e-12)
        assert result.queries_used == 8

    def test_recovered_sums_proportional_to_1_norms(self, rng):
        """Section II-B: probing reveals the weight-column 1-norms."""
        weights = rng.normal(size=(6, 10))
        prober, _ = make_prober(weights)
        recovered = prober.probe_all().column_sums
        true_norms = weight_column_norms(weights)
        assert np.corrcoef(recovered, true_norms)[0, 1] > 1 - 1e-10

    def test_baseline_removes_gmin_offset(self, rng):
        device = NVMDeviceModel(name="offset", g_min=0.05, g_max=1.0)
        weights = rng.normal(size=(5, 7))
        prober, array = make_prober(weights, device=device, measure_baseline=True)
        result = prober.probe_all()
        # After offset correction the ordering must match the true 1-norms.
        true_norms = weight_column_norms(weights)
        assert np.corrcoef(result.column_sums, true_norms)[0, 1] > 0.999
        assert result.queries_used == 8  # 7 probes + 1 baseline

    def test_argmax_identifies_strongest_column(self, rng):
        weights = rng.normal(size=(5, 9))
        weights[:, 4] *= 10  # make column 4 dominate
        prober, _ = make_prober(weights)
        assert prober.probe_all().argmax() == 4

    def test_noisy_probing_still_ranks_well(self, rng):
        weights = rng.normal(size=(8, 20))
        weights[:, 3] *= 5
        prober, _ = make_prober(weights, noise_std=0.02, seed=1)
        result = prober.probe_all()
        assert result.argmax() == 3


class TestProbeSubsets:
    def test_probe_indices_subset(self, rng):
        weights = rng.normal(size=(4, 10))
        prober, array = make_prober(weights)
        result = prober.probe_indices([2, 5, 7])
        np.testing.assert_allclose(
            result.column_sums, array.column_conductance_sums[[2, 5, 7]], atol=1e-12
        )
        assert result.queries_used == 3

    def test_probe_indices_validation(self, rng):
        prober, _ = make_prober(rng.normal(size=(3, 5)))
        with pytest.raises(ValueError):
            prober.probe_indices([])
        with pytest.raises(ValueError):
            prober.probe_indices([7])
        with pytest.raises(ValueError):
            prober.probe_indices([-1])


class TestBatchedProbing:
    def test_probe_round_is_one_batched_measurement(self, rng):
        """All basis vectors plus the baseline go out as a single query."""
        weights = rng.normal(size=(4, 7))
        prober, _ = make_prober(weights, measure_baseline=True)
        calls = []
        original = prober.oracle.query

        def counting_query(inputs):
            calls.append(np.atleast_2d(inputs).shape)
            return original(inputs)

        prober.oracle.query = counting_query
        result = prober.probe_all()
        assert calls == [(8, 7)]  # 7 basis vectors + 1 baseline, one call
        assert result.queries_used == 8

    def test_per_column_reference_mode_issues_one_query_per_column(self, rng):
        weights = rng.normal(size=(4, 7))
        oracle, array = make_oracle(weights)
        prober = ColumnNormProber(oracle, 7, measure_baseline=True, batched=False)
        calls = []
        original = oracle.query

        def counting_query(inputs):
            calls.append(np.atleast_2d(inputs).shape)
            return original(inputs)

        oracle.query = counting_query
        result = prober.probe_all()
        assert len(calls) == 8  # baseline + one call per column
        assert result.queries_used == 8
        np.testing.assert_allclose(
            result.column_sums, array.column_conductance_sums, atol=1e-12
        )


class TestProbeResultValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProbeResult(indices=[1, 2], column_sums=[1.0], baseline=0.0, queries_used=2)

    def test_invalid_construction(self, rng):
        oracle, _ = make_oracle(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            ColumnNormProber(oracle, 0)
