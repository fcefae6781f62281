"""Tests for repro.crossbar.array — Eq. 3-5 correctness and non-idealities."""

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.devices import IDEAL_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig


class TestIdealBehaviour:
    def test_matvec_equals_weight_product(self, rng):
        """Eq. 3-4: the ideal crossbar computes s = W u exactly (up to scale)."""
        weights = rng.normal(size=(4, 7))
        array = CrossbarArray(weights, random_state=0)
        u = rng.uniform(0, 1, size=7)
        scale = array.mapping.conductance_per_unit_weight(weights)
        np.testing.assert_allclose(array.matvec(u) / scale, weights @ u, atol=1e-12)

    def test_matvec_batched(self, rng):
        weights = rng.normal(size=(3, 5))
        array = CrossbarArray(weights, random_state=0)
        batch = rng.uniform(0, 1, size=(6, 5))
        scale = array.mapping.conductance_per_unit_weight(weights)
        np.testing.assert_allclose(array.matvec(batch) / scale, batch @ weights.T, atol=1e-12)

    def test_total_current_equals_eq5(self, rng):
        """Eq. 5: i_total = sum_j v_j * G_j."""
        weights = rng.normal(size=(5, 6))
        array = CrossbarArray(weights, random_state=0)
        u = rng.uniform(0, 1, size=6)
        expected = float(u @ array.column_conductance_sums)
        assert array.total_current(u) == pytest.approx(expected)

    def test_total_current_batched_shape(self, rng):
        weights = rng.normal(size=(5, 6))
        array = CrossbarArray(weights, random_state=0)
        batch = rng.uniform(0, 1, size=(4, 6))
        assert array.total_current(batch).shape == (4,)

    def test_effective_weights_match_programmed(self, rng):
        weights = rng.normal(size=(4, 4))
        array = CrossbarArray(weights, random_state=0)
        np.testing.assert_allclose(array.effective_weights, weights, atol=1e-12)

    def test_wrong_input_size_raises(self, rng):
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        with pytest.raises(ValueError):
            array.matvec(np.zeros(5))
        with pytest.raises(ValueError):
            array.total_current(np.zeros((2, 5)))

    def test_shape_properties(self, rng):
        array = CrossbarArray(rng.normal(size=(3, 4)), random_state=0)
        assert array.shape == (3, 4)
        assert array.n_rows == 3
        assert array.n_columns == 4


class TestNonidealities:
    def test_read_noise_makes_outputs_stochastic(self, rng):
        device = IDEAL_DEVICE.with_noise(read_noise=0.05)
        weights = rng.normal(size=(4, 6))
        array = CrossbarArray(
            weights, mapping=ConductanceMapping(device=device), random_state=0
        )
        u = rng.uniform(0, 1, size=6)
        first, second = array.matvec(u), array.matvec(u)
        assert not np.allclose(first, second)

    def test_stuck_devices_change_effective_weights(self, rng):
        weights = rng.normal(size=(10, 10))
        config = NonidealityConfig(stuck_at_off_fraction=0.3, stuck_at_on_fraction=0.1)
        array = CrossbarArray(weights, nonidealities=config, random_state=0)
        assert not np.allclose(array.effective_weights, weights)

    def test_stuck_at_on_raises_total_current(self, rng):
        weights = rng.normal(size=(8, 8))
        ideal = CrossbarArray(weights, random_state=0)
        stuck_on = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(stuck_at_on_fraction=0.5),
            random_state=0,
        )
        u = np.ones(8)
        assert stuck_on.total_current(u) > ideal.total_current(u)

    def test_ir_drop_attenuates_current(self, rng):
        weights = np.abs(rng.normal(size=(6, 6)))
        ideal = CrossbarArray(weights, random_state=0)
        lossy = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(wire_resistance=0.5),
            random_state=0,
        )
        u = np.ones(6)
        assert lossy.total_current(u) < ideal.total_current(u)
        assert np.all(np.abs(lossy.matvec(u)) <= np.abs(ideal.matvec(u)) + 1e-12)

    def test_measurement_noise_on_total_current(self, rng):
        weights = rng.normal(size=(4, 4))
        array = CrossbarArray(
            weights,
            nonidealities=NonidealityConfig(current_measurement_noise=0.05),
            random_state=0,
        )
        u = np.ones(4)
        readings = np.array([array.total_current(u) for _ in range(50)])
        assert readings.std() > 0

    def test_temperature_drift_scales_conductances(self, rng):
        weights = np.abs(rng.normal(size=(4, 4)))
        # Leave headroom below g_max so the +10% drift is not clipped.
        mapping = ConductanceMapping(weight_scale=2 * float(np.abs(weights).max()))
        nominal = CrossbarArray(weights, mapping=mapping, random_state=0)
        drifted = CrossbarArray(
            weights,
            mapping=mapping,
            nonidealities=NonidealityConfig(temperature_drift=0.1),
            random_state=0,
        )
        ratio = drifted.column_conductance_sums / nominal.column_conductance_sums
        np.testing.assert_allclose(ratio, 1.1, rtol=1e-6)

    def test_nonideality_validation(self):
        with pytest.raises(ValueError):
            NonidealityConfig(stuck_at_off_fraction=0.7, stuck_at_on_fraction=0.7)
        with pytest.raises(ValueError):
            NonidealityConfig(wire_resistance=-1.0)
        with pytest.raises(ValueError):
            NonidealityConfig(temperature_drift=-2.0)

    def test_is_ideal_flag(self):
        assert NonidealityConfig().is_ideal
        assert not NonidealityConfig(wire_resistance=1.0).is_ideal


NOISY = IDEAL_DEVICE.with_noise(read_noise=0.05)


class TestSingleTraversal:
    """matvec / total_current / matvec_with_current are views of one traversal."""

    @pytest.mark.parametrize(
        "device, config",
        [
            (IDEAL_DEVICE, NonidealityConfig()),
            (NOISY, NonidealityConfig()),
            (NOISY, NonidealityConfig(wire_resistance=0.5)),
            (NOISY, NonidealityConfig(wire_resistance_ohm=1e-3)),
            (NOISY, NonidealityConfig(current_measurement_noise=0.05)),
        ],
        ids=["ideal", "read-noise", "ir-drop", "wire-droop", "rail-noise"],
    )
    def test_seeded_views_agree_row_by_row(self, device, config, rng):
        array = CrossbarArray(
            rng.normal(size=(5, 9)),
            mapping=ConductanceMapping(device=device),
            nonidealities=config,
            random_state=0,
        )
        batch = rng.uniform(0, 1, size=(4, 9))
        seeds = np.arange(10, 14, dtype=np.uint64)
        outputs, totals = array.matvec_with_current(batch, sample_seeds=seeds)
        np.testing.assert_array_equal(array.matvec(batch, sample_seeds=seeds), outputs)
        np.testing.assert_array_equal(
            array.total_current(batch, sample_seeds=seeds), totals
        )
        for i in range(len(batch)):
            row_out, row_total = array.matvec_with_current(
                batch[i], sample_seeds=seeds[i : i + 1]
            )
            np.testing.assert_array_equal(row_out, outputs[i])
            assert row_total == totals[i]
