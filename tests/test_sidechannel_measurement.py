"""Tests for repro.sidechannel.measurement."""

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray
from repro.sidechannel.measurement import PowerMeasurement, QueryBudgetExceeded


class _StaticTarget:
    """A fake crossbar whose total current is a fixed linear function."""

    def __init__(self, column_sums):
        self.column_sums = np.asarray(column_sums, dtype=float)

    def total_current(self, inputs):
        return np.atleast_2d(inputs) @ self.column_sums


class TestMeasurement:
    def test_noise_free_measurement_is_exact(self, rng):
        target = _StaticTarget([1.0, 2.0, 3.0])
        measurement = PowerMeasurement(target)
        u = np.array([1.0, 1.0, 0.5])
        assert measurement.measure(u) == pytest.approx(4.5)

    def test_batch_measurement_shape(self, rng):
        target = _StaticTarget([1.0, 2.0])
        measurement = PowerMeasurement(target)
        readings = measurement.measure(rng.uniform(size=(5, 2)))
        assert readings.shape == (5,)

    def test_noise_added(self, rng):
        target = _StaticTarget([1.0, 1.0])
        measurement = PowerMeasurement(target, noise_std=0.05, random_state=0)
        readings = np.array([measurement.measure(np.ones(2)) for _ in range(200)])
        assert readings.std() > 0
        assert abs(readings.mean() - 2.0) < 0.05

    def test_query_accounting(self, rng):
        target = _StaticTarget([1.0, 1.0])
        measurement = PowerMeasurement(target)
        measurement.measure(rng.uniform(size=(3, 2)))
        assert measurement.queries_used == 3
        measurement.reset_counter()
        assert measurement.queries_used == 0

    def test_query_budget_enforced(self, rng):
        target = _StaticTarget([1.0, 1.0])
        measurement = PowerMeasurement(target, query_budget=4)
        measurement.measure(rng.uniform(size=(3, 2)))
        assert measurement.queries_remaining == 1
        with pytest.raises(QueryBudgetExceeded):
            measurement.measure(rng.uniform(size=(2, 2)))

    def test_unbounded_budget(self):
        measurement = PowerMeasurement(_StaticTarget([1.0]))
        assert measurement.queries_remaining is None

    def test_invalid_parameters(self):
        target = _StaticTarget([1.0])
        with pytest.raises(ValueError):
            PowerMeasurement(target, noise_std=-0.1)
        with pytest.raises(ValueError):
            PowerMeasurement(target, query_budget=0)
        with pytest.raises(ValueError):
            PowerMeasurement(target, quantization_bits=0)


class TestAcquisitionQuantization:
    """The attacker's acquisition ADC (quantization_bits)."""

    def test_batch_snapped_to_level_count(self, rng):
        target = _StaticTarget([1.0, 2.0])
        measurement = PowerMeasurement(target, quantization_bits=2)
        readings = measurement.measure(rng.uniform(size=(64, 2)))
        assert len(np.unique(readings)) <= 4  # 2 bits -> at most 4 levels

    def test_quantization_preserves_batch_range(self, rng):
        target = _StaticTarget([1.0, 2.0])
        batch = rng.uniform(size=(32, 2))
        exact = PowerMeasurement(target).measure(batch)
        quantized = PowerMeasurement(target, quantization_bits=3).measure(batch)
        assert quantized.min() == pytest.approx(exact.min())
        assert quantized.max() == pytest.approx(exact.max())
        assert np.all(np.abs(quantized - exact) <= (exact.max() - exact.min()) / 7)

    def test_none_bits_is_exact(self, rng):
        target = _StaticTarget([1.0, 2.0])
        batch = rng.uniform(size=(16, 2))
        np.testing.assert_array_equal(
            PowerMeasurement(target, quantization_bits=None).measure(batch),
            PowerMeasurement(target).measure(batch),
        )

    def test_zero_range_batch_passes_through(self):
        target = _StaticTarget([1.0, 1.0])
        measurement = PowerMeasurement(target, quantization_bits=4)
        batch = np.ones((5, 2))  # identical rows -> zero dynamic range
        np.testing.assert_allclose(measurement.measure(batch), 2.0)
        # single reads auto-range to a point as well
        assert measurement.measure(np.ones(2)) == pytest.approx(2.0)

    def test_one_bit_collapses_to_extremes(self, rng):
        target = _StaticTarget([1.0, 2.0])
        batch = rng.uniform(size=(32, 2))
        exact = PowerMeasurement(target).measure(batch)
        readings = PowerMeasurement(target, quantization_bits=1).measure(batch)
        assert set(np.round(np.unique(readings), 12)) <= {
            round(exact.min(), 12),
            round(exact.max(), 12),
        }

    def test_fewer_bits_degrade_column_norm_leakage(self, rng):
        """The sweep premise: coarser acquisition -> weaker correlation."""
        column_sums = rng.uniform(0.5, 2.0, size=24)
        target = _StaticTarget(column_sums)
        basis = np.eye(24)
        correlations = []
        for bits in (1, 3, None):
            readings = PowerMeasurement(target, quantization_bits=bits).measure(basis)
            correlations.append(np.corrcoef(readings, column_sums)[0, 1])
        assert correlations[0] < correlations[1] <= correlations[2]
        assert correlations[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_row_rejected_before_charging(self, bad):
        """One non-finite row must not stretch the auto-range over (and so
        poison) its batch-mates' readings, nor cost any budget."""
        target = _StaticTarget([1.0, 2.0])
        measurement = PowerMeasurement(target, quantization_bits=4)
        batch = np.array([[0.1, 0.2], [bad, 0.5], [0.3, 0.9]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            measurement.measure(batch)
        assert measurement.queries_used == 0

    def test_works_against_real_crossbar(self, rng):
        weights = rng.normal(size=(4, 6))
        array = CrossbarArray(weights, random_state=0)
        measurement = PowerMeasurement(array, random_state=0)
        u = rng.uniform(0, 1, size=6)
        assert measurement.measure(u) == pytest.approx(array.total_current(u))
