"""The attacker's power measurement: an Oracle read through the prober's ADC.

The instrument noise, query budget and accounting live on
:class:`~repro.attacks.oracle.Oracle`; the auto-ranging acquisition ADC lives
on :class:`~repro.sidechannel.probing.ColumnNormProber`.  The fake target is
a one-output linear network whose analytic power is ``inputs @ column_sums``.
"""

import numpy as np
import pytest

from repro.attacks.oracle import Oracle, QueryBudgetExceeded
from repro.crossbar import CrossbarAccelerator
from repro.nn.network import SingleLayerNetwork
from repro.sidechannel.probing import ColumnNormProber


def _static_target(column_sums):
    """A network whose oracle power is the fixed linear ``inputs @ column_sums``."""
    column_sums = np.asarray(column_sums, dtype=float)
    network = SingleLayerNetwork(len(column_sums), 1, random_state=0)
    network.weights = column_sums[np.newaxis, :]
    return network


def _power(oracle, inputs):
    return oracle.query(inputs).power


def _probe(column_sums, bits=None, **kwargs):
    """Column sums read back through the prober's acquisition ADC."""
    oracle = Oracle(_static_target(column_sums))
    prober = ColumnNormProber(oracle, len(column_sums), quantization_bits=bits, **kwargs)
    return prober.probe_all().column_sums


class TestMeasurement:
    def test_noise_free_measurement_is_exact(self, rng):
        oracle = Oracle(_static_target([1.0, 2.0, 3.0]))
        u = np.array([1.0, 1.0, 0.5])
        assert _power(oracle, u)[0] == pytest.approx(4.5)

    def test_batch_measurement_shape(self, rng):
        oracle = Oracle(_static_target([1.0, 2.0]))
        readings = _power(oracle, rng.uniform(size=(5, 2)))
        assert readings.shape == (5,)

    def test_noise_added(self, rng):
        oracle = Oracle(_static_target([1.0, 1.0]), power_noise_std=0.05, random_state=0)
        readings = np.array([_power(oracle, np.ones(2))[0] for _ in range(200)])
        assert readings.std() > 0
        assert abs(readings.mean() - 2.0) < 0.05

    def test_query_accounting(self, rng):
        oracle = Oracle(_static_target([1.0, 1.0]))
        oracle.query(rng.uniform(size=(3, 2)))
        assert oracle.queries_used == 3
        oracle.reset_counter()
        assert oracle.queries_used == 0

    def test_query_budget_enforced(self, rng):
        oracle = Oracle(_static_target([1.0, 1.0]), query_budget=4)
        oracle.query(rng.uniform(size=(3, 2)))
        assert oracle.queries_remaining == 1
        with pytest.raises(QueryBudgetExceeded):
            oracle.query(rng.uniform(size=(2, 2)))

    def test_invalid_parameters(self):
        target = _static_target([1.0])
        with pytest.raises(ValueError):
            Oracle(target, power_noise_std=-0.1)
        with pytest.raises(ValueError):
            ColumnNormProber(Oracle(target), 1, quantization_bits=0)
        with pytest.raises(ValueError, match="expose_power"):
            ColumnNormProber(Oracle(target, expose_power=False), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_row_rejected_before_charging(self, bad):
        """One non-finite row has no defined reading and costs no budget."""
        oracle = Oracle(_static_target([1.0, 2.0]))
        batch = np.array([[0.1, 0.2], [bad, 0.5], [0.3, 0.9]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            oracle.query(batch)
        assert oracle.queries_used == 0

    def test_works_against_real_crossbar(self, rng):
        accelerator = CrossbarAccelerator(
            _static_target(rng.uniform(size=6)), random_state=0
        )
        (array,) = accelerator.physical_arrays
        u = rng.uniform(0, 1, size=6)
        _, (total,) = array.traverse(u[np.newaxis])
        assert _power(Oracle(accelerator), u)[0] == pytest.approx(total)


class TestAcquisitionQuantization:
    """The attacker's acquisition ADC (``ColumnNormProber.quantization_bits``)."""

    def test_batch_snapped_to_level_count(self, rng):
        readings = _probe(rng.uniform(size=64), bits=2)
        assert len(np.unique(readings)) <= 4  # 2 bits -> at most 4 levels

    def test_quantization_preserves_batch_range(self, rng):
        column_sums = rng.uniform(size=32)
        exact = _probe(column_sums)
        quantized = _probe(column_sums, bits=3)
        assert quantized.min() == pytest.approx(exact.min())
        assert quantized.max() == pytest.approx(exact.max())
        assert np.all(np.abs(quantized - exact) <= (exact.max() - exact.min()) / 7)

    def test_none_bits_is_exact(self, rng):
        column_sums = rng.uniform(size=16)
        np.testing.assert_array_equal(_probe(column_sums, bits=None), column_sums)

    def test_zero_range_batch_passes_through(self):
        # identical readings -> zero dynamic range
        np.testing.assert_allclose(_probe(np.full(5, 2.0), bits=4), 2.0)
        # single reads (the per-column reference mode) auto-range to a point
        column_sums = np.array([1.0, 1.7, 3.0])
        np.testing.assert_array_equal(
            _probe(column_sums, bits=1, batched=False), column_sums
        )

    def test_one_bit_collapses_to_extremes(self, rng):
        column_sums = rng.uniform(size=32)
        readings = _probe(column_sums, bits=1)
        assert set(np.round(np.unique(readings), 12)) <= {
            round(column_sums.min(), 12),
            round(column_sums.max(), 12),
        }

    def test_fewer_bits_degrade_column_norm_leakage(self, rng):
        """The sweep premise: coarser acquisition -> weaker correlation."""
        column_sums = rng.uniform(0.5, 2.0, size=24)
        correlations = [
            np.corrcoef(_probe(column_sums, bits=bits), column_sums)[0, 1]
            for bits in (1, 3, None)
        ]
        assert correlations[0] < correlations[1] <= correlations[2]
        assert correlations[2] == pytest.approx(1.0)
