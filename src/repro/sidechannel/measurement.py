"""Attacker-side power measurement of a crossbar target.

:class:`PowerMeasurement` wraps any object exposing ``total_current(inputs)``
(a :class:`~repro.crossbar.tile.CrossbarTile` or
:class:`~repro.crossbar.accelerator.CrossbarAccelerator`) and models the
attacker's oscilloscope: relative measurement noise, an optional
auto-ranging acquisition ADC, and accounting of how many queries have been
spent — the quantity the paper trades off against attack efficacy.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_array, check_non_negative, check_positive_int


class QueryBudgetExceeded(RuntimeError):
    """Raised when a measurement would exceed the configured query budget."""


class SupportsTotalCurrent(Protocol):
    """Anything that can report a total current for input vectors."""

    def total_current(self, inputs: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


class PowerMeasurement:
    """The attacker's view of the crossbar power rail.

    Parameters
    ----------
    target:
        Object exposing ``total_current(inputs)``.
    noise_std:
        Standard deviation of additive Gaussian measurement noise, expressed
        relative to *each measured current's own* magnitude (e.g. ``0.01``
        = 1% noise; zero readings fall back to unit scale).  The scale is
        deliberately per element, never a batch aggregate, so splitting or
        merging a batch cannot change any individual reading's noise level.
        This is the attacker's instrument noise, independent of any hardware
        non-ideality configured on the target.
    quantization_bits:
        Resolution of the attacker's acquisition ADC, in bits; ``None``
        (default) models an ideal continuous instrument.  Every
        :meth:`measure` call **auto-ranges**: it snaps its readings to
        ``2**bits`` uniform levels spanning that batch's observed range
        (noise included), like an oscilloscope whose vertical scale is fit
        to the trace.  A batch with zero dynamic range (including any
        single-sample read) passes through unchanged.  This quantizes the
        *side channel*, independently of the accelerator's own output ADC,
        which digitises functional outputs only — the supply rail an
        attacker taps is analogue.
    query_budget:
        Optional hard cap on the number of queries; measurements that would
        exceed it raise :class:`QueryBudgetExceeded` before touching the
        target, and queries are charged only after a successful read.
    random_state:
        Seed for the measurement noise.
    """

    def __init__(
        self,
        target: SupportsTotalCurrent,
        *,
        noise_std: float = 0.0,
        quantization_bits: Optional[int] = None,
        query_budget: Optional[int] = None,
        random_state: RandomState = None,
    ):
        self.target = target
        self.noise_std = check_non_negative(noise_std, "noise_std")
        if quantization_bits is not None:
            check_positive_int(quantization_bits, "quantization_bits")
        self.quantization_bits = quantization_bits
        if query_budget is not None:
            check_positive_int(query_budget, "query_budget")
        self.query_budget = query_budget
        self._rng = as_rng(random_state)
        self._queries_used = 0

    # ----------------------------------------------------------- accounting

    @property
    def queries_used(self) -> int:
        """Total number of reads issued so far."""
        return self._queries_used

    @property
    def queries_remaining(self) -> Optional[int]:
        """Remaining budget, or ``None`` when unbounded."""
        if self.query_budget is None:
            return None
        return max(0, self.query_budget - self._queries_used)

    def reset_counter(self) -> None:
        """Reset the query counter (e.g. between experiment repetitions)."""
        self._queries_used = 0

    def _check_budget(self, n_queries: int) -> None:
        if (
            self.query_budget is not None
            and self._queries_used + n_queries > self.query_budget
        ):
            raise QueryBudgetExceeded(
                f"measurement of {n_queries} queries would exceed the budget of "
                f"{self.query_budget} (already used {self._queries_used})"
            )

    # ----------------------------------------------------------- measurement

    def measure(self, inputs: np.ndarray) -> np.ndarray:
        """Measure the total current for each input vector.

        Returns a ``(B,)`` array; a single 1-D input returns a scalar.  A
        NaN or infinite input has no defined reading (and would stretch the
        ADC's auto-range over every batch-mate), so it raises
        :class:`ValueError` before anything is charged.
        """
        inputs = check_array(inputs, "inputs")
        single = inputs.ndim == 1
        batch = np.atleast_2d(inputs)
        self._check_budget(len(batch))

        readings = np.atleast_1d(np.array(self.target.total_current(batch), dtype=float))
        if self.noise_std > 0:
            scale = np.abs(readings)
            scale = np.where(scale > 0, scale, 1.0)
            noise = self._rng.normal(0.0, 1.0, size=readings.shape)
            readings = readings + self.noise_std * scale * noise
        readings = self._quantize(readings)
        # Charge only after the target read succeeded: a failing traversal
        # must not consume budget.
        self._queries_used += len(batch)
        return float(readings[0]) if single else readings

    def _quantize(self, readings: np.ndarray) -> np.ndarray:
        """Snap readings to ``2**bits`` uniform levels over the batch's range."""
        if self.quantization_bits is None:
            return readings
        low, high = float(readings.min()), float(readings.max())
        if high <= low:
            return readings
        steps = 2**self.quantization_bits - 1
        span = high - low
        indices = np.clip(np.rint((readings - low) / span * steps), 0, steps)
        return low + indices * span / steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerMeasurement(noise_std={self.noise_std}, "
            f"queries_used={self.queries_used})"
        )
