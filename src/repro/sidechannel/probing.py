"""Basis-vector probing of the crossbar power channel.

Section II-B of the paper: "setting ``v_u1 = Vdd`` and grounding all other
inputs leads to ``G_1 = i_total / Vdd``".  The prober drives the normalised
``Vdd = 1``, so each reading is a column sum.  Repeating for every input
recovers all column conductance sums, which under the min-power mapping are
affine in the column 1-norms of the weight matrix.  The prober also measures
the all-zero input to remove the affine offset contributed by ``g_min``
devices.

The prober reads the rail through an :class:`~repro.attacks.oracle.Oracle`
(``response.power``): the oracle holds the attacker's instrument noise and
query budget, and the prober adds the acquisition ADC.  It is fully batched:
all basis vectors of one :meth:`ColumnNormProber.probe_indices` call —
including the optional all-zero baseline probe — are submitted as a single
query, so the target hardware realises its conductance state once per probe
round.  ``batched=False`` selects a per-column reference mode (one query per
probe vector plus a separate baseline query), modelling an attacker whose
instrument can only issue scalar queries; it exists for equivalence testing
and for quantifying what batching buys.  Both modes charge the same number
of queries against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.attacks.oracle import Oracle
from repro.utils.validation import check_positive_int


@dataclass
class ProbeResult:
    """Result of probing a set of input columns.

    Attributes
    ----------
    indices:
        The probed column indices.
    column_sums:
        Estimated conductance sums ``G_j`` for those columns (offset-corrected
        when a baseline probe was taken).
    baseline:
        The measured current for the all-zero input (0 for an ideal crossbar).
    queries_used:
        Number of power queries spent producing this result.
    """

    indices: np.ndarray
    column_sums: np.ndarray
    baseline: float
    queries_used: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=int)
        self.column_sums = np.asarray(self.column_sums, dtype=float)
        if self.indices.shape != self.column_sums.shape:
            raise ValueError("indices and column_sums must have the same shape")

    def argmax(self) -> int:
        """Index (into the original input space) of the largest probed sum."""
        return int(self.indices[int(np.argmax(self.column_sums))])


class ColumnNormProber:
    """Recovers column conductance sums through basis-vector power queries.

    Parameters
    ----------
    oracle:
        An :class:`~repro.attacks.oracle.Oracle` over the target crossbar,
        built with ``expose_power=True``; its ``power_noise_std`` is the
        instrument noise and its ``query_budget`` caps the probes.
    n_inputs:
        Input dimensionality N of the target.
    quantization_bits:
        Resolution of the attacker's acquisition ADC, in bits; ``None``
        (default) models an ideal continuous instrument.  Every query call
        **auto-ranges**: it snaps its readings to ``2**bits`` uniform levels
        spanning that call's observed range (noise included), like an
        oscilloscope whose vertical scale is fit to the trace.  A call with
        zero dynamic range (including any single-probe read of the
        ``batched=False`` mode) passes through unchanged.  This quantizes
        the *side channel*, independently of the accelerator's own output
        ADC, which digitises functional outputs only — the supply rail an
        attacker taps is analogue.
    measure_baseline:
        Whether to spend one extra query on the all-zero input so the
        ``g_min`` offset can be subtracted.  For the ideal device the baseline
        is zero and this is unnecessary.
    batched:
        ``True`` (default) submits every probe vector of a round — plus the
        baseline — as one batched query; ``False`` uses a per-column
        reference loop (one scalar query per probe vector).  Both cost the
        same query budget.
    """

    def __init__(
        self,
        oracle: Oracle,
        n_inputs: int,
        *,
        quantization_bits: Optional[int] = None,
        measure_baseline: bool = False,
        batched: bool = True,
    ):
        if not getattr(oracle, "expose_power", False):
            raise ValueError(
                "ColumnNormProber requires an oracle with expose_power=True"
            )
        self.oracle = oracle
        self.n_inputs = check_positive_int(n_inputs, "n_inputs")
        if quantization_bits is not None:
            check_positive_int(quantization_bits, "quantization_bits")
        self.quantization_bits = quantization_bits
        self.measure_baseline = bool(measure_baseline)
        self.batched = bool(batched)

    # ------------------------------------------------------------------ api

    def _measure(self, probes: np.ndarray) -> np.ndarray:
        """One oracle query: the ``(B,)`` power readings through the ADC."""
        return self._quantize(self.oracle.query(probes).power)

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

    def _baseline(self) -> float:
        if not self.measure_baseline:
            return 0.0
        return float(self._measure(np.zeros(self.n_inputs))[0])

    def _basis_vectors(self, indices: np.ndarray) -> np.ndarray:
        probes = np.zeros((len(indices), self.n_inputs), dtype=float)
        probes[np.arange(len(indices)), indices] = 1.0
        return probes

    def _measure_batched(self, indices: np.ndarray) -> tuple[np.ndarray, float]:
        """All probes (and the baseline) as one batched power query."""
        probes = self._basis_vectors(indices)
        if self.measure_baseline:
            probes = np.concatenate(
                [np.zeros((1, self.n_inputs), dtype=float), probes], axis=0
            )
        currents = self._measure(probes)
        if self.measure_baseline:
            return currents[1:], float(currents[0])
        return currents, 0.0

    def _measure_looped(self, indices: np.ndarray) -> tuple[np.ndarray, float]:
        """Reference path: one query per probed column, separate baseline query."""
        baseline = self._baseline()
        probes = self._basis_vectors(indices)
        currents = np.array([float(self._measure(probe)[0]) for probe in probes])
        return currents, baseline

    def probe_indices(self, indices: Sequence[int]) -> ProbeResult:
        """Probe a subset of input columns; one query per column."""
        indices = np.asarray(list(indices), dtype=int)
        if indices.size == 0:
            raise ValueError("indices must not be empty")
        if indices.min() < 0 or indices.max() >= self.n_inputs:
            raise ValueError(
                f"indices must lie in [0, {self.n_inputs}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        queries_before = self.oracle.queries_used
        if self.batched:
            currents, baseline = self._measure_batched(indices)
        else:
            currents, baseline = self._measure_looped(indices)
        return ProbeResult(
            indices=indices,
            column_sums=currents - baseline,
            baseline=baseline,
            queries_used=self.oracle.queries_used - queries_before,
        )

    def probe_all(self) -> ProbeResult:
        """Probe every input column (N queries, plus one optional baseline)."""
        return self.probe_indices(np.arange(self.n_inputs))
