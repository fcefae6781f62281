"""Inference-time defence: randomised dummy power draw.

A defender who cannot change the conductance mapping can still blunt the side
channel by drawing additional, input-dependent-but-random current during each
inference — e.g. activating a dummy crossbar column with a random conductance,
or randomising the order/duty-cycle of the read pulses.  This module models
that class of countermeasure as a wrapper around an accelerator's fused
``forward_with_power``: the functional outputs are untouched, only the
power observable is distorted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crossbar.power import PowerReport
from repro.utils.rng import RandomState, as_rng, sample_stream
from repro.utils.validation import check_non_negative

#: Stream-path domain tag for defence noise (see :func:`sample_stream`).
_DEFENSE_DOMAIN = 4
_JITTER_CHANNEL = 0
_DUMMY_CHANNEL = 1


class PowerNoiseDefense:
    """Wraps a crossbar target and randomises its observable power draw.

    Parameters
    ----------
    target:
        A :class:`~repro.crossbar.accelerator.CrossbarAccelerator`.
    dummy_current_scale:
        Mean of the random dummy current added per inference, expressed as a
        fraction of the target's typical total current (estimated lazily from
        the first measurements).  ``0.5`` adds on average 50% extra draw.
    jitter:
        Multiplicative jitter applied to the *real* current (models random
        read duty-cycling); ``0.1`` = ±10% uniform.
    random_state:
        Seed for the defence's randomness.
    """

    def __init__(
        self,
        target,
        *,
        dummy_current_scale: float = 0.5,
        jitter: float = 0.1,
        random_state: RandomState = None,
    ):
        self.target = target
        self.dummy_current_scale = check_non_negative(
            dummy_current_scale, "dummy_current_scale"
        )
        self.jitter = check_non_negative(jitter, "jitter")
        self._rng = as_rng(random_state)
        self._reference_current: Optional[float] = None

    # ------------------------------------------------------- passthrough API

    def forward(self, inputs: np.ndarray, *, sample_seeds=None) -> np.ndarray:
        """Functional outputs are unaffected by the defence."""
        return self.target.forward(inputs, sample_seeds=sample_seeds)

    @property
    def n_inputs(self) -> int:
        """Input dimensionality of the wrapped target."""
        return self.target.n_inputs

    @property
    def n_outputs(self) -> int:
        """Output dimensionality of the wrapped target."""
        return self.target.n_outputs

    # --------------------------------------------------------- power channel

    def _update_reference(self, currents: np.ndarray) -> float:
        observed = float(np.mean(np.abs(currents))) if np.size(currents) else 0.0
        if self._reference_current is None:
            self._reference_current = observed if observed > 0 else 1.0
        return self._reference_current

    def _defend(self, real: np.ndarray, sample_seeds=None) -> np.ndarray:
        """Distort the observable currents (jitter + dummy draw).

        Without seeds this is the historical behaviour: draws come from the
        defence's own generator and the dummy scale references the *mean*
        magnitude of the first observed batch (shared lazy state).  With
        per-row ``sample_seeds`` every draw comes from the row's derived
        stream and the dummy scale references that row's own current, so a
        row's defended value is a pure function of ``(row, seed)`` —
        batch-composition-invariant, as the coalescing service requires.
        """
        defended = real.copy()
        if sample_seeds is None:
            reference = self._update_reference(real)
            if self.jitter > 0:
                defended = defended * (
                    1.0
                    + self._rng.uniform(-self.jitter, self.jitter, size=defended.shape)
                )
            if self.dummy_current_scale > 0:
                dummy = self._rng.exponential(
                    self.dummy_current_scale * reference, size=defended.shape
                )
                defended = defended + dummy
            return defended
        for i, seed in enumerate(np.asarray(sample_seeds, dtype=np.uint64)):
            reference = abs(float(real[i])) or 1.0
            if self.jitter > 0:
                rng = sample_stream(seed, _DEFENSE_DOMAIN, _JITTER_CHANNEL)
                defended[i] *= 1.0 + rng.uniform(-self.jitter, self.jitter)
            if self.dummy_current_scale > 0:
                rng = sample_stream(seed, _DEFENSE_DOMAIN, _DUMMY_CHANNEL)
                defended[i] += rng.exponential(self.dummy_current_scale * reference)
        return defended

    def forward_with_power(self, inputs: np.ndarray, *, sample_seeds=None):
        """Fused passthrough: the target's outputs with a defended power report.

        Requires a target exposing ``forward_with_power`` (an accelerator).
        The report's summed total current is defended; the per-tile columns
        are passed through unchanged — the defence sits on the package supply
        rail, not inside the individual tile rails.
        """
        outputs, report = self.target.forward_with_power(
            inputs, sample_seeds=sample_seeds
        )
        defended = self._defend(report.total_current, sample_seeds)
        return outputs, PowerReport(defended, report.per_tile_current, report.tile_labels)

    @property
    def overhead_factor(self) -> float:
        """Expected relative increase in average power caused by the defence."""
        return 1.0 + self.dummy_current_scale

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerNoiseDefense(dummy_current_scale={self.dummy_current_scale}, "
            f"jitter={self.jitter})"
        )
