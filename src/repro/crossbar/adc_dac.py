"""Input DAC and output ADC models.

The crossbar is an analogue block; in a real accelerator the digital inputs
pass through a DAC to become line voltages and the output currents pass
through an ADC before the digital activation function.  Both converters are
uniform quantizers that clip to their range.  Infinite resolution
(``n_bits=None``) reproduces the paper's ideal analysis.

Neither range is a setting.  The DAC drives the normalised ``[0, 1]`` used
throughout the paper.  The ADC is symmetric, ``[-full_scale, full_scale]``,
and its full scale belongs to the array it reads:
:class:`~repro.crossbar.tile.CrossbarTile` derives it from the programmed
conductances (:attr:`~repro.crossbar.tile.CrossbarTile.adc_full_scale`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_positive_int


def _quantize(values, low: float, high: float, n_bits: Optional[int]) -> np.ndarray:
    """Clip to ``[low, high]`` and (if quantized) snap to the nearest of
    ``2**n_bits`` uniform levels."""
    clipped = np.clip(np.asarray(values, dtype=float), low, high)
    if n_bits is None or high == low:
        return clipped
    span = high - low
    steps = 2**n_bits - 1
    indices = np.rint((clipped - low) / span * steps)
    return low + indices * span / steps


class _Converter:
    """Resolution shared by both converters."""

    def __init__(self, n_bits: Optional[int] = None):
        if n_bits is not None:
            check_positive_int(n_bits, "n_bits")
        self.n_bits = n_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_bits={self.n_bits})"


class DAC(_Converter):
    """Digital-to-analogue converter for crossbar input voltages.

    Converts digital inputs to line voltages in the normalised ``[0, 1]``
    range (:attr:`low` to :attr:`high`).

    Parameters
    ----------
    n_bits:
        Resolution in bits; ``None`` for an ideal (continuous) DAC.
    """

    low = 0.0
    high = 1.0

    def convert(self, values: np.ndarray) -> np.ndarray:
        """Clip to ``[0, 1]`` and (if quantized) snap to the nearest level."""
        return _quantize(values, self.low, self.high, self.n_bits)


class ADC(_Converter):
    """Analogue-to-digital converter for crossbar output currents.

    Parameters
    ----------
    n_bits:
        Resolution in bits; ``None`` for an ideal (continuous) ADC.
    """

    def convert(self, currents: np.ndarray, full_scale: float) -> np.ndarray:
        """Clip to ``[-full_scale, full_scale]`` and (if quantized) snap to the
        nearest level."""
        return _quantize(currents, -full_scale, full_scale, self.n_bits)
