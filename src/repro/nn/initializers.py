"""Weight initializers: Glorot-uniform weights and zero biases."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Zeros:
    """All-zero initialization (used for biases)."""

    def __call__(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return np.zeros(shape, dtype=float)


class XavierUniform:
    """Glorot/Xavier uniform initialization for ``(fan_out, fan_in)`` matrices.

    Weight matrices in this library are stored as ``(outputs, inputs)`` to
    mirror the paper's ``W`` in ``y = f(W u)``.
    """

    def __call__(self, shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
        fan_out, fan_in = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)
