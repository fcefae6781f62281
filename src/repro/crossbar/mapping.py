"""Weight-matrix to conductance-pair mapping and logical-to-physical placement.

Each weight ``w_ij`` is represented by a differential pair of conductances
``G+_ij`` and ``G-_ij`` with ``w_ij ∝ G+_ij - G-_ij`` (Figure 2 of the paper).
Two schemes are implemented:

``MIN_POWER`` (the paper's assumption)
    For positive weights ``G- ≈ g_min`` and for negative weights
    ``G+ ≈ g_min``.  This minimises static power and creates the side channel
    the paper exploits: the column conductance sum becomes an affine function
    of the column 1-norm, ``G_j = 2 N_rows g_min + scale * Σ_i |w_ij|``.

``BALANCED``
    The pair is split symmetrically around the mid-conductance so that
    ``G+ + G-`` is the same for every device regardless of the weight.  The
    column sums then carry no information about the weights — this scheme is
    the natural hardware counter-measure and is used by the mapping ablation
    benchmark.

Besides the per-device mapping, this module also describes the *placement* of
a logical weight matrix onto physical hardware: :class:`ShardingSpec` declares
how one layer is split across a grid of crossbar tiles (row shards partition
the output rows, column shards partition the input columns) and in which
order the column-shard partial sums are reduced back into one output.  The
multi-tile execution lives in :class:`~repro.crossbar.tile.CrossbarTile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.devices import IDEAL_DEVICE, NVMDeviceModel
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import (
    check_known_fields,
    check_matrix,
    check_positive,
    check_positive_int,
)


class MappingScheme(str, Enum):
    """Available weight-to-conductance-pair mapping schemes."""

    MIN_POWER = "min_power"
    BALANCED = "balanced"


@dataclass
class ConductanceMapping:
    """Maps a weight matrix onto differential conductance pairs.

    Parameters
    ----------
    device:
        The NVM device model providing the conductance range and write noise.
    scheme:
        :class:`MappingScheme` (default ``MIN_POWER``, as assumed by the paper).
    weight_scale:
        The weight magnitude that maps to full-scale conductance
        (``g_max - g_min``).  ``None`` (default) uses the maximum absolute
        weight of the matrix being programmed, which maximises the usable
        conductance range.
    """

    device: NVMDeviceModel = IDEAL_DEVICE
    scheme: MappingScheme = MappingScheme.MIN_POWER
    weight_scale: Optional[float] = None

    def __post_init__(self) -> None:
        self.scheme = MappingScheme(self.scheme)
        if self.weight_scale is not None:
            check_positive(self.weight_scale, "weight_scale")

    # ------------------------------------------------------------------ api

    def resolve_weight_scale(self, weights: np.ndarray) -> float:
        """The weight magnitude corresponding to full-scale conductance."""
        if self.weight_scale is not None:
            return float(self.weight_scale)
        max_abs = float(np.abs(weights).max())
        # An all-zero (or subnormal) matrix would make the conductance scale
        # overflow; fall back to a unit scale, which maps every weight to a
        # (near-)zero conductance as expected.
        if max_abs == 0.0 or not np.isfinite(self.device.conductance_range / max_abs):
            return 1.0
        return max_abs

    def conductance_per_unit_weight(self, weights: np.ndarray) -> float:
        """Conductance added per unit of |weight| under this mapping."""
        return self.device.conductance_range / self.resolve_weight_scale(weights)

    def map(
        self,
        weights: np.ndarray,
        *,
        random_state: RandomState = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Program a weight matrix; returns ``(G_plus, G_minus)``.

        Both returned arrays have the weight matrix's shape ``(M, N)``.
        Programming noise and conductance quantization from the device model
        are applied here (they model the write operation).
        """
        weights = check_matrix(weights, "weights")
        rng = as_rng(random_state)
        scale = self.conductance_per_unit_weight(weights)
        g_min, g_max = self.device.g_min, self.device.g_max

        if self.scheme is MappingScheme.MIN_POWER:
            g_plus = g_min + scale * np.clip(weights, 0.0, None)
            g_minus = g_min + scale * np.clip(-weights, 0.0, None)
        else:  # BALANCED
            g_mid = 0.5 * (g_min + g_max)
            half = 0.5 * scale * weights
            g_plus = g_mid + half
            g_minus = g_mid - half

        g_plus = self.device.quantize(g_plus)
        g_minus = self.device.quantize(g_minus)
        g_plus = self.device.apply_programming_noise(g_plus, rng)
        g_minus = self.device.apply_programming_noise(g_minus, rng)
        return g_plus, g_minus

    def unmap(self, g_plus: np.ndarray, g_minus: np.ndarray, weights_reference: np.ndarray) -> np.ndarray:
        """Recover the effective weights implemented by a conductance pair.

        ``weights_reference`` is only used to resolve the weight scale (the
        same matrix that was passed to :meth:`map`).
        """
        scale = self.conductance_per_unit_weight(np.asarray(weights_reference, dtype=float))
        return (np.asarray(g_plus, dtype=float) - np.asarray(g_minus, dtype=float)) / scale

    def column_conductance_sums(
        self, g_plus: np.ndarray, g_minus: np.ndarray
    ) -> np.ndarray:
        """``G_j = Σ_i (G+_ij + G-_ij)`` — the quantity power probing reveals."""
        return (np.asarray(g_plus) + np.asarray(g_minus)).sum(axis=0)

    def expected_column_sums(self, weights: np.ndarray) -> np.ndarray:
        """Analytic column sums for an ideal (noise-free) programming pass.

        Under ``MIN_POWER`` this is ``2 M g_min + scale * Σ_i |w_ij|``; under
        ``BALANCED`` it is the constant ``M (g_min + g_max)``.
        """
        weights = check_matrix(weights, "weights")
        n_rows = weights.shape[0]
        if self.scheme is MappingScheme.MIN_POWER:
            scale = self.conductance_per_unit_weight(weights)
            return 2 * n_rows * self.device.g_min + scale * np.abs(weights).sum(axis=0)
        return np.full(
            weights.shape[1], n_rows * (self.device.g_min + self.device.g_max)
        )


# --------------------------------------------------------------------- sharding


#: Reduction orders accepted by :attr:`ShardingSpec.reduction`.
REDUCTION_ORDERS = ("sequential", "tree")


def reduce_partial_sums(partials: Sequence[np.ndarray], order: str = "sequential"):
    """Reduce column-shard partial outputs into one array.

    ``sequential`` accumulates the partials in shard order (a ripple adder
    chain at the tile-group output); ``tree`` folds them pairwise (a balanced
    adder tree, halving the reduction depth).  The two orders are equal in
    exact arithmetic and differ only in float rounding; both are
    deterministic for a fixed shard list.
    """
    if len(partials) == 0:
        raise ValueError("cannot reduce an empty list of partial sums")
    if order not in REDUCTION_ORDERS:
        raise ValueError(f"reduction order must be one of {REDUCTION_ORDERS}, got {order!r}")
    partials = list(partials)
    if order == "sequential":
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        return total
    while len(partials) > 1:
        folded = [
            partials[i] + partials[i + 1] if i + 1 < len(partials) else partials[i]
            for i in range(0, len(partials), 2)
        ]
        partials = folded
    return partials[0]


@dataclass(frozen=True)
class ShardingSpec:
    """How one logical layer is split across a grid of physical crossbar tiles.

    A layer with an ``(M, N)`` weight matrix is partitioned into
    ``row_shards x col_shards`` sub-arrays: row shards partition the ``M``
    output rows (each shard computes a slice of the output vector), column
    shards partition the ``N`` input columns (each shard sees a slice of the
    input and produces a *partial sum* that must be reduced across shards).
    ``numpy.array_split`` semantics apply, so non-divisible shapes are legal —
    the leading shards are one row/column larger.

    Attributes
    ----------
    row_shards / col_shards:
        Number of partitions along the output/input dimension (>= 1 each).
    reduction:
        Order in which column-shard partial sums are combined:
        ``"sequential"`` (shard order) or ``"tree"`` (pairwise fold).
    """

    row_shards: int = 1
    col_shards: int = 1
    reduction: str = "sequential"

    def __post_init__(self) -> None:
        check_positive_int(self.row_shards, "row_shards")
        check_positive_int(self.col_shards, "col_shards")
        if self.reduction not in REDUCTION_ORDERS:
            raise ValueError(
                f"reduction must be one of {REDUCTION_ORDERS}, got {self.reduction!r}"
            )

    # ---------------------------------------------------------- constructors

    @classmethod
    def rows(cls, n: int, *, reduction: str = "sequential") -> "ShardingSpec":
        """Split the output rows across ``n`` tiles (no partial-sum reduction)."""
        return cls(row_shards=n, reduction=reduction)

    @classmethod
    def columns(cls, n: int, *, reduction: str = "sequential") -> "ShardingSpec":
        """Split the input columns across ``n`` tiles (partial sums reduced)."""
        return cls(col_shards=n, reduction=reduction)

    @classmethod
    def grid(cls, rows: int, cols: int, *, reduction: str = "sequential") -> "ShardingSpec":
        """Split both dimensions across a ``rows x cols`` tile grid."""
        return cls(row_shards=rows, col_shards=cols, reduction=reduction)

    # ------------------------------------------------------------ properties

    @property
    def n_shards(self) -> int:
        """Number of physical tiles the layer occupies."""
        return self.row_shards * self.col_shards

    @property
    def is_trivial(self) -> bool:
        """True for the 1x1 grid — a single tile, no sharding."""
        return self.row_shards == 1 and self.col_shards == 1

    @property
    def strategy(self) -> str:
        """Human-readable split kind: ``none`` / ``rows`` / ``columns`` / ``grid``."""
        if self.is_trivial:
            return "none"
        if self.col_shards == 1:
            return "rows"
        if self.row_shards == 1:
            return "columns"
        return "grid"

    # -------------------------------------------------------------- geometry

    def shard_sections(
        self, n_rows: int, n_cols: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Index partitions ``(row_sections, col_sections)`` for an (M, N) matrix.

        Every shard must be non-empty; a spec with more shards than rows or
        columns is rejected here (at placement time, when the shape is known).
        """
        if self.row_shards > n_rows:
            raise ValueError(
                f"cannot split {n_rows} output rows into {self.row_shards} shards"
            )
        if self.col_shards > n_cols:
            raise ValueError(
                f"cannot split {n_cols} input columns into {self.col_shards} shards"
            )
        row_sections = np.array_split(np.arange(n_rows), self.row_shards)
        col_sections = np.array_split(np.arange(n_cols), self.col_shards)
        return row_sections, col_sections

    def column_sections(self, n_cols: int) -> List[np.ndarray]:
        """Index partitions of ``N`` input columns only (attack-side helper).

        A prober reconstructing per-column quantities from per-shard rails
        needs to know which physical tile owns each input column; this is the
        column half of :meth:`shard_sections` without requiring the row
        count.
        """
        if self.col_shards > n_cols:
            raise ValueError(
                f"cannot split {n_cols} input columns into {self.col_shards} shards"
            )
        return np.array_split(np.arange(n_cols), self.col_shards)

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (for scenario/result metadata)."""
        return {
            "row_shards": self.row_shards,
            "col_shards": self.col_shards,
            "reduction": self.reduction,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardingSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        check_known_fields(payload, cls)
        return cls(**payload)


#: Shared default: a single tile per layer (the seed engine's placement).
UNSHARDED = ShardingSpec()
