"""Power-channel reports for the crossbar accelerator.

The "power information" in the paper is the total steady-state current drawn
by the array for a given input (Eq. 5).  With the supply normalised to 1 V
(the paper's formulation) that current *is* the dissipated power, so a
:class:`PowerReport` carries currents only.

With multi-tile sharding each physical tile's supply rail is individually
observable: :attr:`PowerReport.per_tile_current` carries one column per
physical tile and :attr:`PowerReport.tile_labels` names them
(``layer<i>`` for unsharded layers, ``layer<i>/r<r>c<c>`` for shards), so
attacks and analyses can select any subset of rails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.results import compact_repr

#: The accelerator's tile-label grammar: ``layer<i>`` for unsharded layers,
#: ``layer<i>/r<row>c<col>`` for shards of a sharded layer.
_TILE_LABEL_RE = re.compile(r"^layer(?P<layer>\d+)(?:/r(?P<row>\d+)c(?P<col>\d+))?$")


def parse_tile_label(label: str) -> Tuple[int, Optional[Tuple[int, int]]]:
    """Split a tile label into ``(layer_index, shard_position)``.

    ``shard_position`` is the ``(row, col)`` grid coordinate for sharded
    labels and ``None`` for a whole-layer tile.  Raises ``ValueError`` for
    labels outside the accelerator's grammar.
    """
    match = _TILE_LABEL_RE.match(str(label))
    if match is None:
        raise ValueError(f"unrecognised tile label {label!r}")
    layer = int(match.group("layer"))
    if match.group("row") is None:
        return layer, None
    return layer, (int(match.group("row")), int(match.group("col")))


def layer_rail_grid(
    labels: Sequence[str], layer: int
) -> Tuple[Tuple[int, int], np.ndarray]:
    """Map one layer's rails back onto its shard grid.

    Given the per-tile labels of a power report (or oracle response), returns
    ``((row_shards, col_shards), columns)`` where ``columns[r, c]`` is the
    report-column index of shard ``(r, c)``.  An unsharded layer yields a
    ``1 x 1`` grid.  Raises ``KeyError`` when the layer has no rails and
    ``ValueError`` when its shard labels do not form a complete grid.
    """
    positions = {}
    for index, label in enumerate(labels):
        label_layer, shard = parse_tile_label(label)
        if label_layer != layer:
            continue
        positions[(0, 0) if shard is None else shard] = index
    if not positions:
        raise KeyError(f"no rails labelled for layer {layer} in {tuple(labels)}")
    row_shards = max(r for r, _ in positions) + 1
    col_shards = max(c for _, c in positions) + 1
    if len(positions) != row_shards * col_shards:
        raise ValueError(
            f"layer {layer} rails do not form a complete "
            f"{row_shards}x{col_shards} grid: {sorted(positions)}"
        )
    columns = np.empty((row_shards, col_shards), dtype=int)
    for (r, c), index in positions.items():
        columns[r, c] = index
    return (row_shards, col_shards), columns


@dataclass(frozen=True, repr=False)
class PowerReport:
    """Power-channel observations for a batch of inputs.

    Attributes
    ----------
    total_current:
        ``(B,)`` total crossbar current per input (the paper's side channel).
    per_tile_current:
        ``(B, n_tiles)`` currents, one column per *physical* crossbar tile.
        Unsharded accelerators have one column per layer; sharded layers
        contribute one column per shard (row-major shard order).
    tile_labels:
        Optional names for the current columns (``None`` when the producer
        does not label its tiles).
    """

    total_current: np.ndarray
    per_tile_current: np.ndarray
    tile_labels: Optional[Tuple[str, ...]] = None

    __repr__ = compact_repr

    def __post_init__(self) -> None:
        if np.asarray(self.total_current).ndim != 1:
            raise ValueError(
                f"total_current must be 1-D, got shape {np.shape(self.total_current)}"
            )
        if np.asarray(self.per_tile_current).ndim != 2:
            raise ValueError(
                f"per_tile_current must be 2-D, got shape {np.shape(self.per_tile_current)}"
            )
        if self.tile_labels is not None:
            labels = tuple(str(label) for label in self.tile_labels)
            object.__setattr__(self, "tile_labels", labels)
            if len(labels) != np.shape(self.per_tile_current)[1]:
                raise ValueError(
                    f"{len(labels)} tile labels for "
                    f"{np.shape(self.per_tile_current)[1]} current columns"
                )

    @property
    def n_samples(self) -> int:
        """Number of measured inputs."""
        return len(self.total_current)

    @property
    def n_tiles(self) -> int:
        """Number of physical crossbar tiles contributing to the measurement."""
        return self.per_tile_current.shape[1]

    def current_for(self, label: str) -> np.ndarray:
        """``(B,)`` current of one labelled tile, or the summed currents of a
        labelled group (prefix match on ``"<label>/"``, e.g. ``"layer1"``
        selects every shard of layer 1)."""
        if self.tile_labels is None:
            raise ValueError("this report carries no tile labels")
        if label in self.tile_labels:
            return self.per_tile_current[:, self.tile_labels.index(label)]
        columns = [
            index
            for index, name in enumerate(self.tile_labels)
            if name.startswith(f"{label}/")
        ]
        if not columns:
            raise KeyError(f"no tile labelled {label!r} in {self.tile_labels}")
        return self.per_tile_current[:, columns].sum(axis=1)

