"""Per-shard column-norm probing of multi-rail crossbar victims.

The paper's probing attack (Section II-B) reads the *one* shared supply rail
of a monolithic crossbar.  On a sharded accelerator every physical tile has
its own rail, and an attacker who can observe them individually
(:class:`~repro.attacks.oracle.Oracle` with ``expose_per_tile_power=True``)
recovers strictly more than the whole-rail attacker: for a basis-vector
probe of input column ``j`` only the rails of the column-shard *owning*
``j`` carry signal, so summing just those rails discards the measurement
noise of every other rail.  Each rail's instrument noise scales with that
rail's own current, so splitting the signal over ``R`` row-shard rails also
averages ``R`` independent draws where the whole rail gets a single draw on
the full magnitude — the per-shard estimate is never noisier and strictly
better whenever more than one rail exists on the probed layer's grid.

:class:`PerShardProber` mounts exactly the whole-rail prober's probe set —
one all-zero baseline row plus one basis vector per input column, submitted
as a single batched query — and reads *both* channels of the one response:
the per-rail currents (per-shard estimate) and the summed total (the
whole-rail estimate the paper's attacker would see).  Both estimates
therefore derive from identical hardware traversals and identical noise
realizations, which is what makes their comparison a pure measurement of
the extra information in the per-tile channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crossbar.mapping import ShardingSpec
from repro.crossbar.power import layer_rail_grid
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["PerShardProber", "ShardProbeResult"]


@dataclass
class ShardProbeResult:
    """Both estimates recovered from one per-rail probe session.

    Attributes
    ----------
    indices:
        The probed logical input columns (``0 .. N-1``).
    per_shard_norms:
        Column-sum estimates built from the owning rails only.
    whole_rail_norms:
        Column-sum estimates built from the summed total current — the
        paper's single-rail attacker, measured on the *same* queries.
    grid:
        ``(row_shards, col_shards)`` rail grid of the probed layer.
    queries_used:
        Power queries spent producing both estimates.
    """

    indices: np.ndarray
    per_shard_norms: np.ndarray
    whole_rail_norms: np.ndarray
    grid: tuple
    queries_used: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=int)
        self.per_shard_norms = np.asarray(self.per_shard_norms, dtype=float)
        self.whole_rail_norms = np.asarray(self.whole_rail_norms, dtype=float)
        if not (
            self.indices.shape
            == self.per_shard_norms.shape
            == self.whole_rail_norms.shape
        ):
            raise ValueError(
                "indices, per_shard_norms and whole_rail_norms must have the "
                "same shape"
            )

    @property
    def n_rails(self) -> int:
        """Number of individually observed rails on the probed layer."""
        return int(self.grid[0]) * int(self.grid[1])


class PerShardProber:
    """Recovers column norms from individually observable shard rails.

    Parameters
    ----------
    oracle:
        An :class:`~repro.attacks.oracle.Oracle` built with
        ``expose_per_tile_power=True``; its query responses must carry
        ``per_tile_power`` and ``metadata["tile_labels"]``.
    n_inputs:
        Logical input dimensionality ``N`` of the target.
    layer:
        Index of the layer whose rails are attacked (the paper's victim is
        layer 0).
    drive_voltage:
        Voltage applied to the probed line (the paper's normalised Vdd).
    has_bias_column:
        Whether the target layer carries a trailing bias column on its
        physical tiles.  The bias line is driven on every query — including
        the baseline — so its contribution cancels out of both estimates;
        the flag only affects which column-shard owns each *logical* column
        when the physical width is ``N + 1``.
    """

    def __init__(
        self,
        oracle,
        n_inputs: int,
        *,
        layer: int = 0,
        drive_voltage: float = 1.0,
        has_bias_column: bool = False,
    ):
        if not getattr(oracle, "expose_per_tile_power", False):
            raise ValueError(
                "PerShardProber requires an oracle with "
                "expose_per_tile_power=True (per-rail currents observable)"
            )
        self.oracle = oracle
        self.n_inputs = check_positive_int(n_inputs, "n_inputs")
        self.layer = int(layer)
        self.drive_voltage = check_positive(drive_voltage, "drive_voltage")
        self.has_bias_column = bool(has_bias_column)

    # ------------------------------------------------------------------ api

    def _column_owner(self, col_shards: int) -> np.ndarray:
        """Owning column-shard index for every logical input column."""
        n_physical = self.n_inputs + (1 if self.has_bias_column else 0)
        sections = ShardingSpec(1, col_shards).column_sections(n_physical)
        owner = np.empty(n_physical, dtype=int)
        for shard, columns in enumerate(sections):
            owner[columns] = shard
        return owner[: self.n_inputs]

    def probe_all(self) -> ShardProbeResult:
        """One batched probe round: baseline + every basis vector.

        Returns both the per-shard and the whole-rail estimate recovered
        from the same response (``N + 1`` queries total).
        """
        probes = np.zeros((self.n_inputs + 1, self.n_inputs), dtype=float)
        probes[np.arange(1, self.n_inputs + 1), np.arange(self.n_inputs)] = (
            self.drive_voltage
        )
        queries_before = self.oracle.queries_used
        response = self.oracle.query(probes)
        if response.per_tile_power is None:
            raise ValueError(
                "oracle response carries no per-tile power; the target does "
                "not expose individual rails"
            )
        labels = response.metadata.get("tile_labels")
        if labels is None:
            raise ValueError("oracle response carries no tile labels")

        grid, columns = layer_rail_grid(labels, self.layer)
        rails = response.per_tile_power[:, columns.ravel()].reshape(
            (len(probes),) + columns.shape
        )
        # Per-rail baseline subtraction removes every constant contribution
        # (g_min offsets, the always-driven bias column) rail by rail.
        rail_signal = rails[1:] - rails[0]
        total_signal = response.power[1:] - response.power[0]

        owner = self._column_owner(grid[1])
        # Column j's probe excites only the owning column-shard's rails; sum
        # its row-shard partial currents and discard every other rail.
        per_shard = (
            rail_signal[np.arange(self.n_inputs), :, owner].sum(axis=1)
            / self.drive_voltage
        )
        whole_rail = total_signal / self.drive_voltage
        return ShardProbeResult(
            indices=np.arange(self.n_inputs),
            per_shard_norms=per_shard,
            whole_rail_norms=whole_rail,
            grid=grid,
            queries_used=self.oracle.queries_used - queries_before,
            metadata={"layer": self.layer, "tile_labels": tuple(labels)},
        )
