"""Crossbar tiles: one neural-network layer mapped onto physical arrays.

:class:`CrossbarTile` maps one layer onto a grid of
:class:`~repro.crossbar.array.CrossbarArray` sub-arrays described by a
:class:`~repro.crossbar.mapping.ShardingSpec`, with an input DAC and an
output ADC, and applies the layer's activation function digitally after
conversion, exactly mirroring Figure 2 of the paper
(``v_y = f(i_s) = f(G v_u)``).  The default spec is the 1x1 grid: one array
programmed with the layer's weights.

A larger grid partitions the weight matrix into ``row_shards x col_shards``
sub-arrays: the full matrix is programmed **once** (so the physical devices
are identical to the single-array placement) and each shard receives its
slice of the programmed conductances.  Every shard is traversed once per
batch; column-shard partial outputs are reduced in the spec's declared order
and each shard's supply current remains individually observable — the
per-tile observables the paper's hardware discussion assumes.  For ideal
(noise-free) devices the sharded computation performs the same
exact-arithmetic operations as the single-array one, so the two placements
agree bit-for-bit whenever no float rounding occurs and to ~1e-12 otherwise.

Batches stream through the tile in 2-D form end to end: :meth:`traverse`
takes a ``(B, n_inputs)`` array and never re-wraps its operands.  It is the
tile's one compute entry, the call the accelerator drives: it yields the
layer outputs and one ``(B,)`` supply current per physical array from the
same conductance realizations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import (
    UNSHARDED,
    ConductanceMapping,
    ShardingSpec,
    reduce_partial_sums,
)
from repro.crossbar.nonidealities import NonidealityConfig
from repro.nn.activations import Activation, get_activation
from repro.nn.layers import Dense
from repro.utils.rng import RandomState, as_rng


class CrossbarTile:
    """One dense layer implemented on a grid of crossbar arrays.

    The layer's weight matrix (bias column included) is programmed once —
    one mapping pass, one programming-noise draw, one static-non-ideality
    pass.  On the default 1x1 grid that programmed array is the tile's only
    physical array.  On a larger grid the weight scale is pinned to the full
    matrix, and the programmed conductances are partitioned into
    ``row_shards x col_shards`` independent sub-arrays, each with its own
    read-noise/measurement-noise stream (they are distinct physical tiles).

    Parameters
    ----------
    layer:
        The trained :class:`~repro.nn.layers.Dense` layer to map.  Layers with
        a bias are mapped by adding one extra input column driven at a
        constant voltage of 1.
    sharding:
        The :class:`~repro.crossbar.mapping.ShardingSpec` grid geometry
        (default: a single array).
    mapping:
        Conductance mapping; defaults to the ideal min-power mapping.
    nonidealities:
        Optional non-ideal effects.
    dac / adc:
        Converter models; ``None`` means ideal converters.
    random_state:
        Seed for stochastic hardware effects.
    """

    def __init__(
        self,
        layer: Dense,
        *,
        sharding: ShardingSpec = UNSHARDED,
        mapping: Optional[ConductanceMapping] = None,
        nonidealities: Optional[NonidealityConfig] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        random_state: RandomState = None,
    ):
        if not isinstance(sharding, ShardingSpec):
            raise TypeError(
                f"sharding must be a ShardingSpec, got {type(sharding).__name__}"
            )
        self.layer = layer
        self.sharding = sharding
        self.activation: Activation = get_activation(layer.activation)
        self._has_bias_column = bool(layer.use_bias)

        weights = layer.weights
        if self._has_bias_column:
            weights = np.concatenate([weights, layer.bias[:, np.newaxis]], axis=1)

        mapping = mapping if mapping is not None else ConductanceMapping()
        if not sharding.is_trivial:
            # Pin the weight scale to the full matrix so every shard converts
            # currents with the same factor the single-array placement uses.
            mapping = replace(mapping, weight_scale=mapping.resolve_weight_scale(weights))
        rng = as_rng(random_state)
        programmed = CrossbarArray(
            weights,
            mapping=mapping,
            nonidealities=nonidealities,
            random_state=rng,
        )
        # Scale factor converting output currents back to the digital domain.
        self._current_to_logical = 1.0 / mapping.conductance_per_unit_weight(weights)

        if sharding.is_trivial:
            self.shards: List[List[CrossbarArray]] = [[programmed]]
            self._col_slices = [slice(None)]
        else:
            row_sections, col_sections = sharding.shard_sections(*weights.shape)
            # array_split sections are contiguous index ranges; basic slices
            # give copy-free views of the batch in the per-shard hot path.
            self._col_slices = [
                slice(int(cols[0]), int(cols[-1]) + 1) for cols in col_sections
            ]
            # The shard generators are drawn after programming, so the
            # programmed devices match a single array built from the same seed.
            seeds = rng.integers(0, 2**63 - 1, size=sharding.n_shards)
            self.shards = [
                [
                    CrossbarArray.from_conductances(
                        programmed.g_plus[np.ix_(rows, cols)],
                        programmed.g_minus[np.ix_(rows, cols)],
                        mapping=mapping,
                        nonidealities=nonidealities,
                        reference_weights=weights[np.ix_(rows, cols)],
                        random_state=np.random.default_rng(
                            int(seeds[r * len(col_sections) + c])
                        ),
                    )
                    for c, cols in enumerate(col_sections)
                ]
                for r, rows in enumerate(row_sections)
            ]
        self.dac = dac if dac is not None else DAC()
        self.adc = adc

    # ----------------------------------------------------------- properties

    @property
    def n_inputs(self) -> int:
        """Logical input dimensionality (excluding the bias column)."""
        return self.layer.n_inputs

    @property
    def n_outputs(self) -> int:
        """Output dimensionality."""
        return self.layer.n_outputs

    @property
    def n_physical_tiles(self) -> int:
        """Number of physical crossbar arrays implementing the layer."""
        return self.sharding.n_shards

    @property
    def physical_arrays(self) -> List[CrossbarArray]:
        """Every physical :class:`CrossbarArray`, row-major shard order."""
        return [array for row in self.shards for array in row]

    @property
    def shard_shapes(self) -> List[Tuple[int, int]]:
        """``(rows, cols)`` of every physical array, row-major shard order."""
        return [array.shape for array in self.physical_arrays]

    @property
    def column_conductance_sums(self) -> np.ndarray:
        """Per-logical-input column conductance sums (bias column excluded),
        reassembled from the shard grid."""
        columns = []
        for c in range(len(self._col_slices)):
            sums = self.shards[0][c].column_conductance_sums
            for row in self.shards[1:]:
                sums = sums + row[c].column_conductance_sums
            columns.append(sums)
        sums = np.concatenate(columns)
        if self._has_bias_column:
            return sums[:-1]
        return sums

    @property
    def n_array_operations(self) -> int:
        """Analogue traversals summed over the physical arrays (fused ops
        count once)."""
        return sum(array.n_operations for array in self.physical_arrays)

    @property
    def n_array_realizations(self) -> int:
        """Physical conductance reads summed over the physical arrays."""
        return sum(array.n_realizations for array in self.physical_arrays)

    def reset_operation_counters(self) -> None:
        """Reset the operation/realization counters of every physical array."""
        for array in self.physical_arrays:
            array.reset_counters()

    # -------------------------------------------------------------- compute

    def _line_voltages(self, inputs: np.ndarray) -> np.ndarray:
        """Convert digital inputs to crossbar line voltages (DAC + bias column)."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected a (B, {self.n_inputs}) batch of inputs, "
                f"got shape {inputs.shape}"
            )
        voltages = self.dac.convert(inputs)
        if self._has_bias_column:
            ones = np.ones((voltages.shape[0], 1))
            voltages = np.concatenate([voltages, ones], axis=1)
        return voltages

    def _to_logical(self, currents: np.ndarray) -> np.ndarray:
        """ADC conversion + current-to-logical rescaling."""
        if self.adc is not None:
            currents = self.adc.convert(currents)
        return currents * self._current_to_logical

    def traverse(
        self, batch: np.ndarray, sample_seeds=None, *, want_currents: bool = True
    ) -> Tuple[np.ndarray, List[Optional[np.ndarray]]]:
        """Layer outputs + per-shard supply currents, one traversal per shard.

        Returns ``(outputs (B, n_outputs), shard_currents)`` for a
        ``(B, n_inputs)`` batch, with one ``(B,)`` current per shard in
        row-major order (``None`` entries without ``want_currents``, which
        skips the rail measurement); every shard's output and current come
        from the same conductance realization.  Row-shard outputs are
        concatenated and column-shard partial sums reduced in
        ``sharding.reduction`` order; the layer's total current is
        ``reduce_partial_sums(shard_currents, sharding.reduction)``.  The
        per-row ``sample_seeds`` are shared by every shard — each shard
        derives its own noise streams from them via its distinct
        :attr:`CrossbarArray.noise_tag`.
        """
        voltages = self._line_voltages(batch)
        if len(self._col_slices) == 1:
            slices = [voltages]
        else:
            slices = [voltages[:, cols] for cols in self._col_slices]
        blocks, currents = [], []
        for row in self.shards:
            partials = []
            for array, shard_voltages in zip(row, slices):
                outputs, totals = array.traverse(
                    shard_voltages, sample_seeds, want_totals=want_currents
                )
                partials.append(outputs)
                currents.append(totals)
            blocks.append(reduce_partial_sums(partials, self.sharding.reduction))
        outputs = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return self.activation.forward(self._to_logical(outputs)), currents

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarTile(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
            f"activation={self.activation.name!r}, "
            f"grid={self.sharding.row_shards}x{self.sharding.col_shards})"
        )
