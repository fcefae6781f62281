"""A full crossbar accelerator: a trained network mapped tile-by-tile.

The accelerator is the attack target ("oracle hardware") in the paper's
experiments: it exposes exactly the interfaces an attacker might have —
classification outputs, raw output vectors, and the power side channel.

The compute spine is a fused single-pass engine.  :meth:`forward_with_power`
streams a batch through every tile exactly once, collecting the layer
activations *and* each physical tile's supply current from the same
conductance realization (via :meth:`CrossbarTile.traverse`), so the
functional outputs and the power trace an attacker observes are physically
consistent and the accelerator is traversed once per batch instead of twice.
It is the only power entry point: the attacker reads it through an
:class:`~repro.attacks.oracle.Oracle`.  :meth:`forward` streams batches
through the tiles in 2-D form without per-layer re-wrapping.  These two
methods are the only place the single-vector shape convention lives: a 1-D
input is promoted to a one-row batch on the way in and unwrapped on the way
out.  On deterministic (read-noise-free) arrays each tile additionally reuses
its cached effective state, so repeated queries cost one matrix product per
tile and nothing else.

Multi-tile sharding: passing a
:class:`~repro.crossbar.mapping.ShardingSpec` (one spec for every layer, or a
per-layer sequence) places layers on grids of physical arrays instead of
single arrays; the shards of a layer are traversed serially, in row-major
order.  The :class:`~repro.crossbar.power.PowerReport` then carries one
current column per *physical* tile — labelled ``layer<i>/r<r>c<c>`` — so
tile-count and placement scenarios from the paper's hardware discussion are
observable, while the summed total current is the partial-sum reduction the
digital backend would perform.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.mapping import (
    UNSHARDED,
    ConductanceMapping,
    ShardingSpec,
    reduce_partial_sums,
)
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.power import PowerReport
from repro.crossbar.tile import CrossbarTile
from repro.nn.network import Sequential
from repro.utils.rng import RandomState, spawn_rngs


def _resolve_layer_sharding(
    sharding: Union[None, ShardingSpec, Sequence[Optional[ShardingSpec]]],
    n_layers: int,
) -> List[ShardingSpec]:
    """Normalise the sharding argument to one spec per layer."""
    if sharding is None:
        return [UNSHARDED] * n_layers
    if isinstance(sharding, ShardingSpec):
        return [sharding] * n_layers
    specs = list(sharding)
    if len(specs) != n_layers:
        raise ValueError(
            f"per-layer sharding needs {n_layers} entries, got {len(specs)}"
        )
    for spec in specs:
        if spec is not None and not isinstance(spec, ShardingSpec):
            raise TypeError(
                f"sharding entries must be ShardingSpec or None, "
                f"got {type(spec).__name__}"
            )
    return [UNSHARDED if spec is None else spec for spec in specs]


class CrossbarAccelerator:
    """Maps every layer of a trained network onto crossbar tiles.

    Parameters
    ----------
    network:
        The trained :class:`~repro.nn.network.Sequential` network.
    mapping:
        Conductance mapping shared by all tiles (default ideal min-power).
    nonidealities:
        Optional non-ideal effects shared by all tiles.
    dac / adc:
        Converter models shared by all tiles.
    sharding:
        ``None`` (one tile per layer, the historical placement), a single
        :class:`~repro.crossbar.mapping.ShardingSpec` applied to every layer,
        or a per-layer sequence of specs/``None``.
    random_state:
        Seed; each tile receives an independent child generator.
    """

    def __init__(
        self,
        network: Sequential,
        *,
        mapping: Optional[ConductanceMapping] = None,
        nonidealities: Optional[NonidealityConfig] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        sharding: Union[None, ShardingSpec, Sequence[Optional[ShardingSpec]]] = None,
        random_state: RandomState = None,
    ):
        if not network.layers:
            raise ValueError("cannot build an accelerator from an empty network")
        self.network = network
        layer_sharding = _resolve_layer_sharding(sharding, len(network.layers))
        rngs = spawn_rngs(random_state, len(network.layers))
        self.tiles: List[CrossbarTile] = [
            CrossbarTile(
                layer,
                sharding=spec,
                mapping=mapping,
                nonidealities=nonidealities,
                dac=dac,
                adc=adc,
                random_state=rng,
            )
            for layer, rng, spec in zip(network.layers, rngs, layer_sharding)
        ]
        self._tile_labels = self._label_tiles()
        # Distinct per-physical-array noise tags (label order), so seeded
        # queries derive statistically independent streams per tile even
        # though every tile shares the request's per-row seeds.
        for tag, array in enumerate(self.physical_arrays):
            array.noise_tag = tag

    # ----------------------------------------------------------- properties

    @property
    def n_inputs(self) -> int:
        """Input dimensionality of the first tile."""
        return self.tiles[0].n_inputs

    @property
    def n_outputs(self) -> int:
        """Output dimensionality of the last tile."""
        return self.tiles[-1].n_outputs

    @property
    def n_tiles(self) -> int:
        """Number of logical tiles (one per layer; sharded groups count once)."""
        return len(self.tiles)

    @property
    def n_physical_tiles(self) -> int:
        """Number of physical crossbar arrays across all layers."""
        return sum(tile.n_physical_tiles for tile in self.tiles)

    @property
    def tile_labels(self) -> Tuple[str, ...]:
        """One label per physical tile, in power-report column order.

        Unsharded layers are labelled ``layer<i>``; shards of a sharded layer
        ``layer<i>/r<row>c<col>`` in row-major shard order.  Tile placement is
        fixed at construction, so the tuple is built once and reused on every
        power report.
        """
        return self._tile_labels

    def _label_tiles(self) -> Tuple[str, ...]:
        labels: List[str] = []
        for index, tile in enumerate(self.tiles):
            spec = tile.sharding
            if spec.is_trivial:
                labels.append(f"layer{index}")
                continue
            for r in range(spec.row_shards):
                for c in range(spec.col_shards):
                    labels.append(f"layer{index}/r{r}c{c}")
        return tuple(labels)

    @property
    def physical_arrays(self) -> List:
        """Every physical :class:`~repro.crossbar.array.CrossbarArray`, in
        power-report column order (matches :attr:`tile_labels`)."""
        return [array for tile in self.tiles for array in tile.physical_arrays]

    @property
    def n_array_operations(self) -> int:
        """Summed analogue array traversals across all physical tiles."""
        return sum(tile.n_array_operations for tile in self.tiles)

    def reset_operation_counters(self) -> None:
        """Reset the per-tile array operation counters."""
        for tile in self.tiles:
            tile.reset_operation_counters()

    # -------------------------------------------------------------- compute

    def _as_batch(self, inputs: np.ndarray) -> Tuple[np.ndarray, bool]:
        inputs = np.asarray(inputs, dtype=float)
        return np.atleast_2d(inputs), inputs.ndim == 1

    def forward(self, inputs: np.ndarray, *, sample_seeds=None) -> np.ndarray:
        """Run inputs through every tile in sequence.

        ``sample_seeds`` (one seed per batch row) keys every tile's noise on
        the row's seed instead of the tile generators, making row outputs
        independent of batch composition — see
        :meth:`~repro.crossbar.array.CrossbarArray.traverse`.
        """
        activations, single = self._as_batch(inputs)
        for tile in self.tiles:
            activations, _ = tile.traverse(
                activations, sample_seeds, want_currents=False
            )
        return activations[0] if single else activations

    def predict_labels(self, inputs: np.ndarray) -> np.ndarray:
        """Argmax class labels from the accelerator outputs."""
        outputs = np.atleast_2d(self.forward(inputs))
        return np.argmax(outputs, axis=1)

    # ---------------------------------------------------------- power channel

    def forward_with_power(
        self, inputs: np.ndarray, *, sample_seeds=None
    ) -> Tuple[np.ndarray, PowerReport]:
        """Fused forward pass + power measurement in a single traversal.

        Each physical tile is visited exactly once; its activations and
        supply current are derived from the same conductance realization, so
        the returned outputs and :class:`~repro.crossbar.power.PowerReport`
        describe one consistent physical inference.  The report carries one
        current column per physical tile (see :attr:`tile_labels`); each
        layer's contribution to the summed total current is the partial-sum
        reduction its sharding spec declares.

        Returns
        -------
        (outputs, report):
            ``outputs`` follows the :meth:`forward` shape convention
            (``(M,)`` for a 1-D input, ``(B, M)`` for a batch); ``report``
            always covers the whole batch.
        """
        activations, single = self._as_batch(inputs)
        per_tile_currents: List[np.ndarray] = []
        layer_currents: List[np.ndarray] = []
        for tile in self.tiles:
            activations, shard_currents = tile.traverse(activations, sample_seeds)
            per_tile_currents.extend(shard_currents)
            layer_currents.append(
                reduce_partial_sums(shard_currents, tile.sharding.reduction)
            )
        report = PowerReport(
            np.sum(layer_currents, axis=0),
            np.stack(per_tile_currents, axis=1),
            self.tile_labels,
        )
        return (activations[0] if single else activations), report

    def fidelity(self, inputs: np.ndarray) -> float:
        """Mean absolute difference between accelerator and software outputs.

        A sanity metric: zero for the ideal crossbar, growing with enabled
        non-idealities.
        """
        hardware = np.atleast_2d(self.forward(inputs))
        software = np.atleast_2d(self.network.predict(inputs))
        return float(np.mean(np.abs(hardware - software)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarAccelerator(n_tiles={self.n_tiles}, n_inputs={self.n_inputs}, "
            f"n_outputs={self.n_outputs})"
        )
