"""Multi-tile sharding: spec validation, bit-identity, power accounting.

The equivalence matrix checks the tentpole guarantee: for ideal devices a
sharded placement computes the *same arithmetic* as the single-tile one.
Bitwise assertions run on exactly-representable (dyadic) weights and inputs,
where no float rounding occurs anywhere in the pipeline and every reduction
order is therefore exact — any bit difference would be a real structural
divergence.  Trained victims with arbitrary float weights are checked to
float-reduction precision (1e-10), since a partial-sum reduction legitimately
reassociates additions.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.crossbar import (
    CrossbarAccelerator,
    CrossbarTile,
    ShardingSpec,
    reduce_partial_sums,
)
from repro.crossbar.devices import IDEAL_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.power import layer_rail_grid, parse_tile_label
from repro.experiments.scenario import SCENARIOS, ScenarioSpec, get_scenario
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.sidechannel import PerShardProber
from repro.sidechannel.probing import ColumnNormProber
from repro.utils.rng import derive_request_seeds

pytestmark = pytest.mark.sharding

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The equivalence test matrix: >= 3 geometries, including both pure splits,
#: a grid, and non-divisible shapes (7 rows / 13+1 columns split unevenly).
GEOMETRIES = [
    ShardingSpec.rows(3),
    ShardingSpec.columns(4),
    ShardingSpec.grid(2, 2),
    ShardingSpec.grid(3, 2),
    ShardingSpec.grid(2, 3, reduction="tree"),
]


def dyadic_network(rng, n_inputs=13, n_outputs=7, activation="softmax"):
    """A single-layer victim whose weights/bias are exactly representable."""
    layer = Dense(n_inputs, n_outputs, activation=activation, use_bias=True, random_state=0)
    weights = rng.integers(-8, 9, size=(n_outputs, n_inputs)) / 16.0
    bias = rng.integers(-4, 5, size=n_outputs) / 8.0
    layer.set_weights(weights, bias=bias)
    return Sequential([layer])


def _total_current(accelerator, inputs):
    """The accelerator's ``(B,)`` summed supply current (fused path)."""
    return accelerator.forward_with_power(inputs)[1].total_current


def dyadic_inputs(rng, n, n_inputs=13):
    return rng.integers(0, 16, size=(n, n_inputs)) / 16.0


class TestShardingSpec:
    def test_defaults_are_trivial(self):
        spec = ShardingSpec()
        assert spec.is_trivial and spec.n_shards == 1 and spec.strategy == "none"

    @pytest.mark.parametrize(
        "spec, strategy, n_shards",
        [
            (ShardingSpec.rows(3), "rows", 3),
            (ShardingSpec.columns(4), "columns", 4),
            (ShardingSpec.grid(2, 3), "grid", 6),
        ],
    )
    def test_constructors(self, spec, strategy, n_shards):
        assert spec.strategy == strategy
        assert spec.n_shards == n_shards
        assert not spec.is_trivial

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ShardingSpec(row_shards=0)
        with pytest.raises(ValueError):
            ShardingSpec(col_shards=-1)

    def test_invalid_reduction_rejected(self):
        with pytest.raises(ValueError):
            ShardingSpec(reduction="pairwise-ish")

    def test_shard_sections_non_divisible(self):
        rows, cols = ShardingSpec.grid(3, 4).shard_sections(7, 13)
        assert [len(r) for r in rows] == [3, 2, 2]
        assert [len(c) for c in cols] == [4, 3, 3, 3]
        assert np.concatenate(rows).tolist() == list(range(7))
        assert np.concatenate(cols).tolist() == list(range(13))

    def test_more_shards_than_elements_rejected(self):
        with pytest.raises(ValueError):
            ShardingSpec.rows(8).shard_sections(7, 13)
        with pytest.raises(ValueError):
            ShardingSpec.columns(14).shard_sections(7, 13)

    def test_dict_round_trip(self):
        spec = ShardingSpec.grid(2, 3, reduction="tree")
        assert ShardingSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bogus"):
            ShardingSpec.from_dict({"row_shards": 2, "bogus": 1})

    def test_column_sections_partition_physical_columns(self):
        sections = ShardingSpec(1, 3).column_sections(14)
        assert [len(s) for s in sections] == [5, 5, 4]
        assert np.concatenate(sections).tolist() == list(range(14))
        with pytest.raises(ValueError):
            ShardingSpec(1, 15).column_sections(14)


class TestReducePartialSums:
    def test_sequential_and_tree_agree_to_precision(self, rng):
        partials = [rng.normal(size=(4, 5)) for _ in range(7)]
        seq = reduce_partial_sums(partials, "sequential")
        tree = reduce_partial_sums(partials, "tree")
        np.testing.assert_allclose(seq, tree, atol=1e-12)
        np.testing.assert_allclose(seq, np.sum(partials, axis=0), atol=1e-12)

    def test_single_partial_passes_through(self, rng):
        partial = rng.normal(size=(3,))
        assert reduce_partial_sums([partial], "tree") is partial

    def test_empty_and_bad_order_rejected(self):
        with pytest.raises(ValueError):
            reduce_partial_sums([])
        with pytest.raises(ValueError):
            reduce_partial_sums([np.zeros(2)], "bogus")


class TestBitIdentity:
    """Sharded vs single-tile: bitwise on exact arithmetic, 1e-10 otherwise."""

    @pytest.mark.parametrize("spec", GEOMETRIES, ids=lambda s: f"{s.row_shards}x{s.col_shards}-{s.reduction}")
    def test_exact_arithmetic_is_bit_identical(self, spec, rng):
        network = dyadic_network(rng)
        inputs = dyadic_inputs(rng, 9)
        single = CrossbarAccelerator(network, random_state=0)
        sharded = CrossbarAccelerator(network, sharding=spec, random_state=0)

        out_single, report_single = single.forward_with_power(inputs)
        out_sharded, report_sharded = sharded.forward_with_power(inputs)
        np.testing.assert_array_equal(out_sharded, out_single)
        np.testing.assert_array_equal(
            report_sharded.total_current, report_single.total_current
        )
        np.testing.assert_array_equal(sharded.forward(inputs), single.forward(inputs))

    @pytest.mark.parametrize("spec", GEOMETRIES, ids=lambda s: f"{s.row_shards}x{s.col_shards}-{s.reduction}")
    def test_trained_weights_match_to_reduction_precision(self, spec, rng):
        layer = Dense(13, 7, activation="softmax", use_bias=True, random_state=0)
        layer.set_weights(rng.normal(size=(7, 13)), bias=rng.normal(size=7))
        network = Sequential([layer])
        inputs = rng.uniform(0, 1, size=(9, 13))
        single = CrossbarAccelerator(network, random_state=0)
        sharded = CrossbarAccelerator(network, sharding=spec, random_state=0)

        np.testing.assert_allclose(sharded.forward(inputs), single.forward(inputs), atol=1e-10)
        np.testing.assert_allclose(
            _total_current(sharded, inputs), _total_current(single, inputs), rtol=1e-10
        )
        np.testing.assert_array_equal(
            sharded.predict_labels(inputs), single.predict_labels(inputs)
        )

    def test_column_conductance_sums_reassembled(self, rng):
        layer = Dense(13, 7, activation="linear", use_bias=True, random_state=0)
        single = CrossbarTile(layer, random_state=0)
        group = CrossbarTile(layer, sharding=ShardingSpec.grid(3, 2), random_state=0)
        # Same seed => same programming pass => identical devices, so the
        # reassembled column sums are bitwise equal (pure row-sum splits).
        assert group.column_conductance_sums.shape == (13,)
        np.testing.assert_allclose(
            group.column_conductance_sums, single.column_conductance_sums, rtol=1e-12
        )

    def test_probing_attack_unaffected_by_sharding(self, rng):
        """The paper's column-norm probe sees the same leak on sharded hardware."""
        layer = Dense(8, 5, activation="linear", random_state=0)
        network = Sequential([layer])
        single = CrossbarAccelerator(network, random_state=0)
        sharded = CrossbarAccelerator(network, sharding=ShardingSpec.grid(2, 2), random_state=0)
        def probe(acc):
            return ColumnNormProber(
                Oracle(acc), 8, measure_baseline=True
            ).probe_all()

        np.testing.assert_allclose(
            probe(sharded).column_sums, probe(single).column_sums, rtol=1e-10
        )


class TestShardedPowerAccounting:
    def test_per_tile_report_has_one_column_per_shard(self, rng):
        network = dyadic_network(rng)
        spec = ShardingSpec.grid(2, 3)
        accelerator = CrossbarAccelerator(network, sharding=spec, random_state=0)
        inputs = dyadic_inputs(rng, 5)
        _, report = accelerator.forward_with_power(inputs)
        assert report.per_tile_current.shape == (5, 6)
        assert report.tile_labels == (
            "layer0/r0c0", "layer0/r0c1", "layer0/r0c2",
            "layer0/r1c0", "layer0/r1c1", "layer0/r1c2",
        )
        np.testing.assert_allclose(
            report.per_tile_current.sum(axis=1), report.total_current, rtol=1e-12
        )

    def test_current_for_label_and_layer_prefix(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(
            network, sharding=ShardingSpec.columns(2), random_state=0
        )
        _, report = accelerator.forward_with_power(dyadic_inputs(rng, 4))
        shard0 = report.current_for("layer0/r0c0")
        shard1 = report.current_for("layer0/r0c1")
        np.testing.assert_allclose(shard0 + shard1, report.current_for("layer0"))
        with pytest.raises(KeyError):
            report.current_for("layer9")

    def test_unsharded_labels_and_report_unchanged(self, rng):
        network = Sequential(
            [Dense(10, 6, activation="relu", random_state=0), Dense(6, 3, random_state=1)]
        )
        accelerator = CrossbarAccelerator(network, random_state=0)
        _, report = accelerator.forward_with_power(rng.uniform(0, 1, size=(4, 10)))
        assert report.per_tile_current.shape == (4, 2)
        assert report.tile_labels == ("layer0", "layer1")
        np.testing.assert_allclose(report.current_for("layer1"), report.per_tile_current[:, 1])

    def test_read_noise_per_shard_accounting(self, rng):
        """Under read noise every shard draws its own realization, and the
        reported total is exactly the reduction of the per-shard columns."""
        layer = Dense(12, 6, activation="linear", random_state=0)
        network = Sequential([layer])
        mapping = ConductanceMapping(device=IDEAL_DEVICE.with_noise(read_noise=0.05))
        spec = ShardingSpec.grid(2, 2)
        accelerator = CrossbarAccelerator(
            network, mapping=mapping, sharding=spec, random_state=0
        )
        inputs = rng.uniform(0, 1, size=(5, 12))
        group = accelerator.tiles[0]
        before = group.n_array_realizations
        _, report_a = accelerator.forward_with_power(inputs)
        _, report_b = accelerator.forward_with_power(inputs)
        # one fresh realization per shard per traversal
        assert group.n_array_realizations == before + 2 * spec.n_shards
        assert not np.array_equal(report_a.per_tile_current, report_b.per_tile_current)
        for report in (report_a, report_b):
            columns = [report.per_tile_current[:, k] for k in range(spec.n_shards)]
            np.testing.assert_array_equal(
                reduce_partial_sums(columns, spec.reduction), report.total_current
            )

    def test_measurement_noise_applied_per_shard_rail(self, rng):
        layer = Dense(12, 6, activation="linear", random_state=0)
        network = Sequential([layer])
        noisy = NonidealityConfig(current_measurement_noise=0.05)
        accelerator = CrossbarAccelerator(
            network,
            nonidealities=noisy,
            sharding=ShardingSpec.columns(3),
            random_state=0,
        )
        inputs = rng.uniform(0, 1, size=(6, 12))
        a = _total_current(accelerator, inputs)
        b = _total_current(accelerator, inputs)
        assert not np.array_equal(a, b)  # independent per-rail noise draws

    def test_operation_counters_and_reset(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(
            network, sharding=ShardingSpec.grid(2, 2), random_state=0
        )
        accelerator.reset_operation_counters()
        accelerator.forward_with_power(dyadic_inputs(rng, 3))
        # fused path: every shard traversed exactly once per batch
        assert accelerator.n_array_operations == 4
        accelerator.reset_operation_counters()
        assert accelerator.n_array_operations == 0


#: Every registered preset geometry *and* non-divisible shapes; shards run
#: serially, and the wire-resistance gating tests sweep this matrix.
PRESET_AND_UNEVEN = [
    ShardingSpec.rows(2),       # sharded-rows-2
    ShardingSpec.columns(4),    # sharded-columns-4
    ShardingSpec.grid(2, 2),    # sharded-2x2
    ShardingSpec.grid(4, 4, reduction="tree"),  # sharded-4x4-tree
    ShardingSpec.grid(3, 2),    # non-divisible rows
    ShardingSpec.grid(2, 3, reduction="tree"),  # non-divisible cols, tree
]


class TestShardRunners:
    @pytest.mark.parametrize(
        "spec",
        PRESET_AND_UNEVEN,
        ids=lambda s: f"{s.row_shards}x{s.col_shards}-{s.reduction}",
    )
    def test_seeded_traverse_is_row_keyed(self, spec, rng):
        """Outputs, shard rails and layer current come from one pass.

        With per-row seeds every stochastic draw (read noise, rail noise) is
        keyed on the row, so a repeated or rail-free traversal must agree
        bitwise with the first, and each row must equal the same row
        traversed alone.
        """
        layer = Dense(13, 7, activation="softmax", use_bias=True, random_state=0)
        layer.set_weights(rng.normal(size=(7, 13)), bias=rng.normal(size=7))
        tile = CrossbarTile(
            layer,
            sharding=spec,
            mapping=ConductanceMapping(device=IDEAL_DEVICE.with_noise(read_noise=0.05)),
            nonidealities=NonidealityConfig(current_measurement_noise=0.05),
            random_state=0,
        )
        inputs = rng.uniform(0, 1, size=(6, 13))
        seeds = derive_request_seeds(0, 0, 6)
        outputs, shard_currents = tile.traverse(inputs, seeds)
        assert len(shard_currents) == tile.n_physical_tiles
        np.testing.assert_array_equal(
            tile.traverse(inputs, seeds, want_currents=False)[0], outputs
        )
        np.testing.assert_array_equal(
            reduce_partial_sums(tile.traverse(inputs, seeds)[1], spec.reduction),
            reduce_partial_sums(shard_currents, spec.reduction),
        )
        row_out, row_currents = tile.traverse(inputs[2:3], seeds[2:3])
        np.testing.assert_array_equal(row_out[0], outputs[2])
        for alone, batched in zip(row_currents, shard_currents):
            assert alone[0] == batched[2]


class TestAcceleratorShardingArgument:
    def test_per_layer_sharding_sequence(self, rng):
        network = Sequential(
            [Dense(12, 8, activation="relu", random_state=0), Dense(8, 3, random_state=1)]
        )
        accelerator = CrossbarAccelerator(
            network, sharding=[ShardingSpec.grid(2, 2), None], random_state=0
        )
        assert accelerator.tiles[0].sharding == ShardingSpec.grid(2, 2)
        assert accelerator.tiles[0].shard_shapes == [(4, 6)] * 4
        assert accelerator.tiles[1].sharding.is_trivial
        assert accelerator.tiles[1].shard_shapes == [(3, 8)]
        assert accelerator.n_tiles == 2
        assert accelerator.n_physical_tiles == 5
        assert accelerator.tile_labels == (
            "layer0/r0c0", "layer0/r0c1", "layer0/r1c0", "layer0/r1c1", "layer1",
        )
        reference = CrossbarAccelerator(network, random_state=0)
        inputs = rng.uniform(0, 1, size=(4, 12))
        np.testing.assert_allclose(
            accelerator.forward(inputs), reference.forward(inputs), atol=1e-10
        )

    def test_wrong_length_sequence_rejected(self, rng):
        network = Sequential([Dense(8, 4, random_state=0)])
        with pytest.raises(ValueError, match="1 entries"):
            CrossbarAccelerator(network, sharding=[None, ShardingSpec.rows(2)])

    def test_trivial_spec_builds_plain_tiles(self):
        network = Sequential([Dense(8, 4, random_state=0)])
        accelerator = CrossbarAccelerator(network, sharding=ShardingSpec(), random_state=0)
        tile = accelerator.tiles[0]
        assert tile.sharding.is_trivial
        assert tile.n_physical_tiles == 1
        assert tile.shard_shapes == [(4, 8)]

    def test_tile_geometry(self):
        layer = Dense(8, 4, random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        assert tile.sharding.is_trivial
        assert tile.n_physical_tiles == 1
        assert tile.shard_shapes == [(4, 8)]
        group = CrossbarTile(layer, sharding=ShardingSpec.rows(2), random_state=0)
        assert group.sharding == ShardingSpec.rows(2)
        assert group.n_physical_tiles == 2
        assert group.shard_shapes == [(2, 8), (2, 8)]


class TestOraclePerTileObservables:
    def test_per_tile_power_exposed(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(
            network, sharding=ShardingSpec.grid(2, 2), random_state=0
        )
        oracle = Oracle(accelerator, expose_power=True, expose_per_tile_power=True)
        response = oracle.query(dyadic_inputs(rng, 6))
        assert response.per_tile_power.shape == (6, 4)
        assert response.metadata["tile_labels"] == accelerator.tile_labels
        np.testing.assert_allclose(
            response.per_tile_power.sum(axis=1), response.power, rtol=1e-12
        )

    def test_per_tile_power_off_by_default(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(network, random_state=0)
        response = Oracle(accelerator).query(dyadic_inputs(rng, 3))
        assert response.per_tile_power is None

    def test_requires_expose_power(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(network, random_state=0)
        with pytest.raises(ValueError, match="expose_power"):
            Oracle(accelerator, expose_power=False, expose_per_tile_power=True)


class TestWireResistance:
    """The 2-D IR-drop nonideality: exact-zero gating, geometry dependence."""

    WIRED = NonidealityConfig(wire_resistance_ohm=1e-3)

    def test_config_validation(self):
        assert NonidealityConfig().is_ideal
        assert not self.WIRED.is_ideal
        with pytest.raises(ValueError):
            NonidealityConfig(wire_resistance_ohm=-1e-3)

    @pytest.mark.parametrize(
        "spec",
        [None] + PRESET_AND_UNEVEN,
        ids=lambda s: "mono" if s is None else f"{s.row_shards}x{s.col_shards}-{s.reduction}",
    )
    def test_zero_ohm_is_bitwise_the_old_engine(self, spec, rng):
        """wire_resistance_ohm=0.0 must not perturb a single bit."""
        network = dyadic_network(rng)
        inputs = dyadic_inputs(rng, 6)
        old = CrossbarAccelerator(network, sharding=spec, random_state=0)
        gated = CrossbarAccelerator(
            network,
            sharding=spec,
            nonidealities=NonidealityConfig(wire_resistance_ohm=0.0),
            random_state=0,
        )
        out_old, report_old = old.forward_with_power(inputs)
        out_gated, report_gated = gated.forward_with_power(inputs)
        np.testing.assert_array_equal(out_gated, out_old)
        np.testing.assert_array_equal(
            report_gated.per_tile_current, report_old.per_tile_current
        )

    def test_nonzero_ohm_droops_current(self, rng):
        network = dyadic_network(rng)
        inputs = dyadic_inputs(rng, 6)
        ideal = CrossbarAccelerator(network, random_state=0)
        wired = CrossbarAccelerator(network, nonidealities=self.WIRED, random_state=0)
        # positive drive voltages, non-negative conductances: droop strictly
        # reduces the measured supply current
        assert np.all(_total_current(wired, inputs) < _total_current(ideal, inputs))

    def test_fused_path_consistent_under_wire_resistance(self, rng):
        network = dyadic_network(rng)
        inputs = dyadic_inputs(rng, 5)
        wired = CrossbarAccelerator(network, nonidealities=self.WIRED, random_state=0)
        out_fused, report = wired.forward_with_power(inputs)
        np.testing.assert_array_equal(out_fused, wired.forward(inputs))
        np.testing.assert_array_equal(
            report.total_current, wired.tiles[0].traverse(inputs)[1][0]
        )

    def test_droop_is_geometry_dependent(self, rng):
        """Smaller shards mean shorter wires: column splits of a wide layer
        shorten its row wires and recover the ideal physics."""
        layer = Dense(64, 8, activation="linear", random_state=0)
        layer.set_weights(rng.normal(size=(8, 64)))
        network = Sequential([layer])
        inputs = rng.uniform(0, 1, size=(6, 64))

        def droop_error(sharding):
            ideal = CrossbarAccelerator(network, sharding=sharding, random_state=0)
            wired = CrossbarAccelerator(
                network, sharding=sharding, nonidealities=self.WIRED, random_state=0
            )
            return np.max(
                np.abs(_total_current(wired, inputs) - _total_current(ideal, inputs))
            )

        err_mono = droop_error(None)
        err_cols = droop_error(ShardingSpec.columns(4))
        assert err_mono > err_cols > 0.0


class TestPerShardProbing:
    """The shard-aware attack: per-rail estimates vs the whole-rail probe."""

    def _column_sums(self, accelerator):
        return accelerator.tiles[0].column_conductance_sums

    def test_requires_per_tile_oracle(self, rng):
        network = dyadic_network(rng)
        accelerator = CrossbarAccelerator(network, random_state=0)
        with pytest.raises(ValueError, match="expose_per_tile_power"):
            PerShardProber(Oracle(accelerator, expose_power=True), 13)

    def test_noiseless_estimates_recover_column_sums(self, rng):
        layer = Dense(12, 6, activation="linear", random_state=0)
        network = Sequential([layer])
        spec = ShardingSpec.grid(2, 3)
        accelerator = CrossbarAccelerator(network, sharding=spec, random_state=0)
        oracle = Oracle(accelerator, expose_power=True, expose_per_tile_power=True)
        result = PerShardProber(oracle, 12).probe_all()
        assert result.grid == (2, 3)
        assert result.n_rails == 6
        assert result.queries_used == 13  # baseline + one probe per column
        true_sums = self._column_sums(accelerator)
        np.testing.assert_allclose(result.per_shard_norms, true_sums, rtol=1e-9)
        np.testing.assert_allclose(result.whole_rail_norms, true_sums, rtol=1e-9)

    def test_unsharded_target_estimates_coincide(self, rng):
        network = Sequential([Dense(10, 5, activation="linear", random_state=0)])
        accelerator = CrossbarAccelerator(network, random_state=0)
        oracle = Oracle(accelerator, expose_power=True, expose_per_tile_power=True)
        result = PerShardProber(oracle, 10).probe_all()
        assert result.grid == (1, 1)
        np.testing.assert_array_equal(
            result.per_shard_norms, result.whole_rail_norms
        )

    def test_bias_column_cancels_out(self, rng):
        layer = Dense(12, 6, activation="linear", use_bias=True, random_state=0)
        layer.set_weights(rng.normal(size=(6, 12)), bias=rng.normal(size=6))
        network = Sequential([layer])
        spec = ShardingSpec.columns(3)
        accelerator = CrossbarAccelerator(network, sharding=spec, random_state=0)
        oracle = Oracle(accelerator, expose_power=True, expose_per_tile_power=True)
        result = PerShardProber(oracle, 12, has_bias_column=True).probe_all()
        np.testing.assert_allclose(
            result.per_shard_norms, self._column_sums(accelerator), rtol=1e-9
        )

    def test_per_shard_beats_whole_rail_on_sharded_preset(self, trained_softmax):
        """Acceptance: on a noisy sharded victim the per-shard attacker's
        estimates are strictly closer to the truth than the whole-rail ones.

        Both estimates come from the same queries and noise realizations;
        the per-shard win is statistical (each rail's noise scales with its
        own, smaller current), so the comparison averages a dozen fully
        deterministic probe sessions instead of betting on one draw.
        """
        spec = get_scenario("sharded-rows-2")
        accelerator = spec.build_accelerator(trained_softmax, random_state=0)
        n_inputs = trained_softmax.layers[0].n_inputs
        true_sums = self._column_sums(accelerator)
        errors = {"per_shard": [], "whole_rail": []}
        for session in range(12):
            oracle = Oracle(
                accelerator,
                expose_power=True,
                expose_per_tile_power=True,
                power_noise_std=0.1,
                random_state=np.random.default_rng([session, 0xAB]),
            )
            result = PerShardProber(oracle, n_inputs).probe_all()
            assert result.grid == (2, 1)
            errors["per_shard"].append(
                np.linalg.norm(result.per_shard_norms - true_sums)
            )
            errors["whole_rail"].append(
                np.linalg.norm(result.whole_rail_norms - true_sums)
            )
        assert np.mean(errors["per_shard"]) < np.mean(errors["whole_rail"])


class TestTileLabelHelpers:
    def test_parse_tile_label(self):
        assert parse_tile_label("layer0") == (0, None)
        assert parse_tile_label("layer3/r1c2") == (3, (1, 2))
        for bad in ("layer", "layerx", "layer0/r1", "layer0/r1c2x", "r1c2"):
            with pytest.raises(ValueError):
                parse_tile_label(bad)

    def test_layer_rail_grid(self):
        labels = (
            "layer0/r0c0", "layer0/r0c1", "layer0/r1c0", "layer0/r1c1", "layer1",
        )
        grid, columns = layer_rail_grid(labels, 0)
        assert grid == (2, 2)
        assert columns.tolist() == [[0, 1], [2, 3]]
        grid1, columns1 = layer_rail_grid(labels, 1)
        assert grid1 == (1, 1)
        assert columns1.tolist() == [[4]]
        with pytest.raises(KeyError):
            layer_rail_grid(labels, 9)
        with pytest.raises(ValueError):
            layer_rail_grid(("layer0/r0c0", "layer0/r1c1"), 0)  # holes


class TestShardedScenarios:
    def test_presets_registered(self):
        for name in ("sharded-rows-2", "sharded-columns-4", "sharded-2x2", "sharded-4x4-tree"):
            spec = get_scenario(name)
            assert spec.sharding is not None and not spec.sharding.is_trivial
            assert not spec.is_paper_ideal
        assert get_scenario("sharded-2x2").sharding == ShardingSpec.grid(2, 2)

    def test_spec_validation_and_serialization(self):
        spec = ScenarioSpec(name="t", sharding=ShardingSpec.columns(2))
        payload = spec.to_dict()
        assert payload["sharding"] == {"row_shards": 1, "col_shards": 2, "reduction": "sequential"}
        assert json.dumps(payload)  # JSON-serialisable end to end
        with pytest.raises(TypeError):
            ScenarioSpec(name="bad", sharding="2x2")

    def test_dict_sharding_coerced(self):
        spec = ScenarioSpec(
            name="t",
            sharding={"row_shards": 2, "col_shards": 3, "reduction": "tree"},
        )
        assert spec.sharding == ShardingSpec.grid(2, 3, reduction="tree")
        tupled = ScenarioSpec(name="t2", sharding=(2, 3, "tree"))
        assert tupled.sharding == spec.sharding

    def test_dict_sharding_carries_wire_physics(self):
        """The dict form folds wire knobs into the nonideality config."""
        spec = ScenarioSpec(
            name="t",
            sharding={"row_shards": 2, "col_shards": 1, "wire_resistance_ohm": 2e-3},
        )
        assert spec.sharding == ShardingSpec.rows(2)
        assert spec.nonidealities.wire_resistance_ohm == 2e-3
        # only the wire knobs are accepted: a near-miss spelling is refused
        with pytest.raises(ValueError, match="wire_resistance"):
            ScenarioSpec(name="t2", sharding={"row_shards": 2, "wire_resistance": 2e-3})

    def test_dict_sharding_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="copper_grade"):
            ScenarioSpec(name="bad", sharding={"row_shards": 2, "copper_grade": 9})

    def test_wired_crossbar_preset_registered(self):
        spec = get_scenario("wired-crossbar")
        assert spec.nonidealities.wire_resistance_ohm > 0
        assert spec.measurement_noise > 0
        assert not spec.is_paper_ideal

    def test_build_accelerator_applies_sharding(self, trained_softmax):
        spec = SCENARIOS["sharded-2x2"]
        accelerator = spec.build_accelerator(trained_softmax, random_state=0)
        assert all(tile.sharding == ShardingSpec.grid(2, 2) for tile in accelerator.tiles)
        assert accelerator.n_physical_tiles == 4 * accelerator.n_tiles

    @pytest.mark.experiments
    def test_sharded_scenario_runs_through_registry(self):
        """End-to-end: a sharded preset through run_experiments (smoke-)."""
        from repro.experiments import run_experiments
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="tiny",
            n_train=120,
            n_test=40,
            n_runs=1,
            train_epochs=2,
            query_counts=(5,),
            attack_strengths=(0.0, 5.0),
            power_loss_weights=(0.0,),
            surrogate_epochs=10,
        )
        results = run_experiments(["table1"], tiny, scenarios=["sharded-2x2"], base_seed=0)
        result = results["table1"]
        assert len(result.sweep) == 1
        assert result.sweep.runs[0].metadata["scenario"] == "sharded-2x2"


class TestRegressionScriptFlags:
    """CI-facing behaviour of scripts/check_bench_regression.py."""

    @staticmethod
    def _load_script():
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression_for_tests",
            REPO_ROOT / "scripts" / "check_bench_regression.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _passing_results():
        return {
            "engine": {
                "oracle_query": [{"batch_size": 16, "speedup": 2.5}],
                "array_ops_per_power_query_batch": 1,
            },
            "bench_sharding": {
                "geometries": [
                    {"geometry": "grid-2x2", "single_s": 1.0, "sharded_s": 1.1, "ratio": 1.1}
                ],
            },
        }

    def test_sharding_gate_fails_on_slow_ratio(self):
        check = self._load_script()
        results = self._passing_results()
        assert check.check_results(results) == []
        results["bench_sharding"]["geometries"][0]["ratio"] = 1.5
        failures = check.check_results(results)
        assert failures and any("sharded forward" in f for f in failures)

    def test_legacy_process_parallel_entry_ignored(self):
        """Records written before the shard-runner removal still pass."""
        check = self._load_script()
        results = self._passing_results()
        results["bench_sharding"]["process_parallel"] = {
            "geometry": "rows-4",
            "serial_s": 1.0,
            "process_s": 10.0,
            "speedup": 0.1,
            "outputs_identical": True,
        }
        assert check.check_results(results) == []

    def test_legacy_backends_entry_ignored(self):
        """Records written with a compute-backend section still pass."""
        check = self._load_script()
        results = self._passing_results()
        results["engine"]["backends"] = {
            "entries": [
                {
                    "backend": "numpy",
                    "dtype": "float64",
                    "rows": [{"batch_size": 16, "speedup_vs_reference": 0.1}],
                    "peak_speedup_vs_reference": 0.1,
                }
            ],
            "skipped": ["torch"],
        }
        assert check.check_results(results) == []

    def test_thresholds_gate_no_backend_ratio(self):
        """Every threshold gates a recorded section; none compares backends."""
        check = self._load_script()
        assert sorted(check.DEFAULT_THRESHOLDS) == [
            "max_sharded_ratio",
            "max_tenant_overhead",
            "min_net_speedup",
            "min_peak_speedup",
            "min_probing_speedup",
            "min_service_speedup",
            "min_speedup",
        ]

    def test_tolerance_relaxes_thresholds(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_sharding"]["geometries"][0]["ratio"] = 1.3
        assert check.check_results(results)  # fails at the default 1.2 gate
        assert check.check_results(results, tolerance=0.10) == []
        with pytest.raises(TypeError):
            check.check_results(results, bogus_threshold=1.0)

    def test_json_out_report(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(self._passing_results()))
        report_path = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
                "--path", str(path),
                "--min-peak-speedup", "2.0",
                "--json-out", str(report_path),
                "--tolerance", "0.05",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["tolerance"] == 0.05
        assert "bench_sharding" in report["checked_sections"]
        assert report["effective_thresholds"]["max_sharded_ratio"] == pytest.approx(1.26)

    def test_negative_tolerance_rejected(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
                "--tolerance", "-0.1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
