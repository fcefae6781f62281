"""Equivalence suite for the fused single-pass simulation engine.

Asserts that the fused/cached/batched paths introduced by the engine refactor
are *observably identical* to the legacy separate/uncached/per-sample paths:

* the accelerator's fused ``forward_with_power`` == its ``forward`` plus
  separate per-tile power passes, bit-for-bit on deterministic (ideal)
  arrays;
* for every scenario preset, power-exposed and power-blind oracle queries
  return bit-identical outputs, seeded and unseeded;
* cached vs uncached array traversals agree across all mapping schemes and
  non-ideality configurations;
* batched oracle queries and batched basis-vector probing equal their
  per-sample/per-column reference loops under a fixed seed;
* a power-exposed oracle query traverses the accelerator exactly once per
  batch (the tile-level operation counter), while the legacy two-pass engine
  needed three traversals per tile.
"""

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.array import CrossbarArray
from repro.crossbar.devices import IDEAL_DEVICE, NVMDeviceModel
from repro.crossbar.mapping import (
    ConductanceMapping,
    MappingScheme,
    reduce_partial_sums,
)
from repro.crossbar.nonidealities import NonidealityConfig
from repro.experiments.config import SCALES
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import get_scenario, list_scenarios
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.sidechannel.probing import ColumnNormProber
from repro.utils.rng import derive_request_seeds

NONIDEALITY_CONFIGS = {
    "ideal": NonidealityConfig(),
    "stuck": NonidealityConfig(stuck_at_off_fraction=0.05, stuck_at_on_fraction=0.02),
    "ir_drop": NonidealityConfig(wire_resistance_ohm=0.01),
    "drift": NonidealityConfig(temperature_drift=0.02),
}


def make_array(weights, *, scheme=MappingScheme.MIN_POWER, device=IDEAL_DEVICE,
               nonidealities=None, seed=0):
    return CrossbarArray(
        weights,
        mapping=ConductanceMapping(device=device, scheme=scheme),
        nonidealities=nonidealities,
        random_state=seed,
    )


def make_accelerator(n_inputs=12, hidden=6, n_outputs=4, *, seed=0):
    network = Sequential(
        [
            Dense(n_inputs, hidden, activation="relu", random_state=seed),
            Dense(hidden, n_outputs, activation="softmax", random_state=seed + 1),
        ]
    )
    return CrossbarAccelerator(network, random_state=seed)


class TestFusedMatchesSeparate:
    """(a) fused outputs+power == separate passes, bit-for-bit when ideal."""

    def test_accelerator_fused_equals_separate(self, rng):
        accelerator = make_accelerator()
        batch = rng.uniform(0, 1, size=(5, 12))
        outputs, report = accelerator.forward_with_power(batch)
        np.testing.assert_array_equal(outputs, accelerator.forward(batch))
        legacy, activations = [], batch  # the separate per-tile passes
        for tile in accelerator.tiles:
            _, shard_currents = tile.traverse(activations)
            legacy.append(reduce_partial_sums(shard_currents, tile.sharding.reduction))
            activations, _ = tile.traverse(activations, want_currents=False)
        np.testing.assert_array_equal(report.total_current, np.sum(legacy, axis=0))
        np.testing.assert_array_equal(report.per_tile_current, np.stack(legacy, axis=1))
        assert report.per_tile_current.shape == (5, accelerator.n_tiles)

    def test_fused_consistent_under_read_noise(self):
        """With read noise, outputs and power come from ONE realization."""
        weights = np.random.default_rng(0).normal(size=(6, 10))
        device = IDEAL_DEVICE.with_noise(read_noise=0.05)
        array = make_array(weights, device=device, seed=7)
        u = np.full((1, 10), 0.5)
        outputs, total = array.traverse(u)
        # The realised conductances satisfy both observables simultaneously:
        # i_s = G_eff v and i_total = G_sums v must be reproducible from one
        # consistent state.  With two independent reads (legacy) the chance of
        # agreement is nil; here we verify internal consistency by checking
        # the fused call realised exactly one state.
        assert array.n_realizations == 1
        assert array.n_operations == 1
        # Separate calls realise separate states (no caching under noise).
        array.traverse(u, want_totals=False)
        array.traverse(u)
        assert array.n_realizations == 3


class TestPowerExposureLeavesOutputs:
    """Reading the rail never changes what the victim computes.

    For every scenario preset, a power-exposed query and a power-blind one
    on fresh accelerators return bit-identical outputs: seeded, and on the
    first unseeded query (before the two generators' histories diverge).
    """

    @staticmethod
    def _victim(name):
        spec = get_scenario(name)
        scale = SCALES["smoke"]
        dataset = prepare_dataset(spec.dataset, scale, random_state=0)
        network = spec.build_victim(dataset, scale, random_state=0).network
        return spec, network, dataset.test_inputs[:8]

    @pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_outputs_match_with_and_without_power(self, name, seeded):
        spec, network, inputs = self._victim(name)
        seeds = derive_request_seeds(0, 0, len(inputs)) if seeded else None
        outputs = [
            Oracle(
                spec.build_accelerator(network, random_state=0),
                expose_power=expose_power,
            ).query(inputs, seeds=seeds).outputs
            for expose_power in (False, True)
        ]
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestStateCache:
    """(b) cached vs uncached agreement across schemes and configs."""

    @pytest.mark.parametrize("scheme", list(MappingScheme))
    @pytest.mark.parametrize("config_name", sorted(NONIDEALITY_CONFIGS))
    def test_cached_matvec_matches_fresh_array(self, rng, scheme, config_name):
        weights = rng.normal(size=(6, 9))
        config = NONIDEALITY_CONFIGS[config_name]
        cached = make_array(weights, scheme=scheme, nonidealities=config, seed=11)
        fresh = make_array(weights, scheme=scheme, nonidealities=config, seed=11)
        voltages = rng.uniform(0, 1, size=(4, 9))

        cached.traverse(voltages, want_totals=False)  # populate the cache
        assert cached.n_realizations == 1
        warm, _ = cached.traverse(voltages, want_totals=False)
        assert cached.n_realizations == 1  # second call hit the cache
        cold, _ = fresh.traverse(voltages, want_totals=False)
        np.testing.assert_array_equal(warm, cold)
        np.testing.assert_array_equal(
            cached.traverse(voltages)[1], fresh.traverse(voltages)[1]
        )

    @pytest.mark.parametrize("scheme", list(MappingScheme))
    def test_cache_bypassed_with_read_noise(self, rng, scheme):
        weights = rng.normal(size=(5, 7))
        array = make_array(
            weights, scheme=scheme, device=IDEAL_DEVICE.with_noise(read_noise=0.03)
        )
        u = rng.uniform(0, 1, size=(1, 7))
        array.traverse(u, want_totals=False)
        array.traverse(u, want_totals=False)
        assert array.n_realizations == 2

    def test_cache_with_measurement_noise_still_draws_fresh_noise(self, rng):
        weights = rng.normal(size=(5, 7))
        config = NonidealityConfig(current_measurement_noise=0.05)
        array = make_array(weights, nonidealities=config)
        u = np.full((1, 7), 0.8)
        readings = np.array([array.traverse(u)[1][0] for _ in range(20)])
        assert array.n_realizations == 1  # effective state cached
        assert readings.std() > 0  # but measurement noise is per-read

    def test_rebinding_conductances_invalidates_cache(self, rng):
        weights = rng.normal(size=(4, 6))
        array = make_array(weights)
        u = np.full((1, 6), 1.0)
        before = array.traverse(u)[1][0]
        array.g_plus = array.g_plus * 2.0  # rebind -> auto-invalidation
        after = array.traverse(u)[1][0]
        assert after != before
        assert array.n_realizations == 2

    def test_in_place_mutation_requires_explicit_invalidation(self, rng):
        weights = np.abs(rng.normal(size=(4, 6)))
        array = make_array(weights)
        u = np.full((1, 6), 1.0)
        before = array.traverse(u)[1][0]
        array.g_plus *= 2.0  # in-place: the cache cannot see this
        assert array.traverse(u)[1][0] == before
        array.invalidate_state_cache()
        assert array.traverse(u)[1][0] != before


class TestBatchedEqualsLoop:
    """(c) batched oracle/probing == per-sample loops under a fixed seed."""

    def test_batched_oracle_query_equals_per_sample_loop(self, rng):
        accelerator = make_accelerator(seed=2)
        oracle = Oracle(accelerator, expose_power=True, random_state=0)
        batch = rng.uniform(0, 1, size=(9, 12))
        batched = oracle.query(batch)
        singles = [oracle.query(sample) for sample in batch]
        # allclose (not array_equal): BLAS may round gemm vs gemv differently.
        np.testing.assert_allclose(
            batched.outputs, np.concatenate([s.outputs for s in singles]), atol=1e-12
        )
        np.testing.assert_array_equal(
            batched.labels, np.concatenate([s.labels for s in singles])
        )
        np.testing.assert_allclose(
            batched.power, np.concatenate([s.power for s in singles]), atol=1e-12
        )
        assert oracle.queries_used == 18

    def test_batched_probing_equals_per_column_loop(self, rng):
        weights = rng.normal(size=(5, 8))
        device = NVMDeviceModel(name="offset", g_min=0.05, g_max=1.0)
        layer = Dense(8, 5, activation="linear", random_state=0)
        layer.set_weights(weights)
        accelerator = CrossbarAccelerator(
            Sequential([layer]), mapping=ConductanceMapping(device=device), random_state=0
        )

        def probe(batched):
            prober = ColumnNormProber(
                Oracle(accelerator, random_state=0), 8, measure_baseline=True, batched=batched
            )
            return prober.probe_all()

        batched, looped = probe(True), probe(False)
        np.testing.assert_allclose(batched.column_sums, looped.column_sums, atol=1e-12)
        assert batched.baseline == pytest.approx(looped.baseline)
        assert batched.queries_used == looped.queries_used == 9


class TestSingleTraversalAccounting:
    """Acceptance criterion: one traversal per power-exposed query batch."""

    def test_power_query_is_single_pass(self, rng):
        accelerator = make_accelerator(seed=5)
        oracle = Oracle(accelerator, expose_power=True, random_state=0)
        accelerator.reset_operation_counters()
        oracle.query(rng.uniform(0, 1, size=(16, 12)))
        # One op per tile for the whole batch — not one per tile per channel.
        for tile in accelerator.tiles:
            assert tile.n_array_operations == 1
        assert accelerator.n_array_operations == accelerator.n_tiles

    def test_legacy_two_pass_costs_three_ops_per_tile(self, rng):
        """The seed engine: forward (1) + power_trace (2) per tile."""
        accelerator = make_accelerator(seed=5)
        batch = rng.uniform(0, 1, size=(4, 12))
        accelerator.reset_operation_counters()
        accelerator.forward(batch)
        activations = batch
        for tile in accelerator.tiles:  # the seed power_trace body
            tile.traverse(activations)
            activations, _ = tile.traverse(activations, want_currents=False)
        for tile in accelerator.tiles:
            assert tile.n_array_operations == 3

    def test_label_only_query_is_single_pass_too(self, rng):
        accelerator = make_accelerator(seed=5)
        oracle = Oracle(
            accelerator, output_mode="label", expose_power=False, random_state=0
        )
        accelerator.reset_operation_counters()
        oracle.query(rng.uniform(0, 1, size=(8, 12)))
        assert accelerator.n_array_operations == accelerator.n_tiles
