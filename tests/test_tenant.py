"""Multi-tenant placement, rail-ledger, and cross-tenant attack suite.

The coalescing service's multi-tenant contract has two halves, and this
module pins both:

* **Bit-identity** — tenancy and placement decide *which rows ride
  together*, never the physics: every response is byte-for-byte what the
  same request would have produced alone (the grouping half of the contract
  lives in ``test_batch_invariance.py``'s mixed-tenant class).
* **The side channel is real and the defences order correctly** — a
  co-resident attacker recovers victim column norms from shared-tick rail
  power under ``shared`` placement, recovers strictly less under
  ``partitioned``, and nothing at all under ``tile-isolated``; the
  ``noise_budget`` dummy draw degrades recovery without touching responses.
"""

import asyncio
import gc
import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.experiments.config import (
    SCALES,
    TENANT_PRESET_CONFIGS,
    TENANT_SWEEP_GRIDS,
)
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.scenario import get_scenario, list_scenarios
from repro.experiments.sweep import SWEEPS, SweepSpec
from repro.netservice.server import TenantServiceStats
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.service import QueryService, ServiceConfig, coalescer
from repro.service.coalescer import _Pending
from repro.sidechannel.coresident import (
    estimate_victim_norms,
    run_coresident_attack,
    visible_ticks,
)
from repro.sidechannel import QueryBudgetExceeded
from repro.utils.rng import derive_request_seeds

pytestmark = pytest.mark.tenant

N_FEATURES = 12
N_CLASSES = 4


def _network():
    return Sequential(
        [Dense(N_FEATURES, N_CLASSES, activation="softmax", random_state=0)]
    )


def _oracle(**kwargs):
    kwargs.setdefault("expose_power", True)
    return Oracle(_network(), random_state=0, **kwargs)


def _rows(n, seed=3):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, N_FEATURES))


def _config(**kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_ms", 50.0)
    return ServiceConfig(**kwargs)


def _serve(config, submissions, target=None):
    """Submit ``(tenant, row)`` pairs concurrently; return (results, service).

    Each entry becomes one single-row ``submit_traced`` call; the calls are
    gathered in list order, so request ids (and therefore noise seeds) are
    deterministic across runs and placement policies.
    """
    backend = target if target is not None else _oracle()

    async def drive():
        async with QueryService(backend, config) as service:
            results = await asyncio.gather(
                *(
                    service.submit_traced(row[np.newaxis, :], tenant=tenant)
                    for tenant, row in submissions
                )
            )
        return results, service

    return asyncio.run(drive())


def _interleaved(tenants, rows_per_tenant, seed=3):
    rows = _rows(rows_per_tenant * len(tenants), seed=seed)
    return [
        (tenants[i % len(tenants)], rows[i])
        for i in range(rows_per_tenant * len(tenants))
    ]


class TestPlacementGrouping:
    """The placement policy governs tick composition, nothing else."""

    def test_shared_mixes_tenants(self):
        _, service = _serve(
            _config(placement="shared"), _interleaved(("alice", "bob"), 6)
        )
        assert any(len(tick.tenants) > 1 for tick in service.tick_trace)

    def test_partitioned_never_mixes_and_still_coalesces(self):
        _, service = _serve(
            _config(placement="partitioned"), _interleaved(("alice", "bob"), 6)
        )
        assert service.tick_trace  # traffic was actually served
        assert all(len(tick.tenants) == 1 for tick in service.tick_trace)
        # same-tenant rows still ride together: isolation is not unbatching
        assert any(tick.rows > 1 for tick in service.tick_trace)

    def test_full_group_dispatches_alone_mid_round(self):
        """A flooding tenant's full groups peel off as their own ticks."""
        submissions = [("attacker", row) for row in _rows(8)]
        submissions.append(("victim", _rows(1, seed=9)[0]))
        _, service = _serve(_config(placement="partitioned", max_batch=4), submissions)
        attacker_ticks = [
            tick for tick in service.tick_trace if tick.tenants == ("attacker",)
        ]
        assert sum(1 for tick in attacker_ticks if tick.rows == 4) == 2
        assert all(len(tick.tenants) == 1 for tick in service.tick_trace)
        assert sum(
            tick.rows for tick in service.tick_trace if "victim" in tick.tenants
        ) == 1

    def test_tile_isolated_sets_bank_and_visibility(self):
        _, service = _serve(
            _config(placement="tile-isolated"), _interleaved(("alice", "bob"), 4)
        )
        assert service.tick_trace
        for tick in service.tick_trace:
            assert len(tick.tenants) == 1
            assert tick.bank == tick.tenants[0]
            assert tick.visible_to(tick.bank)
            other = "bob" if tick.bank == "alice" else "alice"
            assert not tick.visible_to(other)
        alice_view = visible_ticks(service.tick_trace, "alice")
        assert alice_view
        assert all(tick.bank == "alice" for tick in alice_view)

    def test_shared_bank_is_visible_to_every_tenant(self):
        _, service = _serve(
            _config(placement="shared"), _interleaved(("alice", "bob"), 4)
        )
        for tick in service.tick_trace:
            assert tick.bank is None
            assert tick.visible_to("alice")
            assert tick.visible_to("bob")
            assert tick.visible_to(None)

    def test_responses_bit_identical_across_placements(self):
        """Placement only regroups rows; every response stays byte-identical.

        Uses an accelerator-backed oracle: the bitwise batch-invariance
        guarantee belongs to the accelerator traversal (pinned per scenario
        in ``test_batch_invariance.py``), and placement changes batch
        composition, which is exactly what that guarantee covers.
        """
        submissions = _interleaved(("alice", "bob"), 5)
        reference = None
        for placement in ("shared", "partitioned", "tile-isolated"):
            target = get_scenario("paper/mnist-softmax").build_accelerator(
                _network(), random_state=0
            )
            results, _ = _serve(
                _config(placement=placement),
                submissions,
                target=Oracle(target, expose_power=True, random_state=0),
            )
            if reference is None:
                reference = results
                continue
            for (ref_id, ref), (got_id, got) in zip(reference, results):
                assert ref_id == got_id
                np.testing.assert_array_equal(ref.outputs, got.outputs)
                np.testing.assert_array_equal(ref.power, got.power)
                np.testing.assert_array_equal(ref.labels, got.labels)


class TestRailLedger:
    """The tick ledger records the physical rail, outside every response."""

    def test_rail_power_sums_batch_mates(self):
        rows = _rows(10)
        tick_of = {}

        async def drive():
            async with QueryService(_oracle(), _config()) as service:
                def recorder(index):
                    return lambda tick_id: tick_of.__setitem__(index, tick_id)

                results = await asyncio.gather(
                    *(
                        service.submit_traced(
                            row[np.newaxis, :],
                            tenant="alice",
                            on_dispatch=recorder(index),
                        )
                        for index, row in enumerate(rows)
                    )
                )
            return results, service

        results, service = asyncio.run(drive())
        for tick in service.tick_trace:
            members = [
                float(results[index][1].power[0])
                for index, tick_id in tick_of.items()
                if tick_id == tick.tick_id
            ]
            assert len(members) == tick.rows
            assert tick.rail_power == pytest.approx(sum(members), rel=1e-9)

    def test_noise_budget_jams_ledger_not_responses(self):
        submissions = _interleaved(("alice", "bob"), 4)
        clean_results, clean_service = _serve(_config(noise_budget=0.0), submissions)
        noisy_results, noisy_service = _serve(_config(noise_budget=5.0), submissions)
        for (_, clean), (_, noisy) in zip(clean_results, noisy_results):
            np.testing.assert_array_equal(clean.outputs, noisy.outputs)
            np.testing.assert_array_equal(clean.power, noisy.power)
        clean_rail = [tick.rail_power for tick in clean_service.tick_trace]
        noisy_rail = [tick.rail_power for tick in noisy_service.tick_trace]
        assert len(clean_rail) == len(noisy_rail)
        assert clean_rail != noisy_rail

    def test_noise_budget_ledger_replays_bit_identically(self):
        submissions = _interleaved(("alice", "bob"), 4)
        _, first = _serve(_config(noise_budget=5.0), submissions)
        _, second = _serve(_config(noise_budget=5.0), submissions)
        assert [tick.rail_power for tick in first.tick_trace] == [
            tick.rail_power for tick in second.tick_trace
        ]

    def test_no_power_backend_records_no_rail(self):
        results, service = _serve(
            _config(),
            _interleaved(("alice", "bob"), 3),
            target=Oracle(_network(), expose_power=False, random_state=0),
        )
        assert service.tick_trace
        assert all(tick.rail_power is None for tick in service.tick_trace)
        # a probe has nothing to integrate: the attacker's view is empty
        assert visible_ticks(service.tick_trace, "alice") == []


class TestBoundedLedger:
    """The ledger keeps the newest ticks; a round selects its own by id."""

    def test_ledger_keeps_exactly_the_newest_ticks(self, monkeypatch):
        assert QueryService(_oracle()).tick_trace.maxlen == 8192
        monkeypatch.setattr(coalescer, "TICK_LEDGER_TICKS", 4)
        service = QueryService(_oracle(), _config(max_batch=1, max_wait_ms=0))

        async def drive():
            async with service:
                for row in _rows(10):
                    await service.submit(row[np.newaxis, :])

        asyncio.run(drive())
        assert service.stats.n_ticks == 10
        assert [tick.tick_id for tick in service.tick_trace] == [7, 8, 9, 10]

    @staticmethod
    def _round(service, n_victim=16, ratio=3):
        async def drive():
            async with service:
                return await run_coresident_attack(
                    service,
                    _rows(n_victim, seed=5),
                    _rows(ratio * n_victim, seed=6),
                    flood_ratio=ratio,
                )

        return asyncio.run(drive())

    def test_round_on_a_full_ledger_sees_its_own_ticks(self, monkeypatch):
        monkeypatch.setattr(coalescer, "TICK_LEDGER_TICKS", 8)
        config = _config(placement="shared", max_wait_ms=10_000)
        service = QueryService(_oracle(), config)
        first = self._round(service)
        second = self._round(service)
        assert [tick.tick_id for tick in first.ticks] == list(range(1, 9))
        assert [tick.tick_id for tick in second.ticks] == list(range(9, 17))
        assert set(second.rows_by_tick) == set(range(9, 17))

    def test_round_whose_ticks_were_evicted_raises(self, monkeypatch):
        monkeypatch.setattr(coalescer, "TICK_LEDGER_TICKS", 2)
        service = QueryService(_oracle(), _config(placement="shared", max_wait_ms=10_000))
        with pytest.raises(RuntimeError, match="evicted"):
            self._round(service)


class TestDroppedRequests:
    """Regression: cancelled batch-mates are counted, not silently skipped."""

    def test_cancelled_request_is_counted_and_skipped(self):
        async def drive():
            oracle = _oracle()
            service = QueryService(oracle, _config())
            await service.start()
            loop = asyncio.get_running_loop()
            dead = loop.create_future()
            dead.cancel()
            live = loop.create_future()
            rows = _rows(2)
            service._dispatch(
                [
                    _Pending(rows[:1], derive_request_seeds(0, 0, 1), dead, None, "a"),
                    _Pending(rows[1:], derive_request_seeds(0, 1, 1), live, None, "b"),
                ]
            )
            await service.stop()
            return service, oracle, live

        service, oracle, live = asyncio.run(drive())
        assert service.stats.n_dropped_requests == 1
        assert service.stats.n_requests == 1
        assert service.stats.n_rows == 1
        assert oracle.queries_used == 1  # the dropped row never ran
        assert live.result().outputs.shape == (1, N_CLASSES)
        # the ledger records only the rows that physically ran
        assert service.tick_trace[-1].tenants == ("b",)
        assert service.stats.to_dict()["n_dropped_requests"] == 1

    def test_fully_cancelled_tick_dispatches_nothing(self):
        async def drive():
            oracle = _oracle()
            service = QueryService(oracle, _config())
            await service.start()
            loop = asyncio.get_running_loop()
            pendings = []
            for index in range(2):
                future = loop.create_future()
                future.cancel()
                pendings.append(
                    _Pending(
                        _rows(1, seed=index),
                        derive_request_seeds(0, index, 1),
                        future,
                        None,
                        "a",
                    )
                )
            service._dispatch(pendings)
            await service.stop()
            return service, oracle

        service, oracle = asyncio.run(drive())
        assert service.stats.n_dropped_requests == 2
        assert service.stats.n_ticks == 0
        assert oracle.queries_used == 0
        assert list(service.tick_trace) == []


class TestTenantStatsCoalescingFactor:
    """Regression: the per-tenant factor only amortises dispatched requests."""

    def test_factor_excludes_deduped_requests(self):
        stats = TenantServiceStats(tenant="alice", weight=1.0)
        stats.n_received = 7
        stats.n_requests = 4
        stats.n_deduped = 3
        stats.record_tick(3)
        stats.record_tick(9)
        # 4 dispatched requests over 2 ticks; the 3 cache hits never joined
        # a tick and must not inflate the factor to 3.5
        assert stats.coalescing_factor == 2.0

    def test_factor_nan_when_received_but_no_ticks(self):
        stats = TenantServiceStats(tenant="alice", weight=1.0)
        stats.n_received = 5
        assert math.isnan(stats.coalescing_factor)
        assert math.isnan(stats.to_dict()["coalescing_factor"])

    def test_factor_zero_for_idle_tenant(self):
        stats = TenantServiceStats(tenant="alice", weight=1.0)
        assert stats.coalescing_factor == 0.0
        assert stats.to_dict()["n_received"] == 0


class TestPerTileAttribution:
    """Per-tile currents stay bitwise row-attributable under coalescing."""

    def _sharded_target(self):
        # the tile-isolated preset carries the per-tenant-bank tile geometry
        return get_scenario("tenant-tile-isolated").build_accelerator(
            _network(), random_state=0
        )

    def test_current_for_prefix_sums_group_columns(self):
        target = self._sharded_target()
        _, report = target.forward_with_power(_rows(5))
        assert report.tile_labels is not None and len(report.tile_labels) > 1
        grouped = report.current_for("layer0")
        columns = [
            index
            for index, label in enumerate(report.tile_labels)
            if label == "layer0" or label.startswith("layer0/")
        ]
        np.testing.assert_array_equal(
            grouped, report.per_tile_current[:, columns].sum(axis=1)
        )
        for index, label in enumerate(report.tile_labels):
            np.testing.assert_array_equal(
                report.current_for(label), report.per_tile_current[:, index]
            )
        np.testing.assert_allclose(
            report.per_tile_current.sum(axis=1), report.total_current
        )

    def test_coalesced_sharded_rows_attribute_bitwise(self):
        """Each request's per-tile slice matches a direct seeded traversal."""
        oracle = Oracle(
            self._sharded_target(),
            expose_power=True,
            expose_per_tile_power=True,
            random_state=0,
        )
        chunks = [_rows(1, seed=0), _rows(2, seed=1), _rows(3, seed=2)]

        async def drive():
            async with QueryService(oracle, _config()) as service:
                results = await asyncio.gather(
                    *(
                        service.submit_traced(chunk, tenant="alice")
                        for chunk in chunks
                    )
                )
            return results, service

        results, service = asyncio.run(drive())
        assert service.stats.max_tick_rows == 6  # the requests really fused
        direct = Oracle(
            self._sharded_target(),
            expose_power=True,
            expose_per_tile_power=True,
            random_state=0,
        )
        for chunk, (request_id, response) in zip(chunks, results):
            alone = direct.query(
                chunk, seeds=service.seeds_for(request_id, len(chunk))
            )
            np.testing.assert_array_equal(response.outputs, alone.outputs)
            np.testing.assert_array_equal(response.power, alone.power)
            np.testing.assert_array_equal(
                response.per_tile_power, alone.per_tile_power
            )

    def test_tick_per_tile_power_sums_member_rows(self):
        oracle = Oracle(
            self._sharded_target(),
            expose_power=True,
            expose_per_tile_power=True,
            random_state=0,
        )
        results, service = _serve(
            _config(), _interleaved(("alice", "bob"), 3), target=oracle
        )
        assert len(service.tick_trace) == 1
        tick = service.tick_trace[0]
        summed = np.sum(
            np.concatenate([response.per_tile_power for _, response in results]),
            axis=0,
        )
        np.testing.assert_allclose(tick.per_tile_power, summed)
        assert tick.tile_labels is not None


class TestTenantPresets:
    """The tenant-* scenarios ship the configured isolation policies."""

    def test_presets_registered_with_configured_policies(self):
        for name, (placement, max_batch, noise_budget, geometry) in (
            TENANT_PRESET_CONFIGS.items()
        ):
            spec = get_scenario(name)
            assert spec.service is not None
            assert spec.service.placement == placement
            assert spec.service.max_batch == max_batch
            assert spec.service.noise_budget == noise_budget
            if geometry is None:
                assert spec.sharding is None
            else:
                assert spec.sharding is not None
                assert (
                    spec.sharding.row_shards,
                    spec.sharding.col_shards,
                    spec.sharding.reduction,
                ) == geometry

    def test_presets_join_the_scenario_suites(self):
        registered = list_scenarios()
        for name in TENANT_PRESET_CONFIGS:
            assert name in registered


class TestCoResidentAttackMechanics:
    """The channel itself, on a small victim: what each policy leaks."""

    def _attack(self, config, *, n_probe_ratio=3):
        victim_inputs = _rows(N_FEATURES + 4, seed=5)
        probe_inputs = _rows(n_probe_ratio * len(victim_inputs), seed=6)

        async def drive():
            async with QueryService(_oracle(), config) as service:
                return await run_coresident_attack(
                    service, victim_inputs, probe_inputs, flood_ratio=n_probe_ratio
                )

        trace = asyncio.run(drive())
        return estimate_victim_norms(trace, N_FEATURES)

    def _true_norms(self):
        return np.abs(_network().layers[0].weights).sum(axis=0)

    def test_shared_placement_recovers_column_norms(self):
        estimate = self._attack(_config(placement="shared", max_batch=4))
        assert estimate.mounted
        corr = np.corrcoef(estimate.column_norms, self._true_norms())[0, 1]
        assert corr > 0.9

    def test_tile_isolation_leaves_nothing_to_mount(self):
        estimate = self._attack(_config(placement="tile-isolated", max_batch=4))
        assert not estimate.mounted
        assert estimate.n_equations == 0
        assert estimate.column_norms is None

    def test_partitioning_coarsens_the_equations(self):
        fine = self._attack(_config(placement="shared", max_batch=4))
        coarse = self._attack(_config(placement="partitioned", max_batch=4))
        assert coarse.mounted  # the shared rail still leaks tick totals
        assert coarse.n_mixed_ticks == 0
        assert fine.n_mixed_ticks > 0
        assert (
            coarse.mean_victim_rows_per_equation
            > fine.mean_victim_rows_per_equation
        )
        assert coarse.n_equations < fine.n_equations

    def test_exhausted_budget_fails_the_round_and_reads_every_error(self, caplog):
        """A failed tick fails the attack, and no request's error goes unread."""
        oracle = _oracle(query_budget=12)  # three ticks of four rows
        config = _config(placement="shared", max_batch=4, max_wait_ms=10_000)

        async def drive():
            async with QueryService(oracle, config) as service:
                await run_coresident_attack(
                    service, _rows(8, seed=5), _rows(24, seed=6), flood_ratio=3
                )

        def failed():
            try:
                asyncio.run(drive())
            except QueryBudgetExceeded:
                return True
            return False

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert failed()
            gc.collect()
        assert oracle.queries_used == 12
        assert "never retrieved" not in caplog.text

    def test_noise_budget_degrades_recovery(self):
        clean = self._attack(_config(placement="shared", max_batch=4))
        jammed = self._attack(
            _config(placement="shared", max_batch=4, noise_budget=8.0)
        )
        truth = self._true_norms()
        clean_corr = np.corrcoef(clean.column_norms, truth)[0, 1]
        jammed_corr = np.corrcoef(jammed.column_norms, truth)[0, 1]
        assert jammed_corr < clean_corr


#: sha256 of each co-resident ledger's ``(tenants, tenant_rows, rail_power)``
#: below, keyed ``(placement, max_pending)``: tick composition and the rail
#: observable are pinned bit for bit, including when ``max_pending`` is far
#: smaller than the attacker's burst.
LEDGER_DIGESTS = {
    ("shared", 4): "d39b771c0570efecbb74fb42e995e68796b35980a98940a15089004ea0c3b009",
    ("shared", 256): "d39b771c0570efecbb74fb42e995e68796b35980a98940a15089004ea0c3b009",
    ("partitioned", 4): "d60390dfe495f937b938516aa672ea71fbc0ef66976b5b4cdba30a6633614ca5",
    ("partitioned", 256): "d60390dfe495f937b938516aa672ea71fbc0ef66976b5b4cdba30a6633614ca5",
    ("tile-isolated", 4): "d60390dfe495f937b938516aa672ea71fbc0ef66976b5b4cdba30a6633614ca5",
    ("tile-isolated", 256): "d60390dfe495f937b938516aa672ea71fbc0ef66976b5b4cdba30a6633614ca5",
}


def _ledger_digest(ledger) -> str:
    digest = hashlib.sha256()
    for tick in ledger:
        digest.update(repr((tick.tenants, tuple(tick.tenant_rows.items()))).encode())
        digest.update(np.float64(tick.rail_power).tobytes())
    return digest.hexdigest()


#: sha256 of the attacker's known-row sums below, keyed like
#: :data:`LEDGER_DIGESTS`: every tick's ``(tick_id, victim rows)`` and summed
#: input vector, in tick order.  Pins the summation order bit for bit.
SUM_DIGESTS = {
    ("shared", 4): "41f65c1444fe322fba6de5f1077a107bcaa0b37657479253ca8b5679cd499e85",
    ("shared", 256): "41f65c1444fe322fba6de5f1077a107bcaa0b37657479253ca8b5679cd499e85",
    ("partitioned", 4): "4a6a29a9184c17cf94ca9c60d161deaf79a34bd08b36191a70a5020e1b2a6399",
    ("partitioned", 256): "4a6a29a9184c17cf94ca9c60d161deaf79a34bd08b36191a70a5020e1b2a6399",
    ("tile-isolated", 4): "01e2d715cd382a4a1c3e5af2b812ae77394244118087df0cbacf275a7aaaae20",
    ("tile-isolated", 256): "01e2d715cd382a4a1c3e5af2b812ae77394244118087df0cbacf275a7aaaae20",
}


def _sums_digest(trace) -> str:
    digest = hashlib.sha256()
    for tick_id in sorted(trace.rows_by_tick):
        count = trace.victim_rows_by_tick.get(tick_id, 0)
        digest.update(repr((tick_id, count)).encode())
        digest.update(np.asarray(trace.rows_by_tick[tick_id], dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestCoResidentLedgerUnderBackpressure:
    """A flood of 7 probes per victim row, through a queue of 4 or 256."""

    N_VICTIM = 32
    RATIO = 7

    def _run(self, placement, max_pending):
        victim_inputs = _rows(self.N_VICTIM, seed=5)
        probe_inputs = _rows(self.RATIO * self.N_VICTIM, seed=6)
        # A round that outlives max_wait_ms dispatches its groups under-full;
        # a generous bound keeps the pinned composition independent of host
        # speed (rounds still end early once the flood is fully queued).
        config = _config(
            placement=placement, max_pending=max_pending, max_wait_ms=10_000
        )

        async def drive():
            async with QueryService(_oracle(), config) as service:
                trace = await run_coresident_attack(
                    service, victim_inputs, probe_inputs, flood_ratio=self.RATIO
                )
            return service.tick_trace, trace

        return asyncio.run(drive())

    @pytest.mark.parametrize("max_pending", (4, 256))
    @pytest.mark.parametrize("placement", ("shared", "partitioned", "tile-isolated"))
    def test_tick_composition_is_pinned(self, placement, max_pending):
        ledger, trace = self._run(placement, max_pending)
        assert len(ledger) == (self.RATIO + 1) * self.N_VICTIM // 8
        assert all(tick.rows == 8 for tick in ledger)
        victim_ticks = [tick for tick in ledger if "victim" in tick.tenant_rows]
        if placement == "shared":
            assert len(victim_ticks) == len(ledger)
            assert all(tick.tenant_rows["victim"] == 1 for tick in ledger)
        else:
            assert all(len(tick.tenants) == 1 for tick in ledger)
            assert len(victim_ticks) == self.N_VICTIM // 8
            assert all(tick.tenant_rows["victim"] == 8 for tick in victim_ticks)
        mounted = estimate_victim_norms(trace, N_FEATURES).mounted
        assert mounted is (placement != "tile-isolated")
        assert _ledger_digest(ledger) == LEDGER_DIGESTS[(placement, max_pending)]
        assert _sums_digest(trace) == SUM_DIGESTS[(placement, max_pending)]
        assert set(trace.victim_rows_by_tick) <= set(trace.rows_by_tick)


class TestCoResidentRoundStreaming:
    """The round draws its probes lazily and holds no more than it must."""

    N_WIDE = 512

    def _round(self, victim_inputs, probe_inputs, flood_ratio, oracle=None):
        config = _config(placement="shared", max_wait_ms=10_000)

        async def drive():
            async with QueryService(oracle or _oracle(), config) as service:
                return await run_coresident_attack(
                    service, victim_inputs, probe_inputs, flood_ratio=flood_ratio
                )

        return asyncio.run(drive())

    def test_block_drawn_probes_equal_one_draw(self):
        """The experiment's per-victim-row probe blocks are the values of
        one ``(ratio * n_victim, n_features)`` draw from the same stream."""
        from repro.experiments.cross_tenant import _probe_rows

        lazy = np.array(list(_probe_rows(np.random.default_rng(7), 50, 7, 784)))
        eager = np.random.default_rng(7).uniform(0.0, 1.0, size=(7 * 50, 784))
        np.testing.assert_array_equal(lazy, eager)

    def test_probes_are_drawn_only_as_needed(self):
        drawn = []

        def probes():
            for row in _rows(1000, seed=6):
                drawn.append(row)
                yield row

        self._round(_rows(16, seed=5), probes(), 3)
        assert len(drawn) == 3 * 16

    def test_exhausted_probe_iterable_raises(self):
        with pytest.raises(ValueError, match="probe_inputs ran out"):
            self._round(_rows(16, seed=5), _rows(3 * 16 - 1, seed=6), 3)

    def test_negative_flood_ratio_rejected(self):
        with pytest.raises(ValueError, match="flood_ratio"):
            self._round(_rows(4, seed=5), _rows(4, seed=6), -1)

    def test_round_memory_does_not_grow_with_the_flood(self):
        """The traced peak grows with the returned sums, not with the flood."""
        network = Sequential(
            [Dense(self.N_WIDE, N_CLASSES, activation="softmax", random_state=0)]
        )
        ratio = 7
        peaks, sum_bytes = {}, {}
        for n_victim in (64, 256):
            rng = np.random.default_rng(n_victim)
            victim_inputs = rng.uniform(0.0, 1.0, size=(n_victim, self.N_WIDE))
            probe_inputs = rng.uniform(0.0, 1.0, size=(ratio * n_victim, self.N_WIDE))
            oracle = Oracle(network, random_state=0, expose_power=True)
            tracemalloc.start()
            try:
                trace = self._round(victim_inputs, probe_inputs, ratio, oracle)
                peaks[n_victim] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sum_bytes[n_victim] = sum(row.nbytes for row in trace.rows_by_tick.values())
        growth = peaks[256] - peaks[64]
        sums_growth = sum_bytes[256] - sum_bytes[64]
        assert sums_growth > 0
        assert growth <= 2 * sums_growth, (
            f"peak grew {growth / 2**20:.2f} MiB for "
            f"{sums_growth / 2**20:.2f} MiB more known-row sums"
        )


class TestCoResidentMemoryGate:
    """``check_bench_regression.py`` gates the round's recorded peak memory."""

    @staticmethod
    def _check(**memory):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        spec = importlib.util.spec_from_file_location("check_bench_regression_tenant", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        placements = [
            {"placement": "shared", "elapsed_s": 0.006, "coalescing_factor": 16.0,
             "mixed_ticks": 16},
            {"placement": "partitioned", "elapsed_s": 0.007, "coalescing_factor": 8.0,
             "mixed_ticks": 0},
        ]
        results = {
            "engine": {
                "oracle_query": [{"batch_size": 16, "speedup": 2.5}],
                "array_ops_per_power_query_batch": 1,
            },
            "bench_tenant": {
                "responses_identical": True,
                "placements": placements,
                "partitioned_overhead": 1.2,
                "coresident_round": {"peak_mb": 2.0, "committed_peak_mb": 2.0, **memory},
            },
        }
        return lambda tolerance=0.0: module.check_results(results, tolerance=tolerance)

    def test_committed_peak_passes(self):
        assert self._check()() == []

    def test_peak_over_committed_fails_unless_tolerated(self):
        check = self._check(peak_mb=2.2)
        assert any("co-resident round peaks" in failure for failure in check())
        assert check(tolerance=0.15) == []
        assert check(tolerance=0.05)

    def test_missing_peak_fails(self):
        assert self._check(peak_mb=None)()


class TestExperimentRegistration:
    """The experiment and sweeps are registered, with the right metric."""

    def test_cross_tenant_attack_is_registered(self):
        assert "cross-tenant-attack" in list_experiments()

    def test_tenant_sweeps_are_registered(self):
        registered = list_experiments()
        for name, (base, knob, values) in TENANT_SWEEP_GRIDS.items():
            assert name in registered
            assert SWEEPS[name].knob == knob
            assert SWEEPS[name].base.name == base
            assert SWEEPS[name].values == values

    def test_tenant_sweeps_assemble_the_targeting_advantage(self):
        for name in TENANT_SWEEP_GRIDS:
            assert get_experiment(name).advantage_metric == "attack_advantage"
        # the hardware sweeps keep the paper's single-pixel metric
        assert (
            get_experiment("sweep-adc-bits").advantage_metric
            == "single_pixel_attack_advantage"
        )


#: One-seed shrunken scale for the end-to-end experiment tests: the service
#: round dominates the cost (victim rows scale with the 784 mnist-like
#: features, not with the scale preset), so only runs/training are trimmed.
_TINY = SCALES["smoke"].with_overrides(
    name="tenant-tiny", n_runs=1, n_train=200, n_test=80, train_epochs=4
)


class TestCrossTenantExperimentEndToEnd:
    """The registered experiment reproduces the isolation ladder."""

    def test_isolation_ladder_holds(self):
        result = get_experiment("cross-tenant-attack").run(_TINY)
        advantage = result.summary["advantage_by_scenario"]
        assert set(advantage) == set(TENANT_PRESET_CONFIGS)
        assert result.summary["isolation_ordering_ok"] is True
        assert advantage["tenant-tile-isolated"] == 0.0
        assert advantage["tenant-shared"] > 0.0
        rows = {row["scenario"]: row for row in result.summary["rows"]}
        assert rows["tenant-shared"]["mounted"]
        assert not rows["tenant-tile-isolated"]["mounted"]
        # partitioning also blunts the raw leakage, not just the advantage
        assert (
            rows["tenant-shared"]["leakage_mean"]
            > rows["tenant-partitioned"]["leakage_mean"]
        )

    def test_noise_budget_curve_decreases_with_the_budget(self):
        from repro.experiments.cross_tenant import CrossTenantSweepExperiment

        spec = SweepSpec(
            name="sweep-tenant-noise-micro",
            base=get_scenario("tenant-shared"),
            knob="service.noise_budget",
            values=(12.0, 0.0),  # most defended -> most exposed, like the grid
        )
        result = CrossTenantSweepExperiment(spec).run(_TINY)
        curve = result.summary["curves"][0]
        assert curve["advantage_mean"][0] < curve["advantage_mean"][1]
        assert curve["leakage_mean"][0] < curve["leakage_mean"][1]


class TestCrossTenantInstrumentNoise:
    """The co-residency job serves the scenario's own instrument."""

    def test_measurement_noise_reaches_the_served_oracle(self):
        from repro.experiments.cross_tenant import _mount_attack

        noisy = get_scenario("high-read-noise")
        assert noisy.measurement_noise > 0.0
        quiet = noisy.with_overrides(measurement_noise=0.0)
        _, noisy_metrics = _mount_attack(noisy, _TINY, 3)
        _, quiet_metrics = _mount_attack(quiet, _TINY, 3)
        assert noisy_metrics != quiet_metrics
