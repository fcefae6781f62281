"""Tests for repro.service: coalescing, equivalence, error paths.

The acceptance property — coalesced service responses are bit-identical to
per-request synchronous queries — is asserted for **every registered scenario
preset** against the scenario's own hardware stack, plus the service
machinery itself: tick formation, backpressure, shared-bus error semantics,
query accounting, and the plain oracle every scenario builds.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.attacks.oracle import Oracle, QueryBudgetExceeded
from repro.experiments.scenario import SCENARIOS, list_scenarios
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.service import QueryService, ServiceClosedError, ServiceConfig

pytestmark = pytest.mark.service

N_FEATURES = 16
N_CLASSES = 5


def _network():
    return Sequential(
        [Dense(N_FEATURES, N_CLASSES, activation="softmax", random_state=0)]
    )


def _target(name):
    return SCENARIOS[name].build_accelerator(_network(), random_state=0)


_ORACLE_KWARGS = dict(expose_power=True, power_noise_std=0.03, random_state=7)


def _oracle(name):
    return Oracle(_target(name), **_ORACLE_KWARGS)


def _requests(sizes=(1, 3, 1, 2, 5, 1, 4)):
    rng = np.random.default_rng(13)
    return [rng.uniform(0.0, 1.0, size=(n, N_FEATURES)) for n in sizes]


class _InstrumentedBackend(Oracle):
    """An oracle that counts (and optionally slows) traversals."""

    def __init__(self, name, delay=0.0):
        super().__init__(_target(name), **_ORACLE_KWARGS)
        self.delay = delay
        self.calls = 0

    def query(self, inputs, *, seeds=None):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return super().query(inputs, seeds=seeds)


def _submit_all(service_target, config, requests):
    async def run():
        async with QueryService(service_target, config) as service:
            responses = await asyncio.gather(
                *(service.submit(request) for request in requests)
            )
            seeds = [
                service.seeds_for(i, len(request))
                for i, request in enumerate(requests)
            ]
            return responses, seeds, service.stats.to_dict()

    return asyncio.run(run())


class TestServiceVsDirectEquivalence:
    """Acceptance: coalesced == per-request synchronous, bit for bit."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_oracle_responses_bit_identical(self, name):
        requests = _requests()
        responses, seeds, stats = _submit_all(
            _oracle(name), ServiceConfig(max_batch=8, max_wait_ms=10), requests
        )
        direct = _oracle(name)  # identically-built victim, fresh instance
        for request, response, request_seeds in zip(requests, responses, seeds):
            reference = direct.query(request, seeds=request_seeds)
            np.testing.assert_array_equal(response.queries, reference.queries)
            np.testing.assert_array_equal(response.outputs, reference.outputs)
            np.testing.assert_array_equal(response.labels, reference.labels)
            np.testing.assert_array_equal(response.power, reference.power)
        assert stats["n_requests"] == len(requests)
        assert stats["n_ticks"] < len(requests)  # coalescing actually happened

    @pytest.mark.parametrize("base_seed", [0, -1, 2**64 + 3])
    def test_mixed_tick_matches_seeds_for(self, base_seed):
        """One tick of 1-row and 3-row requests, queued from one coroutine.

        The tick's seed array is assembled from per-request ints; it must
        equal the ``seeds_for`` reference, including where ``base_seed``
        needs masking into 64 bits.
        """
        requests = _requests(sizes=(1, 3, 1, 3, 1))
        config = ServiceConfig(max_batch=64, max_wait_ms=10_000, base_seed=base_seed)

        async def run():
            async with QueryService(_oracle("high-read-noise"), config) as service:
                queued = [await service.enqueue(request) for request in requests]
                responses = [await future for _, future in queued]
                seeds = [
                    service.seeds_for(request_id, len(request))
                    for (request_id, _), request in zip(queued, requests)
                ]
                return [rid for rid, _ in queued], responses, seeds, service.stats

        request_ids, responses, seeds, stats = asyncio.run(run())
        assert request_ids == list(range(len(requests)))
        assert stats.n_ticks == 1
        assert stats.n_rows == sum(len(request) for request in requests)
        direct = _oracle("high-read-noise")
        for request, response, request_seeds in zip(requests, responses, seeds):
            reference = direct.query(request, seeds=request_seeds)
            np.testing.assert_array_equal(response.outputs, reference.outputs)
            np.testing.assert_array_equal(response.power, reference.power)
            np.testing.assert_array_equal(response.labels, reference.labels)

    def test_query_accounting_matches_direct(self):
        requests = _requests()
        oracle = _oracle("paper/mnist-softmax")
        _submit_all(oracle, ServiceConfig(max_batch=8), requests)
        assert oracle.queries_used == sum(len(r) for r in requests)

    def test_request_larger_than_max_batch_served_whole(self):
        oracle = _oracle("paper/mnist-softmax")
        big = np.random.default_rng(0).uniform(size=(24, N_FEATURES))
        responses, seeds, stats = _submit_all(
            oracle, ServiceConfig(max_batch=4), [big]
        )
        assert len(responses[0].outputs) == 24
        assert stats["max_tick_rows"] == 24  # never split


class TestServiceMechanics:
    def test_ticks_respect_max_batch(self):
        oracle = _oracle("paper/mnist-softmax")
        requests = [np.ones((1, N_FEATURES)) * 0.1] * 12
        _, _, stats = _submit_all(
            oracle, ServiceConfig(max_batch=4, max_wait_ms=50), requests
        )
        assert stats["max_tick_rows"] <= 4
        assert stats["n_ticks"] >= 3

    def test_shared_bus_error_fails_the_whole_tick_and_charges_nothing(self):
        oracle = _oracle("paper/mnist-softmax")

        async def run():
            async with QueryService(
                oracle, ServiceConfig(max_batch=8, max_wait_ms=50)
            ) as service:
                good = service.submit(np.ones((2, N_FEATURES)))
                bad = service.submit(np.ones((1, N_FEATURES + 1)))  # wrong width
                return await asyncio.gather(good, bad, return_exceptions=True)

        results = asyncio.run(run())
        assert all(isinstance(r, Exception) for r in results)
        assert oracle.queries_used == 0

    def test_budget_exhaustion_propagates_uncharged(self):
        target = _target("paper/mnist-softmax")
        oracle = Oracle(target, query_budget=3, random_state=0)

        async def run():
            async with QueryService(oracle, ServiceConfig(max_wait_ms=50)) as service:
                return await asyncio.gather(
                    *(service.submit(np.ones((2, N_FEATURES))) for _ in range(2)),
                    return_exceptions=True,
                )

        results = asyncio.run(run())
        assert all(isinstance(r, QueryBudgetExceeded) for r in results)
        assert oracle.queries_used == 0
        assert oracle.queries_remaining == 3

    def test_backpressure_bounds_the_queue(self):
        oracle = _oracle("paper/mnist-softmax")

        async def run():
            service = QueryService(
                oracle, ServiceConfig(max_batch=2, max_wait_ms=0, max_pending=2)
            )
            async with service:
                responses = await asyncio.gather(
                    *(service.submit(np.ones((1, N_FEATURES))) for _ in range(10))
                )
                assert service._queue.maxsize == 2
                return responses

        assert len(asyncio.run(run())) == 10

    def test_empty_request_rejected(self):
        oracle = _oracle("paper/mnist-softmax")

        async def run():
            async with QueryService(oracle) as service:
                await service.submit(np.empty((0, N_FEATURES)))

        with pytest.raises(ValueError, match="empty request"):
            asyncio.run(run())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_request_rejected_before_sequencing(self, bad):
        """A NaN or infinite row fails alone: no sequence number, no charge."""
        oracle = _oracle("paper/mnist-softmax")
        poisoned = np.full((1, N_FEATURES), 0.25)
        poisoned[0, 3] = bad

        async def run():
            async with QueryService(oracle) as service:
                with pytest.raises(ValueError, match="NaN or infinite"):
                    await service.submit(poisoned)
                request_id, _ = await service.submit_traced(np.full((1, N_FEATURES), 0.25))
                return request_id, service.tick_trace

        request_id, ledger = asyncio.run(run())
        assert request_id == 0
        assert oracle.queries_used == 1
        assert [tick.rows for tick in ledger] == [1]
        assert np.isfinite(ledger[0].rail_power)

    def test_unknown_target_rejected(self):
        for target in (object(), _target("paper/mnist-softmax")):
            with pytest.raises(TypeError, match="cannot serve"):
                QueryService(target)

    def test_seeds_for_is_deterministic(self):
        a = QueryService(_oracle("paper/mnist-softmax"), ServiceConfig(base_seed=9))
        b = QueryService(_oracle("paper/mnist-softmax"), ServiceConfig(base_seed=9))
        np.testing.assert_array_equal(a.seeds_for(4, 3), b.seeds_for(4, 3))
        assert not np.array_equal(a.seeds_for(4, 3), a.seeds_for(5, 3))

    def test_config_validation_and_round_trip(self):
        config = ServiceConfig(max_batch=8, max_wait_ms=0.5, max_pending=16, base_seed=3)
        assert ServiceConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)

    def test_from_dict_rejects_unknown_keys(self):
        """A typo'd preset field must fail loudly, not be silently dropped."""
        with pytest.raises(ValueError, match="unknown ServiceConfig fields"):
            ServiceConfig.from_dict({"max_batch": 8, "max_wat_ms": 1.0})
        # missing keys still keep their defaults (older payloads load)
        assert ServiceConfig.from_dict({"max_batch": 8}).max_pending == 256

    def test_max_pending_one_with_slow_target_awaits_not_drops(self):
        """Backpressure at the tightest bound: every submit completes."""
        backend = _InstrumentedBackend("paper/mnist-softmax", delay=0.005)

        async def run():
            config = ServiceConfig(max_batch=1, max_wait_ms=0, max_pending=1)
            async with QueryService(backend, config) as service:
                return await asyncio.gather(
                    *(service.submit(np.ones((1, N_FEATURES))) for _ in range(6))
                )

        responses = asyncio.run(run())
        assert len(responses) == 6
        assert all(len(response.outputs) == 1 for response in responses)
        assert backend.calls == 6  # max_batch=1: one traversal per request

    def test_stop_during_held_open_tick_dispatches_exactly_once(self):
        """stop() with a tick held open for company neither strands the
        coalesced requests nor dispatches them twice."""
        backend = _InstrumentedBackend("paper/mnist-softmax")

        from repro.service.coalescer import _Pending

        async def run():
            loop = asyncio.get_running_loop()
            service = QueryService(
                backend, ServiceConfig(max_batch=100, max_wait_ms=10_000)
            )
            await service.start()  # worker is scheduled but has not run yet
            futures = []
            for request_id, rows in enumerate((2, 1)):
                inputs = np.ones((rows, N_FEATURES)) * 0.5
                future = loop.create_future()
                service._queue.put_nowait(
                    _Pending(inputs, request_id, future)
                )
                futures.append(future)
            # Simulate trickling cross-thread arrivals: while the queue
            # reports non-empty the worker holds its tick open for company
            # instead of taking the fully-coalesced early dispatch.
            queue = service._queue
            backing = queue._queue  # the underlying deque
            real_get_nowait = type(queue).get_nowait
            queue.empty = lambda: False

            def fake_get_nowait():
                if not backing:
                    raise asyncio.QueueEmpty
                return real_get_nowait(queue)

            queue.get_nowait = fake_get_nowait
            for _ in range(20):
                await asyncio.sleep(0)
            assert not any(future.done() for future in futures)  # held open
            del queue.empty  # restore the real probes for stop()
            del queue.get_nowait
            await service.stop()  # cancels the worker mid-tick
            return await asyncio.gather(*futures)

        first, second = asyncio.run(run())
        assert len(first.outputs) == 2
        assert len(second.outputs) == 1
        assert backend.calls == 1  # one fused traversal, not one per request

    @pytest.mark.parametrize("placement", ["shared", "partitioned", "tile-isolated"])
    def test_stop_under_backpressure_serves_every_request_in_bounded_ticks(
        self, placement
    ):
        """stop() with submitters blocked on a full queue serves all of them
        in ticks of at most max_batch rows and leaves the queue empty."""
        oracle = _oracle("paper/mnist-softmax")
        config = ServiceConfig(max_batch=2, max_pending=8, placement=placement)

        async def run():
            service = QueryService(oracle, config)
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit_traced(
                        np.full((1, N_FEATURES), 0.5), tenant=f"t{i % 2}"
                    )
                )
                for i in range(64)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            await asyncio.wait_for(service.stop(), timeout=10)
            done, pending = await asyncio.wait(tasks, timeout=10)
            for task in pending:
                task.cancel()
            return service, done, pending

        service, done, pending = asyncio.run(run())
        assert not pending, f"{len(pending)} of 64 requests never resolved"
        request_ids = sorted(task.result()[0] for task in done)
        assert request_ids == list(range(64))
        assert service._queue.empty()
        assert service.stats.n_requests == 64
        assert service.stats.max_tick_rows <= config.max_batch
        if placement != "shared":
            assert all(len(tick.tenants) == 1 for tick in service.tick_trace)

    def test_enqueue_during_stop_raises_and_takes_no_request_id(self):
        oracle = _oracle("paper/mnist-softmax")
        config = ServiceConfig(max_batch=2, max_pending=2)
        inputs = np.full((1, N_FEATURES), 0.5)

        async def run():
            service = QueryService(oracle, config)
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit_traced(inputs)) for _ in range(6)
            ]
            await asyncio.sleep(0)  # ids 0-5 taken; four submitters blocked
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0)
            assert not stopping.done()  # still draining the blocked submitters
            with pytest.raises(ServiceClosedError, match="stopping"):
                await service.enqueue(inputs)
            await asyncio.wait_for(stopping, timeout=10)
            served = await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)
            assert not service.started
            # The rejected enqueue consumed no id; a later submit restarts
            # the worker and continues the sequence.
            request_id, _ = await asyncio.wait_for(
                service.submit_traced(inputs), timeout=10
            )
            await service.stop()
            return [rid for rid, _ in served], request_id

        served_ids, next_id = asyncio.run(run())
        assert served_ids == list(range(6))
        assert next_id == 6

    def test_stop_completes_in_a_task_that_caught_its_own_cancel(self):
        """stop() from a task that swallowed its own cancellation (the serve
        CLI's Ctrl-C path) still serves the queue and stops the worker."""
        oracle = _oracle("paper/mnist-softmax")
        inputs = np.full((1, N_FEATURES), 0.5)

        async def run():
            service = QueryService(oracle, ServiceConfig(max_batch=2))
            futures = [(await service.enqueue(inputs))[1] for _ in range(5)]
            asyncio.current_task().cancel()
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                pass
            await service.stop()
            return service, futures

        service, futures = asyncio.run(run())
        assert all(future.done() and not future.cancelled() for future in futures)
        assert all(future.exception() is None for future in futures)
        assert not service.started
        assert service.stats.n_requests == 5
        assert service.stats.max_tick_rows <= 2


@pytest.mark.parametrize("name", list_scenarios())
def test_build_oracle_returns_a_plain_oracle(name):
    """Every scenario, service presets included, hands attackers an Oracle;
    coalescing is the job of a QueryService the experiment builds."""
    oracle = SCENARIOS[name].build_oracle(_target(name), random_state=0)
    assert type(oracle) is Oracle


class TestServiceRegressionGate:
    """CI-facing behaviour of the bench_service gate in check_bench_regression."""

    @staticmethod
    def _load_script():
        import importlib.util
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression_for_service_tests",
            repo_root / "scripts" / "check_bench_regression.py",
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
            "bench_service": {
                "responses_identical": True,
                "direct_s": 0.02,
                "concurrency": [
                    {"concurrency": 1, "speedup_vs_direct": 0.5},
                    {"concurrency": 8, "speedup_vs_direct": 1.6},
                    {"concurrency": 32, "speedup_vs_direct": 2.4},
                ],
            },
        }

    def test_passing_payload(self):
        check = self._load_script()
        assert check.check_results(self._passing_results()) == []

    def test_slow_service_fails(self):
        check = self._load_script()
        results = self._passing_results()
        for row in results["bench_service"]["concurrency"]:
            row["speedup_vs_direct"] = 1.2
        failures = check.check_results(results)
        assert any("below the required" in failure for failure in failures)

    def test_non_identical_responses_fail(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_service"]["responses_identical"] = False
        failures = check.check_results(results)
        assert any("bit-identical" in failure for failure in failures)

    def test_low_concurrency_only_fails(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_service"]["concurrency"] = [
            {"concurrency": 1, "speedup_vs_direct": 0.5}
        ]
        failures = check.check_results(results)
        assert any("concurrency >= 8" in failure for failure in failures)

    def test_tolerance_relaxes_the_floor(self):
        check = self._load_script()
        results = self._passing_results()
        for row in results["bench_service"]["concurrency"]:
            row["speedup_vs_direct"] = 1.8
        assert check.check_results(results)  # fails at the strict 2.0 floor
        assert check.check_results(results, tolerance=0.15) == []

    def test_absent_section_is_not_checked(self):
        check = self._load_script()
        results = self._passing_results()
        del results["bench_service"]
        assert check.check_results(results) == []
