"""Service benchmark: coalescing amortisation vs one-request-per-call.

Measures what the async coalescing query service buys on the attack hot
path: ``N_REQUESTS`` single-row power-exposed oracle queries are issued

* **directly** — one ``Oracle.query`` call per request (the
  one-request-per-call baseline every pre-service attack pays), and
* **through the service** — at several offered concurrency levels, with
  ``c`` client coroutines each submitting its share of requests
  back-to-back, so every tick coalesces ~``c`` requests into one fused
  traversal.

The acceptance criterion is a >= 2x throughput gain at offered concurrency
>= 8.  Results are merged into ``BENCH_engine.json`` under
``bench_service`` and gated by ``scripts/check_bench_regression.py``.
A correctness guard asserts serviced responses are bit-identical to direct
seeded queries before anything is timed.
"""

import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.attacks.oracle import Oracle
from repro.service import QueryService, ServiceConfig

N_REQUESTS = 512
CONCURRENCY_LEVELS = (1, 8, 32, 64)
SERVICE_CONFIG = ServiceConfig(max_batch=64, max_wait_ms=2.0)

#: Acceptance criterion: throughput gain at offered concurrency >= 8.
MIN_SPEEDUP = 2.0


def build_oracle(*, n_inputs=256, n_outputs=10, seed=0):
    accelerator = bench_engine.build_accelerator(n_inputs, n_outputs, seed=seed)
    return Oracle(accelerator, expose_power=True, random_state=seed)


def make_requests(n_inputs, *, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(N_REQUESTS, 1, n_inputs))


def run_direct(oracle, requests):
    """One-request-per-call baseline: a blocking query per row."""
    start = time.perf_counter()
    responses = [oracle.query(request) for request in requests]
    elapsed = time.perf_counter() - start
    return responses, elapsed


async def _clients(service, requests, concurrency):
    """``concurrency`` clients, each submitting its share back-to-back."""

    async def client(chunk):
        return [await service.submit(request) for request in chunk]

    shares = [requests[i::concurrency] for i in range(concurrency)]
    results = await asyncio.gather(*(client(share) for share in shares))
    # restitch interleaved shares back into request order
    responses = [None] * len(requests)
    for offset, share_responses in enumerate(results):
        for k, response in enumerate(share_responses):
            responses[offset + k * concurrency] = response
    return responses


def run_service(oracle, requests, concurrency):
    async def run():
        async with QueryService(oracle, SERVICE_CONFIG) as service:
            start = time.perf_counter()
            responses = await _clients(service, list(requests), concurrency)
            elapsed = time.perf_counter() - start
            return responses, elapsed, service.stats.to_dict()

    return asyncio.run(run())


def check_equivalence(*, n_inputs=32, n_rows=24, seed=0):
    """Serviced responses must be bit-identical to direct seeded queries."""
    requests = make_requests(n_inputs, seed=seed)[:n_rows]
    serviced_oracle = build_oracle(n_inputs=n_inputs, seed=seed)

    async def run():
        async with QueryService(serviced_oracle, SERVICE_CONFIG) as service:
            responses = await asyncio.gather(
                *(service.submit(request) for request in requests)
            )
            seeds = [service.seeds_for(i, 1) for i in range(len(requests))]
            return responses, seeds

    responses, seeds = asyncio.run(run())
    direct_oracle = build_oracle(n_inputs=n_inputs, seed=seed)
    for request, response, request_seeds in zip(requests, responses, seeds):
        reference = direct_oracle.query(request, seeds=request_seeds)
        np.testing.assert_array_equal(response.outputs, reference.outputs)
        np.testing.assert_array_equal(response.power, reference.power)
    return True


def run_service_benchmark(*, n_inputs=256, n_outputs=10, seed=0):
    """Full benchmark; returns the structure stored in BENCH_engine.json."""
    responses_identical = check_equivalence(seed=seed)

    requests = make_requests(n_inputs, seed=seed)
    direct_oracle = build_oracle(n_inputs=n_inputs, n_outputs=n_outputs, seed=seed)
    _, direct_s = run_direct(direct_oracle, requests)
    direct_qps = N_REQUESTS / direct_s

    rows = []
    for concurrency in CONCURRENCY_LEVELS:
        oracle = build_oracle(n_inputs=n_inputs, n_outputs=n_outputs, seed=seed)
        responses, elapsed, stats = run_service(oracle, requests, concurrency)
        assert all(response is not None for response in responses)
        rows.append(
            {
                "concurrency": int(concurrency),
                "service_s": elapsed,
                "service_qps": N_REQUESTS / elapsed,
                "speedup_vs_direct": direct_s / elapsed,
                "coalescing_factor": stats["coalescing_factor"],
                "mean_tick_rows": stats["mean_tick_rows"],
                "n_ticks": stats["n_ticks"],
            }
        )
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "n_requests": int(N_REQUESTS),
            "max_batch": SERVICE_CONFIG.max_batch,
            "max_wait_ms": SERVICE_CONFIG.max_wait_ms,
            "seed": int(seed),
        },
        "responses_identical": bool(responses_identical),
        "direct_s": direct_s,
        "direct_qps": direct_qps,
        "concurrency": rows,
    }


def test_service_throughput(single_round, benchmark):
    """Coalescing amortisation vs one-request-per-call (records JSON)."""
    results = single_round(run_service_benchmark)
    bench_engine.record_timings("bench_service", results)

    for row in results["concurrency"]:
        benchmark.extra_info[f"c={row['concurrency']}/speedup"] = round(
            row["speedup_vs_direct"], 2
        )
        benchmark.extra_info[f"c={row['concurrency']}/coalescing"] = round(
            row["coalescing_factor"], 1
        )

    assert results["responses_identical"]
    # Acceptance criterion: >= 2x throughput at offered concurrency >= 8.
    eligible = [
        row["speedup_vs_direct"]
        for row in results["concurrency"]
        if row["concurrency"] >= 8
    ]
    assert max(eligible) >= MIN_SPEEDUP, (
        f"coalescing speedup {max(eligible):.2f} at concurrency >= 8 is below "
        f"the required {MIN_SPEEDUP}x"
    )


def main():  # pragma: no cover - console entry point
    results = run_service_benchmark()
    bench_engine.record_timings("bench_service", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {bench_engine.RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
