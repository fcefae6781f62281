"""Tenant-placement benchmark: what tick isolation costs in throughput.

Measures the price of the cross-tenant isolation policies on the coalescing
hot path: ``N_REQUESTS`` single-row power-exposed oracle queries from two
interleaved tenants are pushed through a :class:`QueryService` at fixed
offered concurrency under

* **shared** placement — the status-quo coalescer (strangers share fused
  traversals and rails), and
* **partitioned** placement — per-tenant ticks on the shared rail (the
  first rung of the isolation ladder the ``cross-tenant-attack`` experiment
  evaluates).

Because the per-group ``max_batch`` budget lets same-tenant rows keep
coalescing into full ticks, partitioning two steady tenants costs grouping
bookkeeping — not batch amortisation — and the acceptance criterion is that
the partitioned wall time stays within ``MAX_TENANT_OVERHEAD`` of the
shared one.  Results are merged into ``BENCH_engine.json`` under
``bench_tenant`` and gated by ``scripts/check_bench_regression.py``
(``--max-tenant-overhead``).  Correctness guards assert that partitioned
ticks never mixed tenants and that partitioned responses are bit-identical
to direct seeded queries before anything is timed.
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

N_REQUESTS = 256
CONCURRENCY = 16
TENANTS = ("alice", "bob")
MAX_BATCH = 64
MAX_WAIT_MS = 2.0

#: Acceptance criterion: partitioned placement may cost at most this factor
#: of the shared-placement wall time on the two-tenant workload.
MAX_TENANT_OVERHEAD = 1.5


def build_oracle(*, n_inputs=256, n_outputs=10, seed=0):
    accelerator = bench_engine.build_accelerator(n_inputs, n_outputs, seed=seed)
    return Oracle(accelerator, expose_power=True, random_state=seed)


def make_requests(n_inputs, *, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(N_REQUESTS, 1, n_inputs))


def service_config(placement):
    return ServiceConfig(
        max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, placement=placement
    )


async def _clients(service, requests, concurrency):
    """``concurrency`` clients, alternating tenants, each pushing its share."""

    async def client(chunk, tenant):
        return [
            await service.submit_traced(request, tenant=tenant)
            for request in chunk
        ]

    shares = [requests[i::concurrency] for i in range(concurrency)]
    tenants = [TENANTS[i % len(TENANTS)] for i in range(concurrency)]
    return await asyncio.gather(
        *(client(share, tenant) for share, tenant in zip(shares, tenants))
    )


def run_placement(oracle, requests, placement):
    async def run():
        async with QueryService(oracle, service_config(placement)) as service:
            start = time.perf_counter()
            await _clients(service, list(requests), CONCURRENCY)
            elapsed = time.perf_counter() - start
            mixed = sum(
                1 for tick in service.tick_trace if len(tick.tenants) > 1
            )
            return elapsed, service.stats.to_dict(), mixed

    return asyncio.run(run())


def check_equivalence(*, n_inputs=32, n_rows=24, seed=0):
    """Partitioned responses must be bit-identical to direct seeded queries."""
    requests = make_requests(n_inputs, seed=seed)[:n_rows]
    serviced_oracle = build_oracle(n_inputs=n_inputs, seed=seed)

    async def run():
        async with QueryService(
            serviced_oracle, service_config("partitioned")
        ) as service:
            results = await asyncio.gather(
                *(
                    service.submit_traced(request, tenant=TENANTS[i % len(TENANTS)])
                    for i, request in enumerate(requests)
                )
            )
            seeds = [
                service.seeds_for(request_id, 1) for request_id, _ in results
            ]
            return [response for _, response in results], seeds

    responses, seeds = asyncio.run(run())
    direct_oracle = build_oracle(n_inputs=n_inputs, seed=seed)
    for request, response, request_seeds in zip(requests, responses, seeds):
        reference = direct_oracle.query(request, seeds=request_seeds)
        np.testing.assert_array_equal(response.outputs, reference.outputs)
        np.testing.assert_array_equal(response.power, reference.power)
    return True


def run_tenant_benchmark(*, n_inputs=256, n_outputs=10, seed=0):
    """Full benchmark; returns the structure stored in BENCH_engine.json."""
    responses_identical = check_equivalence(seed=seed)
    requests = make_requests(n_inputs, seed=seed)

    rows = []
    elapsed_by_placement = {}
    for placement in ("shared", "partitioned"):
        oracle = build_oracle(n_inputs=n_inputs, n_outputs=n_outputs, seed=seed)
        elapsed, stats, mixed_ticks = run_placement(oracle, requests, placement)
        elapsed_by_placement[placement] = elapsed
        rows.append(
            {
                "placement": placement,
                "elapsed_s": elapsed,
                "qps": N_REQUESTS / elapsed,
                "coalescing_factor": stats["coalescing_factor"],
                "mean_tick_rows": stats["mean_tick_rows"],
                "n_ticks": stats["n_ticks"],
                "mixed_ticks": int(mixed_ticks),
            }
        )
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "n_requests": int(N_REQUESTS),
            "concurrency": int(CONCURRENCY),
            "n_tenants": len(TENANTS),
            "max_batch": int(MAX_BATCH),
            "max_wait_ms": float(MAX_WAIT_MS),
            "seed": int(seed),
        },
        "responses_identical": bool(responses_identical),
        "placements": rows,
        "partitioned_overhead": (
            elapsed_by_placement["partitioned"] / elapsed_by_placement["shared"]
        ),
    }


def test_tenant_placement_throughput(single_round, benchmark):
    """Shared vs partitioned placement throughput (records JSON)."""
    results = single_round(run_tenant_benchmark)
    bench_engine.record_timings("bench_tenant", results)

    for row in results["placements"]:
        benchmark.extra_info[f"{row['placement']}/qps"] = round(row["qps"], 1)
        benchmark.extra_info[f"{row['placement']}/coalescing"] = round(
            row["coalescing_factor"], 1
        )
    benchmark.extra_info["partitioned_overhead"] = round(
        results["partitioned_overhead"], 2
    )

    assert results["responses_identical"]
    by_placement = {row["placement"]: row for row in results["placements"]}
    # isolation must actually isolate: no partitioned tick ever mixed tenants
    assert by_placement["partitioned"]["mixed_ticks"] == 0
    # ...and still coalesce: per-tenant groups keep amortising requests
    assert by_placement["partitioned"]["coalescing_factor"] > 1.0
    assert results["partitioned_overhead"] <= MAX_TENANT_OVERHEAD, (
        f"partitioned placement costs {results['partitioned_overhead']:.2f}x "
        f"the shared wall time (gate {MAX_TENANT_OVERHEAD}x)"
    )


def main():  # pragma: no cover - console entry point
    results = run_tenant_benchmark()
    bench_engine.record_timings("bench_tenant", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {bench_engine.RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
