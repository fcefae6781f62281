"""Netservice benchmark: shared networked accelerator vs per-request connections.

Measures what the networked multi-tenant front-end buys over the naive
deployment (a fresh connection per query, no cross-client coalescing):

* **one-request-per-connection baseline** — every query pays TCP connect +
  hello + a solo fused traversal, the cost model of attackers that do not
  share a service;
* **offered load** — ``w`` client *processes* (forked; threads when fork is
  unavailable), each holding one persistent :class:`NetClient` and pushing
  its share of single-row queries back-to-back, so the server coalesces
  ~``w`` tenants' rows into each fused traversal.

The acceptance criterion is a >= MIN_NET_SPEEDUP throughput gain at offered
load >= 8 workers.  The threshold is deliberately conservative: on a
single-core machine the offered load cannot overlap round trips, so the
entire gain must come from CPU actually saved per query (skipped connection
setup plus fused traversals amortised across coalesced rows) minus the
kernel's context-switch tax for juggling the worker processes.  On multicore
hosts the same workload additionally overlaps client round trips and the
measured speedup is far higher.  Results are merged into
``BENCH_engine.json`` under ``bench_netservice`` and gated by
``scripts/check_bench_regression.py`` (``--min-net-speedup``).  A
correctness guard asserts wire responses are bit-identical to direct seeded
queries before anything is timed.
"""

import json
import multiprocessing
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.attacks.oracle import Oracle
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.netservice import NetClient, NetServiceConfig, serve_in_thread
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.service import ServiceConfig
from repro.utils.rng import derive_request_seeds

N_REQUESTS = 256
WORKER_LEVELS = (1, 8, 16)
NET_CONFIG = NetServiceConfig(service=ServiceConfig(max_batch=64, max_wait_ms=2.0))

#: Victim model size.  A multi-layer network (rather than bench_engine's
#: single Dense layer) so a fused traversal does real work: coalescing can
#: only beat one-request-per-connection when there is per-query compute to
#: amortise across the batch, which is exactly the regime the service targets.
HIDDEN_WIDTH = 1024
N_HIDDEN_LAYERS = 2

#: Acceptance criterion: throughput gain at offered load >= 8 workers.
#: Conservative single-core floor (see module docstring); typical measured
#: values on this class of machine are 1.5-1.8x.
MIN_NET_SPEEDUP = 1.3


def build_oracle(*, n_inputs=256, n_outputs=10, seed=0):
    layers = [Dense(n_inputs, HIDDEN_WIDTH, activation="relu", random_state=seed)]
    for index in range(N_HIDDEN_LAYERS - 1):
        layers.append(
            Dense(
                HIDDEN_WIDTH,
                HIDDEN_WIDTH,
                activation="relu",
                random_state=seed + 1 + index,
            )
        )
    layers.append(
        Dense(
            HIDDEN_WIDTH,
            n_outputs,
            activation="softmax",
            random_state=seed + N_HIDDEN_LAYERS,
        )
    )
    accelerator = CrossbarAccelerator(Sequential(layers), random_state=seed)
    return Oracle(accelerator, expose_power=True, random_state=seed)


def make_requests(n_inputs, *, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(N_REQUESTS, 1, n_inputs))


def check_equivalence(address, requests, *, n_inputs, seed):
    """Wire responses must be bit-identical to direct seeded queries."""
    with NetClient(address, tenant="equivalence") as client:
        responses = [client.query(request) for request in requests[:16]]
    direct = build_oracle(n_inputs=n_inputs, seed=seed)
    for request, response in zip(requests, responses):
        seeds = derive_request_seeds(
            response.metadata["base_seed"],
            response.metadata["request_id"],
            len(request),
        )
        reference = direct.query(request, seeds=seeds)
        np.testing.assert_array_equal(response.outputs, reference.outputs)
        np.testing.assert_array_equal(response.power, reference.power)
    return True


def run_one_per_connection(address, requests):
    """The naive deployment: a fresh connection (and hello) per query."""
    start = time.perf_counter()
    for request in requests:
        with NetClient(address, tenant="solo") as client:
            client.query(request)
    return time.perf_counter() - start


def _worker_main(address, share, tenant, barrier):
    with NetClient(address, tenant=tenant) as client:
        client.ping()  # connect + hello outside the timed window
        barrier.wait()
        for request in share:
            client.query(request)


def run_offered_load(address, requests, workers):
    """``workers`` processes, each a persistent client pushing its share.

    Every worker connects and then parks on a barrier, so the timed window
    covers queries only — not process forking or connection setup.  Falls
    back to threads when process forking is unavailable; either way every
    client lives outside the server's event loop, so the coalescing
    measured is genuine cross-connection batching.
    """
    shares = [requests[i::workers] for i in range(workers)]
    jobs = []
    mode = "process"
    try:
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(workers + 1)
        for index, share in enumerate(shares):
            jobs.append(
                context.Process(
                    target=_worker_main, args=(address, share, f"w{index}", barrier)
                )
            )
    except ValueError:  # platform without fork: measure with threads instead
        mode = "thread"
        barrier = threading.Barrier(workers + 1)
        for index, share in enumerate(shares):
            jobs.append(
                threading.Thread(
                    target=_worker_main, args=(address, share, f"w{index}", barrier)
                )
            )
    for job in jobs:
        job.start()
    barrier.wait()  # every worker is connected and ready
    start = time.perf_counter()
    for job in jobs:
        job.join()
    elapsed = time.perf_counter() - start
    if mode == "process" and any(job.exitcode != 0 for job in jobs):
        raise RuntimeError("an offered-load worker process failed")
    return elapsed, mode


def run_netservice_benchmark(*, n_inputs=256, n_outputs=10, seed=0):
    """Full benchmark; returns the structure stored in BENCH_engine.json."""
    requests = make_requests(n_inputs, seed=seed)
    oracle = build_oracle(n_inputs=n_inputs, n_outputs=n_outputs, seed=seed)
    with serve_in_thread(oracle, NET_CONFIG) as handle:
        address = handle.address
        responses_identical = check_equivalence(
            address, requests, n_inputs=n_inputs, seed=seed
        )
        one_per_connection_s = run_one_per_connection(address, requests)
        one_per_connection_qps = N_REQUESTS / one_per_connection_s

        rows = []
        for workers in WORKER_LEVELS:
            before = handle.service_stats()
            elapsed, mode = run_offered_load(address, requests, workers)
            after = handle.service_stats()
            # stats are cumulative over the server's lifetime: report this
            # run's delta, not a mix with the baseline's factor-1 ticks
            delta_requests = after["n_requests"] - before["n_requests"]
            delta_ticks = after["n_ticks"] - before["n_ticks"]
            rows.append(
                {
                    "workers": int(workers),
                    "workers_mode": mode,
                    "elapsed_s": elapsed,
                    "qps": N_REQUESTS / elapsed,
                    "speedup_vs_one_per_connection": one_per_connection_s / elapsed,
                    "coalescing_factor": (
                        delta_requests / delta_ticks if delta_ticks else 0.0
                    ),
                }
            )
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "hidden_width": int(HIDDEN_WIDTH),
            "n_hidden_layers": int(N_HIDDEN_LAYERS),
            "n_requests": int(N_REQUESTS),
            "max_batch": NET_CONFIG.service.max_batch,
            "max_wait_ms": NET_CONFIG.service.max_wait_ms,
            "seed": int(seed),
        },
        "responses_identical": bool(responses_identical),
        "one_per_connection_s": one_per_connection_s,
        "one_per_connection_qps": one_per_connection_qps,
        "offered_load": rows,
    }


def test_netservice_throughput(single_round, benchmark):
    """Networked coalescing vs one-request-per-connection (records JSON)."""
    results = single_round(run_netservice_benchmark)
    bench_engine.record_timings("bench_netservice", results)

    for row in results["offered_load"]:
        benchmark.extra_info[f"w={row['workers']}/speedup"] = round(
            row["speedup_vs_one_per_connection"], 2
        )

    assert results["responses_identical"]
    # Acceptance criterion: best offered-load level >= 8 workers must beat
    # the one-request-per-connection baseline by MIN_NET_SPEEDUP.
    eligible = [
        row["speedup_vs_one_per_connection"]
        for row in results["offered_load"]
        if row["workers"] >= 8
    ]
    assert max(eligible) >= MIN_NET_SPEEDUP, (
        f"networked coalescing speedup {max(eligible):.2f} at >= 8 workers is "
        f"below the required {MIN_NET_SPEEDUP}x"
    )


def main():  # pragma: no cover - console entry point
    results = run_netservice_benchmark()
    bench_engine.record_timings("bench_netservice", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {bench_engine.RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
