"""One repetition of an experiment workload, in a fresh interpreter.

Usage (from the repository root)::

    python3 -m perfbench.exp_worker --workload sweep-adc --base-seed 3 [--trace]

Prints ``ready`` once the imports are done and the experiment is resolved
(the parent times set-up up to that line), then runs the experiment once on
the serial executor and prints one JSON line: wall time, per-job durations
and metrics, peak memory and, with ``--trace``, every layer span.  With
``--setup-only`` it exits after ``ready``.  A fresh process per repetition
is what a user of the CLI pays, so no per-process memo survives between
repetitions.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from perfbench.common import WORKLOADS, peak_rss_mb, use_checkout_sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.kind != "experiment":
        parser.error(f"{workload.name} is not an experiment workload")

    # An interactive CLI user has Python's default SIGINT handler; a worker
    # launched with SIGINT ignored (nohup, a background job) would not, and
    # asyncio.run's teardown takes a different, much cheaper path without it.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    use_checkout_sources()
    from repro.experiments import get_experiment
    from repro.experiments.config import resolve_scale

    from perfbench.tracer import LAYER_HOOKS, Tracer, job_hook

    experiment = get_experiment(workload.experiment)
    scale = resolve_scale(workload.scale).with_overrides(**workload.scale_overrides)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Job durations are timed in every run (one wrapper call per job); the
    # layer hooks only with --trace.
    tracer = Tracer(f"{workload.name} worker")
    hooks = [job_hook(experiment)] + (list(LAYER_HOOKS) if args.trace else [])
    with tracer.install(hooks):
        start = time.perf_counter_ns()
        result = experiment.run(scale, executor="serial", base_seed=args.base_seed)
        end = time.perf_counter_ns()
    tracer.record("experiments.run", start, end)

    payload = {
        "wall_s": (end - start) / 1e9,
        "job_s": tracer.durations["experiments.run_job"],
        "jobs": [{"name": run.name, "metrics": dict(run.metrics)} for run in result.sweep],
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        payload["layers"] = tracer.summary()
        payload["events"] = tracer.chrome_events()
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
