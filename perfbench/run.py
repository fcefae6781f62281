"""Run one benchmark workload; print every metric, then one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-adc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the layers unwrapped.
``--trace 1`` makes a separate traced run: it reports the per-layer metrics
and the tracing overhead, and writes a Chrome trace-event file (open it in
Perfetto) under ``perfbench/out/``.  Every result is also written there,
stamped with the environment it was measured in.  The last line of standard
output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run outside a checkout holding ``src/repro`` the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    END_TO_END,
    OUT,
    PER_LAYER,
    REFERENCE_PATH,
    ROOT,
    WORKLOADS,
    CheckoutError,
    Workload,
    base_seed_for,
    median,
    percentile,
    stamp,
    use_checkout_sources,
    write_json,
)

#: Set-ups per untraced run, each in a fresh process; the median is reported.
SETUP_SAMPLES = 5
#: Unmeasured closed-loop load before the timed stretch (connections warm).
WARMUP_S = 1.0
#: Query rows the closed loop cycles through.
POOL_ROWS = 4096
#: ``wall_s`` of a serve workload: time to complete this many requests.
SERVE_BLOCK = 1000
#: Relative tolerance when comparing job metrics with the stored reference.
REFERENCE_RTOL = 1e-9
#: Hard stop for one run, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A worker or server misbehaved; the run has no valid result."""


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {RUN_TIMEOUT_S} s")


# ------------------------------------------------------------------ experiments


def run_experiment_rep(
    workload: Workload, base_seed: int, *, trace: bool = False, setup_only: bool = False
) -> Tuple[float, Optional[dict]]:
    """One fresh worker: ``(seconds from spawn to ready, result payload)``."""
    command = [
        sys.executable,
        "-m",
        "perfbench.exp_worker",
        "--workload",
        workload.name,
        "--base-seed",
        str(base_seed),
    ]
    command += ["--trace"] if trace else []
    command += ["--setup-only"] if setup_only else []
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = process.communicate()
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if ready.strip() != "ready" or process.returncode != 0:
        raise BenchmarkError(f"experiment worker failed (exit {process.returncode})")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def load_reference(workload: Workload, base_seed: int) -> Optional[List[dict]]:
    if not REFERENCE_PATH.is_file():
        return None
    stored = json.loads(REFERENCE_PATH.read_text())
    return stored.get(workload.name, {}).get(str(base_seed))


def _same_value(value: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(value)
    return math.isclose(value, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


def job_mismatches(jobs: List[dict], reference: Optional[List[dict]]) -> int:
    """Jobs whose name or metrics differ from the stored reference."""
    if reference is None or len(reference) != len(jobs):
        return len(jobs)
    mismatches = 0
    for job, expected in zip(jobs, reference):
        same = (
            job["name"] == expected["name"]
            and job["metrics"].keys() == expected["metrics"].keys()
            and all(
                _same_value(job["metrics"][key], value)
                for key, value in expected["metrics"].items()
            )
        )
        mismatches += not same
    return mismatches


def _job_metric_mean(jobs: List[dict], key: str) -> float:
    values = [job["metrics"][key] for job in jobs if key in job["metrics"]]
    return sum(values) / len(values) if values else 0.0


def span_layers(layers: dict) -> Dict[str, float]:
    """Every per-layer metric one process's span aggregates give.

    A metric whose layer the workload never called reads 0.
    """
    seconds, calls, rows = layers["seconds"], layers["calls"], layers["rows"]
    victims = calls.get("nn.build_victim", 0)
    submit = layers["durations"].get("service.submit_traced", [])
    forward_s = seconds.get("crossbar.forward_with_power", 0.0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "datasets.prepare_dataset.calls": calls.get("datasets.prepare_dataset", 0),
            "nn.build_victim.calls": victims,
            "nn.victim_reuse_ratio": (
                layers["distinct_keys"].get("nn.build_victim", 0) / victims if victims else 0.0
            ),
            "defenses.scoring.s": seconds.get("defenses.leakage_correlation", 0.0)
            + seconds.get("defenses.single_pixel_attack_advantage", 0.0),
            "asyncio.run.exit_s": seconds.get("asyncio.run.exit", 0.0),
            "service.submit_traced.p50_ms": percentile(submit, 50) * 1e3 if submit else 0.0,
            "netservice.encode_frame.calls": calls.get("netservice.encode_frame", 0),
            "crossbar.rows_per_s": (
                rows.get("crossbar.forward_with_power", 0) / forward_s if forward_s else 0.0
            ),
        }
    )
    for span in (
        "datasets.prepare_dataset",
        "nn.build_victim",
        "crossbar.build_accelerator",
        "sidechannel.probe_all",
        "asyncio.run",
        "sidechannel.run_coresident_attack",
        "sidechannel.estimate_victim_norms",
        "netservice.encode_frame",
        "crossbar.forward_with_power",
    ):
        metrics[f"{span}.s"] = seconds.get(span, 0.0)
    return metrics


def experiment_layers(traced: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    wall = traced["wall_s"]
    metrics = span_layers(traced["layers"])
    metrics.update(
        {
            "experiments.run.s": wall,
            "service.coalescing_factor": _job_metric_mean(traced["jobs"], "coalescing_factor"),
            "service.mean_tick_rows": _job_metric_mean(traced["jobs"], "mean_tick_rows"),
            "executor.overhead_s": wall - sum(traced["job_s"]),
            "tracing.overhead_frac": traced["layers"]["overhead_s"] / wall,
        }
    )
    return metrics


def run_experiment_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    base_seed = base_seed_for(seed)
    reference = load_reference(workload, base_seed)
    if trace:
        reps = [run_experiment_rep(workload, base_seed, trace=True)[1]]
    else:
        # A fixed count, so both sides of a comparison measure the same work.
        n_reps = max(1, round(seconds / workload.rep_seconds))
        # Set-up is timed in set-up-only workers, one before each repetition
        # and the rest after, so its median spans the run's host-speed drift.
        setups, reps = [], []
        for index in range(max(n_reps, SETUP_SAMPLES)):
            if index < SETUP_SAMPLES:
                setups.append(run_experiment_rep(workload, base_seed, setup_only=True)[0])
            if index < n_reps:
                reps.append(run_experiment_rep(workload, base_seed)[1])

    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = sum(job_mismatches(rep["jobs"], reference) for rep in reps)
    events = reps[-1].get("events", [])
    if trace:
        return attempted, failed, experiment_layers(reps[0]), events
    job_s = [duration for rep in reps for duration in rep["job_s"]]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([rep["wall_s"] for rep in reps]),
        "qps": median([len(rep["jobs"]) / rep["wall_s"] for rep in reps]),
        "latency_p50_ms": percentile(job_s, 50) * 1e3,
        "latency_p90_ms": percentile(job_s, 90) * 1e3,
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }
    return attempted, failed, metrics, events


# ---------------------------------------------------------------------- serving


class ServerProcess:
    """A ``perfbench.serve_worker`` process driven over its stdin/stdout."""

    def __init__(self, scenario: str, victim_seed: int, service_seed: int):
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "perfbench.serve_worker",
                "--scenario",
                scenario,
                "--victim-seed",
                str(victim_seed),
                "--service-seed",
                str(service_seed),
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.port = int(ready["port"])
        self.n_features = int(ready["n_features"])

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"server exited (status {self.process.poll()})")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Drain and stop the server; its final report."""
        try:
            final = self.command("stop")
            self.process.wait(timeout=30)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


def _stats_delta(before: dict, after: dict) -> Tuple[float, float]:
    """``(coalescing factor, mean tick rows)`` of the ticks between two stats."""
    ticks = after["n_ticks"] - before["n_ticks"]
    if not ticks:
        return 0.0, 0.0
    requests = after["n_requests"] - before["n_requests"]
    return requests / ticks, (after["n_rows"] - before["n_rows"]) / ticks


def serve_layers(phase, stats, marks, client_overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced stretch of a serve run."""
    server = marks[1]["layers"]
    metrics = span_layers(server)
    coalescing, tick_rows = _stats_delta(*stats)
    completed = max(phase.completed, 1)
    metrics.update(
        {
            "service.coalescing_factor": coalescing,
            "service.mean_tick_rows": tick_rows,
            "netservice.wire_overhead_ms": percentile(phase.latencies_s, 50) * 1e3
            - metrics["service.submit_traced.p50_ms"],
            "server.cpu_ms_per_request": (marks[1]["cpu_s"] - marks[0]["cpu_s"])
            / completed
            * 1e3,
            "client.cpu_ms_per_request": phase.client_cpu_s / completed * 1e3,
            "tracing.overhead_frac": (server["overhead_s"] + client_overhead_s)
            / phase.elapsed_s,
        }
    )
    return metrics


def run_serve_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    import numpy as np

    from perfbench.loadgen import LoadGenerator, replay_mismatches
    from perfbench.serve_worker import build_oracle
    from perfbench.tracer import Tracer

    victim_seed = base_seed_for(seed)
    setups: List[float] = []

    def start_server() -> ServerProcess:
        start = time.perf_counter()
        server = ServerProcess(workload.scenario, victim_seed, service_seed=int(seed))
        setups.append(time.perf_counter() - start)
        return server

    # Untraced, set-up is timed before and after the load, so its median
    # spans the run's host-speed drift; the last server started before the
    # load serves it.
    server = start_server()
    for _ in range(0 if trace else SETUP_SAMPLES - SETUP_SAMPLES // 2 - 1):
        server.stop()
        server = start_server()

    rng = np.random.default_rng([int(seed), 0x5E7])
    pool = rng.uniform(0.0, 1.0, size=(POOL_ROWS, server.n_features))
    client_tracer = Tracer("load generator") if trace else None

    # drive() returns nothing: with Python's default SIGINT handler,
    # asyncio.run's teardown formats the task's result, at a cost that grows
    # with the result.
    outcome = {"stats": [], "marks": []}

    async def drive():
        async with LoadGenerator(server.port, pool) as load:
            await load.run(WARMUP_S)
            if trace:
                server.command("trace-on")
                outcome["marks"].append(server.command("mark"))
                outcome["stats"].append(await load.service_stats())
            outcome["phase"] = await load.run(seconds, tracer=client_tracer)
            if trace:
                outcome["stats"].append(await load.service_stats())
                outcome["marks"].append(server.command("mark"))

    try:
        asyncio.run(drive())
    except BaseException:  # a failed or timed-out run may leave the server hung
        server.kill()
        raise
    final = server.stop()
    for _ in range(0 if trace else SETUP_SAMPLES // 2):
        start_server().stop()
    phase = outcome["phase"]
    if not phase.completed:
        raise BenchmarkError("no request completed")

    oracle, _ = build_oracle(workload.scenario, victim_seed)
    attempted = phase.completed + phase.failed
    failed = phase.failed + replay_mismatches(oracle, pool, phase.samples)
    if trace:
        metrics = serve_layers(
            phase, outcome["stats"], outcome["marks"], client_tracer.overhead_s()
        )
        return attempted, failed, metrics, final["events"] + client_tracer.chrome_events()

    latencies_ms = [latency * 1e3 for latency in phase.latencies_s]
    metrics = {
        "setup_s": median(setups),
        "wall_s": phase.elapsed_s * SERVE_BLOCK / phase.completed,
        "qps": phase.completed / phase.elapsed_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": final["peak_rss_mb"],
    }
    return attempted, failed, metrics, final["events"]


# ------------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    runner = run_serve_workload if workload.kind == "serve" else run_experiment_workload
    try:
        attempted, failed, metrics, events = runner(workload, args.seed, args.seconds, trace)
    except (BenchmarkError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    units = PER_LAYER if trace else END_TO_END
    environment = stamp(trace)
    tag = f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    print(f"perfbench {workload.name} seed={args.seed} base_seed={base_seed_for(args.seed)}")
    print("stamp " + json.dumps(environment, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<38} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    write_json(
        OUT / f"result-{tag}.json",
        {"workload": workload.name, "seed": args.seed, "stamp": environment, **result},
    )
    if trace:
        trace_path = OUT / f"trace-{tag}.json"
        write_json(
            trace_path,
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": environment},
        )
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
