"""Benchmark the scenario-sweep subsystem: curve sanity, serial vs pool.

Runs the ``sweep-adc-bits`` experiment at ``smoke`` scale once serially and
once on a ``PoolExecutor(mode="process")`` pool, asserts the results are
bit-identical, checks the leakage curve is monotonicity-sane (leakage must
not degrade as the attacker's acquisition ADC gains bits, and the most
faithful setting must leak strictly more than the most degraded one), and
records curve + wall times into ``BENCH_engine.json`` under ``bench_sweeps``
so ``scripts/check_bench_regression.py`` can gate on them across PRs.

The serial run also counts its victim trainings (``prepare_model`` calls)
against the distinct victims its jobs need (``ScenarioSpec.victim_key``);
the gate fails when a victim was trained more than once.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.executor import PoolExecutor
from repro.experiments import get_experiment, resolve_scale
from repro.experiments import runner as experiment_runner

SWEEP_NAME = "sweep-adc-bits"

#: Per-step slack for the monotonicity check: quantisation is deterministic
#: but the two smoke seeds leave a little spread at the coarse end.
MONOTONE_TOLERANCE = 0.05

#: The most faithful setting must beat the most degraded one by this much.
MIN_CURVE_RISE = 0.01


def _run(executor=None):
    return get_experiment(SWEEP_NAME).run("smoke", executor=executor, base_seed=0)


def _results_identical(a, b) -> bool:
    """Strict bit-identity over every per-job metric payload."""
    if len(a.sweep) != len(b.sweep):
        return False
    for run_a, run_b in zip(a.sweep, b.sweep):
        if run_a.name != run_b.name or run_a.metrics != run_b.metrics:
            return False
    return True


def monotone_ok(leakage_curve, *, tolerance=MONOTONE_TOLERANCE, min_rise=MIN_CURVE_RISE) -> bool:
    """True when the curve rises with fidelity (modulo per-step tolerance)."""
    curve = np.asarray(leakage_curve, dtype=float)
    if curve.size < 2 or not np.all(np.isfinite(curve)):
        return False
    steps_ok = bool(np.all(np.diff(curve) >= -tolerance))
    return steps_ok and bool(curve[-1] - curve[0] >= min_rise)


def _count_trainings(fn):
    """``(fn(), prepare_model calls during it)``, starting from an empty memo."""
    original = experiment_runner.prepare_model
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    experiment_runner.clear_victim_memo()
    experiment_runner.prepare_model = counted
    try:
        return fn(), len(calls)
    finally:
        experiment_runner.prepare_model = original


def _distinct_victims() -> int:
    """Victims the jobs of :func:`_run` need, one per distinct victim key."""
    experiment = get_experiment(SWEEP_NAME)
    jobs = experiment.build_jobs(
        resolve_scale("smoke"), [experiment.spec.base], base_seed=0
    )
    return len({job.scenario.victim_key(job.scale, job.seed) for job in jobs})


def test_sweep_curve_and_parallel_identity(single_round, benchmark):
    """Smoke-scale knob sweep: sane leakage curve, serial vs process identical."""
    start = time.perf_counter()
    serial, victim_trainings = _count_trainings(lambda: single_round(_run))
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = _run(PoolExecutor(mode="process"))
    parallel_s = time.perf_counter() - start

    identical = _results_identical(serial, parallel)
    entry = serial.summary["curves"][0]
    curve_ok = monotone_ok(entry["leakage_mean"])
    entry_victims = _distinct_victims()
    bench_engine.record_timings(
        "bench_sweeps",
        {
            "sweep": SWEEP_NAME,
            "knob": serial.summary["knob"],
            "values": entry["values"],
            "leakage_curve": entry["leakage_mean"],
            "advantage_curve": entry["advantage_mean"],
            "monotone_ok": curve_ok,
            "n_jobs": len(serial.sweep),
            "serial_s": serial_s,
            "process_s": parallel_s,
            "results_identical": identical,
            "victim_trainings": victim_trainings,
            "distinct_victims": entry_victims,
        },
    )
    benchmark.extra_info["n_jobs"] = len(serial.sweep)
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["process_s"] = round(parallel_s, 2)
    benchmark.extra_info["leakage_curve"] = [
        round(v, 3) for v in entry["leakage_mean"]
    ]

    assert victim_trainings <= entry_victims, (
        f"serial sweep trained {victim_trainings} victims for "
        f"{entry_victims} distinct ones"
    )
    assert identical, "process-pool results diverged from the serial path"
    assert curve_ok, (
        f"leakage curve is not monotonicity-sane: {entry['leakage_mean']} "
        f"over {entry['values']}"
    )
