#!/usr/bin/env python
"""Fail when a recorded benchmark regresses against its gate.

Reads ``BENCH_engine.json`` (written by the ``benchmarks/`` suite) and exits
non-zero when any gate fails::

    python scripts/check_bench_regression.py [--path BENCH_engine.json]
                                             [--tolerance 0.05]
                                             [--json-out report.json]
                                             [--min-speedup 1.0]
                                             [--min-peak-speedup 2.0]
                                             [--min-probing-speedup 1.0]
                                             [--max-sharded-ratio 1.2]
                                             [--min-service-speedup 2.0]
                                             [--min-net-speedup 1.3]
                                             [--min-executor-speedup 0.15]
                                             [--max-tenant-overhead 1.5]

``--tolerance`` applies a uniform fractional slack to every threshold
(speedup floors become ``floor * (1 - t)``, ratio ceilings become
``ceiling * (1 + t)``), so CI on noisy shared runners can gate with one knob
instead of tuning per-threshold flags.  ``--json-out`` writes a
machine-readable report (pass/fail, failures, effective thresholds) for CI
artifacts.  Exit codes: 0 = pass, 1 = regression, 2 = missing input.

Gated sections:

* ``engine`` — fused single-pass engine vs the legacy two-pass engine:
  ``--min-speedup`` bounds every individual batch size, ``--min-peak-speedup``
  the best one (the fused-engine acceptance criterion is a >= 2x peak speedup
  on power-exposed queries against an ideal crossbar).
* ``bench_probing`` — the batched prober must not be slower than the
  per-column reference mode (``--min-probing-speedup``).
* ``bench_figure5_mnist`` / ``bench_figure5_cifar`` — must have been recorded
  from a process-pool run with a positive wall time.
* ``bench_experiments`` — the unified registry pipeline: the process-pool
  sweep must be bit-identical to the serial sweep and both wall times must be
  recorded.
* ``bench_sharding`` — multi-tile sharded forward must stay within
  ``--max-sharded-ratio`` (default 1.2x) of the single-tile per-element
  throughput for every recorded geometry.
* ``bench_sweeps`` — the scenario-sweep subsystem: the process-pool sweep
  must be bit-identical to the serial sweep, both wall times must be
  recorded, the recorded leakage curve must be monotonicity-sane
  (leakage rises with acquisition fidelity), and the serial run must have
  trained each victim once: ``victim_trainings`` may not exceed
  ``distinct_victims`` (an exact count from the victim memo, not a timing
  floor).
* ``bench_service`` — the async coalescing query service: serviced responses
  must have been verified bit-identical to direct seeded queries, and the
  best throughput at offered concurrency >= 8 must beat the
  one-request-per-call baseline by ``--min-service-speedup`` (default 2.0x).
* ``bench_netservice`` — the networked multi-tenant front-end: wire
  responses must have been verified bit-identical to direct seeded queries,
  and the best offered-load level at >= 8 worker processes must beat the
  one-request-per-connection baseline by ``--min-net-speedup`` (default
  1.3x — a single-core floor; multicore hosts measure far higher).
* ``bench_executor`` — the distributed work-queue executor: queue results
  must have been verified bit-identical to the serial reference, every chunk
  must have executed, and serial/queue wall-time ratio must stay above
  ``--min-executor-speedup`` (default 0.15 — a single-core overhead floor;
  the queue pays worker interpreter spawn + framing on a smoke-scale grid,
  so one core cannot beat serial; the gate only catches runaway overhead).
* ``bench_tenant`` — the tenant-placement policies: partitioned responses
  must have been verified bit-identical to direct seeded queries, no
  partitioned tick may have mixed tenants, per-tenant groups must still
  coalesce (factor > 1), and the partitioned wall time must stay within
  ``--max-tenant-overhead`` (default 1.5x) of the shared placement on the
  two-tenant workload.  The traced peak memory of one fixed-size co-resident
  attack round (``coresident_round.peak_mb``) may not exceed
  ``committed_peak_mb``, the value the file held before the benchmark
  re-recorded it, by more than ``--tolerance``.
* ``bench_cold_start`` — import footprint of each process entry point
  (experiments, netservice server, executor): no entry point may load any
  ``scipy*`` module (an exact count, gated at 0), and each median
  ``max_rss_mb`` must stay within :data:`COLD_START_RSS_CEILING` (relaxed by
  ``--tolerance``) of ``committed_max_rss_mb``, the value the file held
  before the benchmark re-recorded it (the committed one in a fresh
  checkout).

Sections other than ``engine`` are only checked when present, so a partial
benchmark run stays usable; ``engine`` is always required.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Default gate thresholds (before tolerance is applied).
DEFAULT_THRESHOLDS = {
    "min_speedup": 1.0,
    "min_peak_speedup": 2.0,
    "min_probing_speedup": 1.0,
    "max_sharded_ratio": 1.2,
    "min_service_speedup": 2.0,
    "min_net_speedup": 1.3,
    "min_executor_speedup": 0.15,
    "max_tenant_overhead": 1.5,
}


#: Ceiling on a cold start's peak RSS relative to its committed value.  The
#: recorded median of five interpreters moves by about 0.1% between runs; a
#: module-level ``import scipy`` would add over 60%.
COLD_START_RSS_CEILING = 1.02


def effective_thresholds(thresholds: dict, tolerance: float) -> dict:
    """Apply the uniform fractional slack to every gate threshold.

    Speedup floors (``min_*``) are relaxed downwards, ratio ceilings
    (``max_*``) upwards.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    effective = {}
    for name, value in thresholds.items():
        if name.startswith("min_"):
            effective[name] = value * (1.0 - tolerance)
        else:
            effective[name] = value * (1.0 + tolerance)
    return effective


def check_results(
    results: dict,
    *,
    tolerance: float = 0.0,
    **overrides,
) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass).

    ``overrides`` may replace any :data:`DEFAULT_THRESHOLDS` entry; the
    ``tolerance`` slack is applied on top of the (possibly overridden)
    thresholds.
    """
    unknown = set(overrides) - set(DEFAULT_THRESHOLDS)
    if unknown:
        raise TypeError(f"unknown threshold overrides: {sorted(unknown)}")
    thresholds = effective_thresholds(
        {**DEFAULT_THRESHOLDS, **overrides}, tolerance
    )
    min_speedup = thresholds["min_speedup"]
    min_peak_speedup = thresholds["min_peak_speedup"]
    min_probing_speedup = thresholds["min_probing_speedup"]
    max_sharded_ratio = thresholds["max_sharded_ratio"]
    min_service_speedup = thresholds["min_service_speedup"]
    min_net_speedup = thresholds["min_net_speedup"]
    min_executor_speedup = thresholds["min_executor_speedup"]
    max_tenant_overhead = thresholds["max_tenant_overhead"]

    failures: list[str] = []
    failures.extend(_check_probing_section(results, min_probing_speedup))
    failures.extend(_check_figure5_sections(results))
    failures.extend(_check_experiments_section(results))
    failures.extend(_check_sharding_section(results, max_sharded_ratio))
    failures.extend(_check_sweeps_section(results))
    failures.extend(_check_service_section(results, min_service_speedup))
    failures.extend(_check_netservice_section(results, min_net_speedup))
    failures.extend(_check_executor_section(results, min_executor_speedup))
    failures.extend(_check_tenant_section(results, max_tenant_overhead, tolerance))
    failures.extend(_check_cold_start_section(results, tolerance))
    engine = results.get("engine")
    if engine is None:
        return failures + [
            "no 'engine' section found — run benchmarks/bench_engine.py first"
        ]

    rows = engine.get("oracle_query", [])
    if not rows:
        failures.append("engine section has no oracle_query timings")
    for row in rows:
        if row["speedup"] < min_speedup:
            failures.append(
                f"oracle query batch={row['batch_size']}: fused path is slower "
                f"than legacy (speedup {row['speedup']:.2f} < {min_speedup:.2f})"
            )
    if rows:
        peak = max(row["speedup"] for row in rows)
        if peak < min_peak_speedup:
            failures.append(
                f"peak fused speedup {peak:.2f} is below the required "
                f"{min_peak_speedup:.2f}x"
            )

    probing = engine.get("probing")
    if probing is not None and probing["speedup"] < min_speedup:
        failures.append(
            "batched probing is slower than the per-column reference mode "
            f"(speedup {probing['speedup']:.2f} < {min_speedup:.2f})"
        )

    ops = engine.get("array_ops_per_power_query_batch")
    if ops is not None and ops != 1:
        failures.append(
            f"power-exposed oracle query performed {ops} array traversals "
            "per batch (expected exactly 1)"
        )
    return failures


def _check_probing_section(results: dict, min_probing_speedup: float) -> list[str]:
    """Gate the probing-workload timings recorded by benchmarks/bench_probing.py."""
    probing = results.get("bench_probing")
    if probing is None:
        return []
    failures: list[str] = []
    for key in ("batched_s", "per_column_s", "speedup"):
        if key not in probing:
            failures.append(f"bench_probing is missing the {key!r} timing")
    speedup = probing.get("speedup")
    if speedup is not None and speedup < min_probing_speedup:
        failures.append(
            "probing workload: batched prober is slower than the per-column "
            f"reference mode (speedup {speedup:.2f} < {min_probing_speedup:.2f})"
        )
    return failures


def _check_figure5_sections(results: dict) -> list[str]:
    """Gate the Figure 5 pipeline timings recorded by benchmarks/bench_figure5.py."""
    failures: list[str] = []
    for section in ("bench_figure5_mnist", "bench_figure5_cifar"):
        payload = results.get(section)
        if payload is None:
            continue
        elapsed = payload.get("elapsed_s")
        if not isinstance(elapsed, (int, float)) or elapsed <= 0:
            failures.append(f"{section} has no positive elapsed_s wall time")
        if payload.get("runner_mode") != "process":
            failures.append(
                f"{section} was not recorded from a process-pool run "
                f"(runner_mode={payload.get('runner_mode')!r})"
            )
    return failures


def _check_experiments_section(results: dict) -> list[str]:
    """Gate the unified-registry timings recorded by benchmarks/bench_experiments.py."""
    payload = results.get("bench_experiments")
    if payload is None:
        return []
    failures: list[str] = []
    for key in ("serial_s", "process_s"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"bench_experiments has no positive {key!r} wall time")
    if payload.get("results_identical") is not True:
        failures.append(
            "bench_experiments: process-pool results were not bit-identical "
            "to the serial sweep"
        )
    if not payload.get("experiments"):
        failures.append("bench_experiments recorded no experiment names")
    return failures


def _check_sharding_section(results: dict, max_sharded_ratio: float) -> list[str]:
    """Gate the multi-tile timings recorded by benchmarks/bench_sharding.py."""
    payload = results.get("bench_sharding")
    if payload is None:
        return []
    failures: list[str] = []
    rows = payload.get("geometries", [])
    if not rows:
        failures.append("bench_sharding recorded no geometries")
    for row in rows:
        for key in ("single_s", "sharded_s"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                failures.append(
                    f"bench_sharding {row.get('geometry')!r} has no positive "
                    f"{key!r} wall time"
                )
        ratio = row.get("ratio")
        if isinstance(ratio, (int, float)) and ratio > max_sharded_ratio:
            failures.append(
                f"sharded forward ({row.get('geometry')!r}) is {ratio:.2f}x the "
                f"single-tile per-element time (gate {max_sharded_ratio:.2f}x)"
            )
    return failures


def _check_sweeps_section(results: dict) -> list[str]:
    """Gate the scenario-sweep timings recorded by benchmarks/bench_sweeps.py."""
    payload = results.get("bench_sweeps")
    if payload is None:
        return []
    failures: list[str] = []
    for key in ("serial_s", "process_s"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"bench_sweeps has no positive {key!r} wall time")
    if payload.get("results_identical") is not True:
        failures.append(
            "bench_sweeps: process-pool results were not bit-identical "
            "to the serial sweep"
        )
    trainings = payload.get("victim_trainings")
    victims = payload.get("distinct_victims")
    if not isinstance(trainings, int) or not isinstance(victims, int):
        failures.append("bench_sweeps recorded no victim_trainings/distinct_victims counts")
    elif trainings > victims:
        failures.append(
            f"bench_sweeps: the serial sweep trained {trainings} victims for "
            f"{victims} distinct ones (each victim must be trained once)"
        )
    if not payload.get("leakage_curve"):
        failures.append("bench_sweeps recorded no leakage curve")
    if payload.get("monotone_ok") is not True:
        failures.append(
            "bench_sweeps: leakage curve is not monotonicity-sane "
            f"(curve {payload.get('leakage_curve')!r} over "
            f"{payload.get('values')!r})"
        )
    return failures


def _check_service_section(results: dict, min_service_speedup: float) -> list[str]:
    """Gate the coalescing timings recorded by benchmarks/bench_service.py."""
    payload = results.get("bench_service")
    if payload is None:
        return []
    failures: list[str] = []
    if payload.get("responses_identical") is not True:
        failures.append(
            "bench_service: serviced responses were not verified bit-identical "
            "to direct seeded queries"
        )
    direct = payload.get("direct_s")
    if not isinstance(direct, (int, float)) or direct <= 0:
        failures.append("bench_service has no positive 'direct_s' wall time")
    rows = payload.get("concurrency", [])
    if not rows:
        failures.append("bench_service recorded no concurrency rows")
    eligible = [
        row.get("speedup_vs_direct")
        for row in rows
        if isinstance(row.get("concurrency"), int) and row["concurrency"] >= 8
    ]
    eligible = [value for value in eligible if isinstance(value, (int, float))]
    if rows and not eligible:
        failures.append(
            "bench_service recorded no rows at offered concurrency >= 8"
        )
    if eligible and max(eligible) < min_service_speedup:
        failures.append(
            f"coalescing service best speedup {max(eligible):.2f}x at "
            f"concurrency >= 8 is below the required "
            f"{min_service_speedup:.2f}x vs one-request-per-call"
        )
    return failures


def _check_netservice_section(results: dict, min_net_speedup: float) -> list[str]:
    """Gate the networked-service timings recorded by benchmarks/bench_netservice.py."""
    payload = results.get("bench_netservice")
    if payload is None:
        return []
    failures: list[str] = []
    if payload.get("responses_identical") is not True:
        failures.append(
            "bench_netservice: wire responses were not verified bit-identical "
            "to direct seeded queries"
        )
    baseline = payload.get("one_per_connection_s")
    if not isinstance(baseline, (int, float)) or baseline <= 0:
        failures.append(
            "bench_netservice has no positive 'one_per_connection_s' wall time"
        )
    rows = payload.get("offered_load", [])
    if not rows:
        failures.append("bench_netservice recorded no offered-load rows")
    eligible = [
        row.get("speedup_vs_one_per_connection")
        for row in rows
        if isinstance(row.get("workers"), int) and row["workers"] >= 8
    ]
    eligible = [value for value in eligible if isinstance(value, (int, float))]
    if rows and not eligible:
        failures.append(
            "bench_netservice recorded no offered-load rows at >= 8 workers"
        )
    if eligible and max(eligible) < min_net_speedup:
        failures.append(
            f"networked service best speedup {max(eligible):.2f}x at >= 8 "
            f"workers is below the required {min_net_speedup:.2f}x vs "
            "one-request-per-connection"
        )
    return failures


def _check_executor_section(results: dict, min_executor_speedup: float) -> list[str]:
    """Gate the work-queue timings recorded by benchmarks/bench_executor.py."""
    payload = results.get("bench_executor")
    if payload is None:
        return []
    failures: list[str] = []
    if payload.get("results_identical") is not True:
        failures.append(
            "bench_executor: queue-executor results were not verified "
            "bit-identical to the serial reference"
        )
    for key in ("serial_s", "queue_s"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"bench_executor has no positive {key!r} wall time")
    stats = payload.get("stats") or {}
    if stats.get("chunks_executed") != stats.get("chunks_total"):
        failures.append(
            "bench_executor: not every chunk executed "
            f"({stats.get('chunks_executed')!r} of {stats.get('chunks_total')!r})"
        )
    workers = payload.get("n_workers")
    if not isinstance(workers, int) or workers < 2:
        failures.append(
            f"bench_executor was not recorded with >= 2 workers (got {workers!r})"
        )
    speedup = payload.get("speedup")
    if isinstance(speedup, (int, float)) and speedup < min_executor_speedup:
        failures.append(
            f"queue executor serial/queue ratio {speedup:.2f} is below the "
            f"required {min_executor_speedup:.2f} (excess coordination overhead)"
        )
    return failures


def _check_tenant_section(
    results: dict, max_tenant_overhead: float, tolerance: float
) -> list[str]:
    """Gate the placement timings and the co-resident round's memory
    recorded by benchmarks/bench_tenant.py."""
    payload = results.get("bench_tenant")
    if payload is None:
        return []
    failures: list[str] = []
    if payload.get("responses_identical") is not True:
        failures.append(
            "bench_tenant: partitioned responses were not verified "
            "bit-identical to direct seeded queries"
        )
    rows = {
        row.get("placement"): row for row in payload.get("placements", [])
    }
    for placement in ("shared", "partitioned"):
        row = rows.get(placement)
        if row is None:
            failures.append(f"bench_tenant recorded no {placement!r} placement row")
            continue
        elapsed = row.get("elapsed_s")
        if not isinstance(elapsed, (int, float)) or elapsed <= 0:
            failures.append(
                f"bench_tenant {placement!r} has no positive 'elapsed_s' wall time"
            )
    partitioned = rows.get("partitioned")
    if partitioned is not None:
        if partitioned.get("mixed_ticks") != 0:
            failures.append(
                "bench_tenant: partitioned placement mixed tenants in "
                f"{partitioned.get('mixed_ticks')!r} tick(s) — isolation broke"
            )
        factor = partitioned.get("coalescing_factor")
        if isinstance(factor, (int, float)) and factor <= 1.0:
            failures.append(
                "bench_tenant: partitioned placement stopped coalescing "
                f"(per-tenant factor {factor:.2f} <= 1)"
            )
    overhead = payload.get("partitioned_overhead")
    if not isinstance(overhead, (int, float)):
        failures.append("bench_tenant recorded no 'partitioned_overhead' ratio")
    elif overhead > max_tenant_overhead:
        failures.append(
            f"partitioned placement costs {overhead:.2f}x the shared wall "
            f"time (gate {max_tenant_overhead:.2f}x)"
        )
    memory = payload.get("coresident_round") or {}
    peak, committed = memory.get("peak_mb"), memory.get("committed_peak_mb")
    if not all(isinstance(v, (int, float)) and v > 0 for v in (peak, committed)):
        failures.append(
            "bench_tenant recorded no positive coresident_round peak_mb / "
            "committed_peak_mb"
        )
    elif peak > committed * (1.0 + tolerance):
        failures.append(
            f"bench_tenant: one co-resident round peaks at {peak:.2f} MB, over "
            f"the committed {committed:.2f} MB (tolerance {tolerance:.0%})"
        )
    return failures


def _check_cold_start_section(results: dict, tolerance: float) -> list[str]:
    """Gate the import footprint recorded by benchmarks/bench_cold_start.py."""
    payload = results.get("bench_cold_start")
    if payload is None:
        return []
    rows = payload.get("entry_points") or {}
    if not rows:
        return ["bench_cold_start recorded no entry points"]
    ceiling = COLD_START_RSS_CEILING * (1.0 + tolerance)
    failures: list[str] = []
    for name, row in sorted(rows.items()):
        if row.get("scipy_modules") != 0:
            failures.append(
                f"bench_cold_start: importing {name!r} loaded "
                f"{row.get('scipy_modules')!r} scipy modules (expected 0)"
            )
        rss, committed = row.get("max_rss_mb"), row.get("committed_max_rss_mb")
        if not all(isinstance(v, (int, float)) and v > 0 for v in (rss, committed)):
            failures.append(
                f"bench_cold_start {name!r} has no positive max_rss_mb / "
                "committed_max_rss_mb"
            )
        elif rss > committed * ceiling:
            failures.append(
                f"cold start of {name!r} peaks at {rss:.1f} MB, over "
                f"{ceiling:.2f}x the committed {committed:.1f} MB"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", type=Path, default=DEFAULT_PATH)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="uniform fractional slack applied to every threshold "
        "(0.05 relaxes speedup floors by 5%% and ratio ceilings by 5%%)",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        help="write a machine-readable pass/fail report to this path",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_THRESHOLDS["min_speedup"]
    )
    parser.add_argument(
        "--min-peak-speedup",
        type=float,
        default=DEFAULT_THRESHOLDS["min_peak_speedup"],
    )
    parser.add_argument(
        "--min-probing-speedup",
        type=float,
        default=DEFAULT_THRESHOLDS["min_probing_speedup"],
    )
    parser.add_argument(
        "--max-sharded-ratio",
        type=float,
        default=DEFAULT_THRESHOLDS["max_sharded_ratio"],
    )
    parser.add_argument(
        "--min-service-speedup",
        type=float,
        default=DEFAULT_THRESHOLDS["min_service_speedup"],
    )
    parser.add_argument(
        "--min-net-speedup",
        type=float,
        default=DEFAULT_THRESHOLDS["min_net_speedup"],
    )
    parser.add_argument(
        "--min-executor-speedup",
        type=float,
        default=DEFAULT_THRESHOLDS["min_executor_speedup"],
    )
    parser.add_argument(
        "--max-tenant-overhead",
        type=float,
        default=DEFAULT_THRESHOLDS["max_tenant_overhead"],
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    overrides = {
        "min_speedup": args.min_speedup,
        "min_peak_speedup": args.min_peak_speedup,
        "min_probing_speedup": args.min_probing_speedup,
        "max_sharded_ratio": args.max_sharded_ratio,
        "min_service_speedup": args.min_service_speedup,
        "min_net_speedup": args.min_net_speedup,
        "min_executor_speedup": args.min_executor_speedup,
        "max_tenant_overhead": args.max_tenant_overhead,
    }

    if not args.path.exists():
        print(f"error: {args.path} does not exist — run the engine benchmark first")
        if args.json_out is not None:
            _write_report(
                args.json_out,
                passed=False,
                failures=[f"benchmark file {args.path} does not exist"],
                tolerance=args.tolerance,
                thresholds=effective_thresholds(overrides, args.tolerance),
                sections=[],
            )
        return 2
    results = json.loads(args.path.read_text())
    failures = check_results(results, tolerance=args.tolerance, **overrides)
    if args.json_out is not None:
        _write_report(
            args.json_out,
            passed=not failures,
            failures=failures,
            tolerance=args.tolerance,
            thresholds=effective_thresholds(overrides, args.tolerance),
            sections=sorted(results),
        )
    if failures:
        print("bench regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench regression check passed")
    return 0


def _write_report(path, *, passed, failures, tolerance, thresholds, sections):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "passed": passed,
                "failures": failures,
                "tolerance": tolerance,
                "effective_thresholds": thresholds,
                "checked_sections": sections,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
