"""Command-line front end for the unified experiment API.

Run any subset of the registered experiments at any scale, under any
executor backend (in-process serial, or one host's process or thread pool),
optionally under non-default scenarios, and serialise the results::

    python -m repro.experiments table1 figure4 --scale smoke
    python -m repro.experiments --list
    python -m repro.experiments table1 --scenarios noisy-device quantized-adc
    python -m repro.experiments sweep-adc-bits --scale smoke --executor process
    python -m repro.experiments figure5 --executor process --workers 2
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.config import SCALES
from repro.experiments.registry import get_experiment, list_experiments, run_experiments
from repro.experiments.scenario import SCENARIOS, get_scenario, list_scenarios


def build_parser() -> argparse.ArgumentParser:
    from repro.executor import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiment pipelines through the unified registry.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names to run (default: all registered experiments)",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=sorted(SCALES),
        help="size preset shared by all selected experiments (default: bench)",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        metavar="SCENARIO",
        help="scenario preset names (default: the four paper configurations)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=EXECUTOR_NAMES,
        help="execution backend: serial (default), or process/thread (one "
        "host's pool)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for process/thread, at least 1 (default: CPU count)",
    )
    parser.add_argument("--base-seed", type=int, default=0, help="root seed (default: 0)")
    parser.add_argument(
        "--output-dir",
        default=None,
        help="serialise each ExperimentResult to <dir>/<experiment>_<scale>.json",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="list scenario presets and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the formatted result tables"
    )
    return parser


def _build_executor(args):
    """Map the parsed CLI flags onto an Executor instance (or None)."""
    from repro.executor import resolve_executor

    if args.executor in (None, "serial"):
        return None
    return resolve_executor(args.executor, max_workers=args.workers)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        names = list_experiments()
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name:{width}s}  {get_experiment(name).description}")
        return 0
    if args.list_scenarios:
        for name in list_scenarios():
            print(f"{name:24s} {SCENARIOS[name].description}")
        return 0

    names = args.experiments or None
    if names:
        for name in names:
            get_experiment(name)  # fail fast on unknown names
    scenarios = args.scenarios
    if scenarios:
        scenarios = [get_scenario(name) for name in scenarios]

    try:
        executor = _build_executor(args)
    except ValueError as exc:  # e.g. --workers 0
        parser.error(str(exc))
    executor_name = executor.name if executor is not None else "serial"

    start = time.perf_counter()
    results = run_experiments(
        names,
        args.scale,
        executor=executor,
        scenarios=scenarios,
        base_seed=args.base_seed,
        output_dir=args.output_dir,
    )
    elapsed = time.perf_counter() - start

    for name, result in results.items():
        if not args.quiet:
            print(get_experiment(name).format_result(result))
            print()
    print(
        f"ran {len(results)} experiment(s) at scale={args.scale} "
        f"in {elapsed:.1f}s ({executor_name} executor)"
    )
    if args.output_dir:
        print(f"results serialised to {args.output_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
