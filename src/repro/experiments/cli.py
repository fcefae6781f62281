"""Command-line front end for the unified experiment API.

Run any subset of the registered experiments at any scale, under any
executor backend (in-process serial, one host's worker pool, or the
distributed work queue), optionally under non-default scenarios, and
serialise the results::

    python -m repro.experiments table1 figure4 --scale smoke
    python -m repro.experiments --list
    python -m repro.experiments table1 --scenarios noisy-device quantized-adc
    python -m repro.experiments sweep-adc-bits --scale smoke --executor process
    python -m repro.experiments figure5 --executor queue --workers 4 \
        --journal run.jsonl
    python -m repro.experiments figure5 --executor queue --resume run.jsonl \
        --journal run.jsonl                      # skip completed chunks
    python -m repro.experiments figure5 --executor queue --workers 0 \
        --serve 127.0.0.1:7070 --auth-file queue.key   # remote workers only
    python -m repro.experiments --connect 127.0.0.1:7070 --auth-file queue.key

Remote workers must hold the coordinator's shared auth key (``--auth-file``
or the ``REPRO_QUEUE_AUTH`` environment variable): every connection passes
an HMAC handshake before any frame is parsed, because the work-queue wire
carries pickles.  Keep coordinators on loopback and reach them through SSH
tunnels (``ssh -L 7070:127.0.0.1:7070 coordinator-host``); binding a
non-loopback address requires an explicit key and warns.

``--mode`` is the deprecated spelling of ``--executor``.
``scripts/run_experiments.py`` is a thin wrapper around the same entry point.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from typing import List, Optional

from repro.experiments.config import SCALES
from repro.experiments.registry import get_experiment, list_experiments, run_experiments
from repro.experiments.runner import ParallelRunner
from repro.experiments.scenario import SCENARIOS, get_scenario, list_scenarios


def build_parser() -> argparse.ArgumentParser:
    from repro.executor import EXECUTOR_NAMES
    from repro.executor.chunking import DEFAULT_CHUNK_SIZE
    from repro.executor.cli import parse_address

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
        help="execution backend: serial (default), process/thread (one "
        "host's pool), queue (distributed work queue; see --serve/--connect)",
    )
    parser.add_argument(
        "--mode",
        default=None,
        choices=ParallelRunner.VALID_MODES,
        help="DEPRECATED alias of --executor",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count: pool size for process/thread (default: CPU "
        "count / 2), spawned worker subprocesses for queue (default: 2; "
        "--workers 0 relies on externally attached workers)",
    )
    parser.add_argument(
        "--serve",
        type=parse_address,
        default=None,
        metavar="HOST:PORT",
        help="queue executor only: coordinator bind address (default "
        "127.0.0.1 on a free port) — remote workers attach with --connect; "
        "non-loopback binds require --auth-file (the wire carries pickles)",
    )
    parser.add_argument(
        "--auth-file",
        default=None,
        metavar="PATH",
        help="file holding the work-queue shared auth key, used by both "
        "--serve (coordinator) and --connect (worker); default: the "
        "REPRO_QUEUE_AUTH environment variable, or an ephemeral key for "
        "loopback-only runs",
    )
    parser.add_argument(
        "--connect",
        type=parse_address,
        default=None,
        metavar="HOST:PORT",
        help="run as a WORKER attached to the coordinator at this address "
        "(no experiments are selected; shorthand for "
        "'python -m repro.executor worker --connect')",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        metavar="N",
        help=f"queue executor only: jobs per lease (default {DEFAULT_CHUNK_SIZE})",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="queue executor only: write a resumable JSONL progress journal",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="queue executor only: replay completed chunks from a previous "
        "journal instead of re-running them (bit-identically)",
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
    from repro.executor import QueueExecutor, resolve_executor

    name = args.executor
    if args.mode is not None:
        if name is not None:
            raise SystemExit("pass --executor or the deprecated --mode, not both")
        warnings.warn(
            "--mode is deprecated; use --executor", DeprecationWarning, stacklevel=2
        )
        name = args.mode
    if name in (None, "serial"):
        return None
    if name == "queue":
        from repro.executor.cli import load_auth_key

        host, port = args.serve if args.serve is not None else ("127.0.0.1", 0)
        return QueueExecutor(
            n_workers=2 if args.workers is None else args.workers,
            chunk_size=args.chunk_size,
            host=host,
            port=port,
            auth_key=load_auth_key(args.auth_file) if args.auth_file else None,
            journal=args.journal,
            resume=args.resume,
        )
    return resolve_executor(name, max_workers=args.workers)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.connect is not None:
        from repro.executor.cli import load_auth_key
        from repro.executor.worker import run_worker

        host, port = args.connect
        auth_key = load_auth_key(args.auth_file) if args.auth_file else None
        return run_worker(host, port, auth_key=auth_key)
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

    executor = _build_executor(args)
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
