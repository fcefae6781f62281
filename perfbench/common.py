"""What every benchmark process shares: paths, workloads, metrics, stamps."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run outputs (stamped results, Chrome traces); ignored by git.
OUT = ROOT / "perfbench" / "out"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Workload seeds map onto this many experiment base seeds, each with a
#: stored reference of every job's metrics (``perfbench/reference.json``).
N_BASE_SEEDS = 8


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout holding ``src/repro``."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    ``experiment`` workloads run a registered experiment once per fresh
    worker process, on the serial executor, ``round(seconds / rep_seconds)``
    times (at least once) — a count fixed by the run length, so both sides
    of a comparison do the same work.  ``serve`` workloads drive a victim
    behind the networked query service from a closed-loop client.
    """

    name: str
    kind: str
    experiment: str = ""
    scale: str = ""
    scale_overrides: Dict[str, int] = field(default_factory=dict)
    rep_seconds: float = 0.0
    scenario: str = ""


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sweep-adc",
            "experiment",
            experiment="sweep-adc-bits",
            scale="bench",
            rep_seconds=5.0,
        ),
        Workload(
            "tenant-ladder",
            "experiment",
            experiment="cross-tenant-attack",
            scale="smoke",
            scale_overrides={"n_runs": 1},
            rep_seconds=25.0,
        ),
        Workload("serve-ideal", "serve", scenario="paper/mnist-softmax"),
        Workload("serve-noisy", "serve", scenario="noisy-device"),
    )
}

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER: Dict[str, str] = {
    "experiments.run.s": "s",
    "datasets.prepare_dataset.calls": "count",
    "datasets.prepare_dataset.s": "s",
    "nn.build_victim.calls": "count",
    "nn.build_victim.s": "s",
    "nn.victim_reuse_ratio": "ratio",
    "crossbar.build_accelerator.s": "s",
    "sidechannel.probe_all.s": "s",
    "defenses.scoring.s": "s",
    "asyncio.run.s": "s",
    "asyncio.run.exit_s": "s",
    "sidechannel.run_coresident_attack.s": "s",
    "sidechannel.estimate_victim_norms.s": "s",
    "service.coalescing_factor": "ratio",
    "service.mean_tick_rows": "rows",
    "service.submit_traced.p50_ms": "ms",
    "netservice.wire_overhead_ms": "ms",
    "netservice.encode_frame.calls": "count",
    "netservice.encode_frame.s": "s",
    "crossbar.forward_with_power.s": "s",
    "crossbar.rows_per_s": "rows/s",
    "server.cpu_ms_per_request": "ms",
    "client.cpu_ms_per_request": "ms",
    "executor.overhead_s": "s",
    "tracing.overhead_frac": "ratio",
}


def base_seed_for(seed: int) -> int:
    """The experiment ``base_seed`` a workload seed selects."""
    return int(seed) % N_BASE_SEEDS


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident memory of the calling process (Linux ``ru_maxrss`` is KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> Optional[int]:
    """Threads of the OpenBLAS that numpy loaded, or ``None`` if unknown."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> Optional[str]:
    """The checkout's commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(trace: bool) -> Dict[str, object]:
    """The environment a result was measured in; compare only equal stamps."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "tracing": bool(trace),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
