"""Tier-1 smoke run of the fused-engine benchmark (``@pytest.mark.engine``).

Runs ``benchmarks/bench_engine.py`` at tiny sizes so every test run proves
the fused single-pass engine is not slower than the legacy two-pass path,
and exercises ``scripts/check_bench_regression.py`` end-to-end against the
recorded timings.  Deselect with ``-m "not engine"``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_engine = _load_module(REPO_ROOT / "benchmarks" / "bench_engine.py", "bench_engine")
check_bench = _load_module(
    REPO_ROOT / "scripts" / "check_bench_regression.py", "check_bench_regression"
)


@pytest.fixture(scope="module")
def smoke_results():
    """One tiny engine-benchmark run shared by the smoke assertions."""
    return bench_engine.run_engine_benchmark(
        n_inputs=96, n_outputs=8, batch_sizes=(1, 32, 128), repeats=7, seed=0
    )


@pytest.mark.engine
def test_fused_engine_not_slower_than_legacy(smoke_results):
    """Regression guard: the fused path must never lose to two passes.

    The hard gate is the deterministic operation count (1 traversal per
    power-exposed batch).  The wall-clock assertion is deliberately loose —
    only the *best* batch size, with margin — because these are microsecond
    workloads and tier-1 runs on arbitrarily loaded machines; the strict
    >= 2x threshold is enforced by benchmarks/bench_engine.py and
    scripts/check_bench_regression.py on dedicated bench runs.
    """
    assert smoke_results["array_ops_per_power_query_batch"] == 1
    speedups = [row["speedup"] for row in smoke_results["oracle_query"]]
    # Structural win is 3 traversals -> 1; even heavy timer noise on a
    # contended runner leaves the best-of-timings peak above break-even.
    assert max(speedups) >= 1.2


@pytest.mark.engine
def test_probing_batch_not_slower_than_loop(smoke_results):
    assert smoke_results["probing"]["speedup"] >= 1.0


@pytest.mark.engine
def test_check_bench_regression_script(smoke_results, tmp_path):
    """The CI gate passes on healthy timings and fails on a regression."""
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"engine": smoke_results}))
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
            "--path",
            str(path),
            "--min-speedup",
            "0.0",
            "--min-peak-speedup",
            "1.2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # Synthesize a regression: fused slower than legacy at every batch size.
    regressed = json.loads(json.dumps({"engine": smoke_results}))
    for row in regressed["engine"]["oracle_query"]:
        row["speedup"] = 0.5
    failures = check_bench.check_results(regressed)
    assert failures and any("slower" in f for f in failures)

    # Missing file is reported as a distinct error code.
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
            "--path",
            str(tmp_path / "missing.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
