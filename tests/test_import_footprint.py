"""scipy stays off the runtime path.

Experiment workers, queue workers and the network server are fresh
interpreters, so what they import is paid on every start (time and resident
memory).  The paper's pipeline is numpy; scipy is loaded only by figure5's
t-test (``analysis.statistics.independent_ttest``), lazily.  Each check runs
in a subprocess so the test session's own imports cannot mask a
module-level ``import scipy``.
"""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    path = REPO_ROOT / "benchmarks" / "bench_cold_start.py"
    spec = importlib.util.spec_from_file_location("bench_cold_start", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_cold_start = _load_bench()


@pytest.mark.parametrize("entry", sorted(bench_cold_start.ENTRY_POINTS))
def test_entry_point_loads_no_scipy(entry):
    body = bench_cold_start.ENTRY_POINTS[entry]
    assert bench_cold_start.measure_entry_point(body, repeats=1)["scipy_modules"] == 0


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=bench_cold_start.checkout_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_runs_without_scipy_installed():
    """Blocking ``import scipy`` leaves experiments and the oracle working."""
    out = _run(
        """
        import sys
        sys.modules["scipy"] = None  # any ``import scipy...`` now raises

        from repro.experiments import SCALES, get_experiment
        from repro.experiments.runner import prepare_dataset
        from repro.experiments.scenario import get_scenario

        for name in ("sweep-adc-bits", "cross-tenant-attack"):
            assert get_experiment(name).run("smoke", base_seed=0).sweep
        spec = get_scenario("paper/mnist-softmax")
        scale = SCALES["smoke"]
        dataset = prepare_dataset(spec.dataset, scale, random_state=0)
        model = spec.build_victim(dataset, scale, random_state=0)
        accelerator = spec.build_accelerator(model.network, random_state=0)
        oracle = spec.build_oracle(accelerator, random_state=0)
        response = oracle.query(dataset.test_inputs[:4])
        print("ok", response.outputs.shape)
        """
    )
    assert out.splitlines()[-1].startswith("ok")


def _load_check_script():
    path = REPO_ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression_cold", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestColdStartGate:
    @staticmethod
    def _results(**row):
        entry = {"import_s": 0.3, "max_rss_mb": 41.0, "committed_max_rss_mb": 40.0,
                 "scipy_modules": 0, **row}
        return {
            "engine": {
                "oracle_query": [{"batch_size": 16, "speedup": 2.5}],
                "array_ops_per_power_query_batch": 1,
            },
            "bench_cold_start": {"repeats": 5, "entry_points": {"experiments": entry}},
        }

    def test_scipy_count_gated_at_zero(self):
        check = _load_check_script()
        results = self._results(max_rss_mb=40.0)
        assert check.check_results(results) == []
        results = self._results(max_rss_mb=40.0, scipy_modules=1)
        failures = check.check_results(results, tolerance=0.5)
        assert failures and "scipy" in failures[0]

    def test_rss_gated_against_committed_value_under_tolerance(self):
        check = _load_check_script()
        assert check.check_results(self._results(max_rss_mb=40.5)) == []  # noise
        results = self._results(max_rss_mb=41.0)
        assert check.check_results(results)  # 2.5% over the committed 40 MB
        assert check.check_results(results, tolerance=0.05) == []
        assert check.check_results(self._results(max_rss_mb=80.0), tolerance=0.15)

    def test_missing_rss_fails(self):
        check = _load_check_script()
        assert check.check_results(self._results(committed_max_rss_mb=None))
