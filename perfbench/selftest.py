"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The end-to-end cases run every workload at a tiny length, both untraced and
traced, and take about three minutes on a 2-core machine.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

from perfbench.common import END_TO_END, PER_LAYER, ROOT, WORKLOADS, use_checkout_sources
from perfbench.run import job_mismatches
from perfbench.tracer import (
    LAYER_HOOKS,
    MAX_EVENTS_PER_SPAN,
    Hook,
    MissingLayerError,
    Tracer,
    _resolve,
    record_costs,
)

use_checkout_sources()


def _run_bench(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "0.5",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    # serve-noisy stays runnable by hand but is not declared (README: Noise).
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS) - {"serve-noisy"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(workload, trace):
    completed = _run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in expected:  # every metric is also printed by name
        assert f"  {name} " in completed.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        events = json.loads(
            (ROOT / "perfbench" / "out" / f"trace-{workload}-seed0-trace1.json").read_text()
        )["traceEvents"]
        assert any(event.get("ph") in ("X", "b") for event in events)


def test_traced_run_restores_every_wrapped_function():
    from repro.experiments import get_experiment
    from perfbench.tracer import job_hook

    hooks = list(LAYER_HOOKS) + [job_hook(get_experiment("sweep-adc-bits"))]
    before = [_resolve(hook) for hook in hooks]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.install(hooks):
            assert any(_resolve(hook)[1] is not raw for hook, (_, raw) in zip(hooks, before))
            raise RuntimeError("inside the traced block")
    for hook, (owner, raw) in zip(hooks, before):
        assert _resolve(hook) == (owner, raw), hook


def test_missing_layer_fails_loudly_and_wraps_nothing():
    import repro.experiments.sweep as sweep

    original = sweep.prepare_dataset
    hooks = [
        Hook("datasets.prepare_dataset", "repro.experiments.sweep", "prepare_dataset"),
        Hook("gone.renamed", "repro.experiments.sweep", "renamed_away"),
    ]
    with pytest.raises(MissingLayerError, match="renamed_away"):
        Tracer().install(hooks)
    assert sweep.prepare_dataset is original


def test_traced_worker_refuses_to_run_without_a_layer(monkeypatch):
    import repro.experiments.sweep as sweep
    from perfbench import exp_worker

    monkeypatch.delattr(sweep, "leakage_correlation")
    with pytest.raises(MissingLayerError, match="leakage_correlation"):
        exp_worker.main(["--workload", "sweep-adc", "--trace"])


def test_asyncio_run_is_split_at_the_coroutine():
    tracer = Tracer()
    with tracer.install([Hook("asyncio.run", "asyncio", "run")]):

        async def work():
            await asyncio.sleep(0.01)
            return {"payload": 1}

        assert asyncio.run(work()) == {"payload": 1}
    assert tracer.calls["asyncio.run"] == 1
    coroutine = tracer.seconds["asyncio.run.coroutine"]
    assert coroutine >= 0.01
    total = tracer.seconds["asyncio.run"]
    assert tracer.seconds["asyncio.run.exit"] == pytest.approx(total - coroutine, abs=1e-6)


def test_overhead_estimate_charges_every_recorded_call():
    kept_cost, plain_cost = record_costs()
    assert 0.0 < plain_cost <= kept_cost < 1e-3
    tracer = Tracer()
    assert tracer.overhead_s() == 0.0
    for _ in range(MAX_EVENTS_PER_SPAN + 3):
        tracer.record("layer.call", 0, 1)
    expected = MAX_EVENTS_PER_SPAN * kept_cost + 3 * plain_cost
    assert tracer.summary()["overhead_s"] == pytest.approx(expected)


def test_job_mismatches_counts_every_difference():
    jobs = [{"name": "a", "metrics": {"x": 1.0}}, {"name": "b", "metrics": {"x": 2.0}}]
    assert job_mismatches(jobs, json.loads(json.dumps(jobs))) == 0
    changed = json.loads(json.dumps(jobs))
    changed[1]["metrics"]["x"] = 2.0 + 1e-6
    assert job_mismatches(jobs, changed) == 1
    assert job_mismatches(jobs, None) == 2
    assert job_mismatches(jobs, jobs[:1]) == 2


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    completed = _run_bench("serve-ideal", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
