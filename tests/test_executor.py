"""Tests for the Executor API: the serial reference and one host's pool.

The load-bearing guarantee is *bit-identity*: every registered experiment
must produce an :class:`~repro.experiments.base.ExperimentResult` that is
bitwise identical under the serial reference and both pool modes.
"""

import time
import warnings

import numpy as np
import pytest

from repro.executor import (
    EXECUTOR_NAMES,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.experiments import ExperimentScale
from repro.experiments.registry import get_experiment, list_experiments, run_experiments
from repro.experiments.scenario import ScenarioSpec, resolve_scenarios
from repro.experiments.sweep import SweepSpec

pytestmark = pytest.mark.executor


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale(
        name="tiny",
        n_train=120,
        n_test=40,
        n_runs=2,
        train_epochs=2,
        query_counts=(8,),
        attack_strengths=(0.0, 4.0),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=4,
    )


def _scenarios_for(name):
    """One cheap scenario selection per experiment (sweeps expand it)."""
    return ["paper/mnist-linear"]


def assert_results_identical(result_a, result_b):
    """Bitwise comparison of two ExperimentResults (metrics + arrays)."""
    assert len(result_a.sweep) == len(result_b.sweep)
    for run_a, run_b in zip(result_a.sweep, result_b.sweep):
        assert run_a.name == run_b.name
        assert run_a.metrics == run_b.metrics
        assert set(run_a.arrays) == set(run_b.arrays)
        for key in run_a.arrays:
            assert run_a.arrays[key].dtype == run_b.arrays[key].dtype
            assert np.array_equal(run_a.arrays[key], run_b.arrays[key])
        assert run_a.metadata == run_b.metadata


def _slow_identity(value, delay_s):
    """Module-level (picklable) job whose completion order can be forced."""
    time.sleep(delay_s)
    return value


def _figure3_jobs(scale, scenarios=("paper/mnist-linear", "noisy-device")):
    experiment = get_experiment("figure3")
    return experiment, experiment.build_jobs(
        scale, resolve_scenarios(list(scenarios)), base_seed=0
    )


# --------------------------------------------------------------- resolution


class TestResolveExecutor:
    def test_names_resolve_to_executors(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        for name in ("process", "thread"):
            executor = resolve_executor(name)
            assert isinstance(executor, PoolExecutor)
            assert executor.mode == name
        assert EXECUTOR_NAMES == ("serial", "process", "thread")

    @pytest.mark.parametrize("name", ["mapreduce", "queue", "pool"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(name)

    def test_instance_passthrough_rejects_options(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor
        with pytest.raises(ValueError, match="existing"):
            resolve_executor(executor, max_workers=2)


class TestPoolWorkers:
    """The pool width is the caller's number, or the CPU count; never a guess."""

    @pytest.mark.parametrize("max_workers", [0, -3])
    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_non_positive_max_workers_raises(self, mode, max_workers):
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            PoolExecutor(mode=mode, max_workers=max_workers)
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            resolve_executor(mode, max_workers=max_workers)

    def test_none_means_cpu_count_capped_by_jobs(self, monkeypatch):
        monkeypatch.setattr("repro.executor.base.os.cpu_count", lambda: 6)
        pool = PoolExecutor()
        assert pool.resolve_workers(100) == 6
        assert pool.resolve_workers(4) == 4
        assert PoolExecutor(max_workers=3).resolve_workers(100) == 3

    def test_cli_rejects_zero_workers(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as info:
            main(["figure3", "--executor", "process", "--workers", "0"])
        assert info.value.code == 2
        assert "max_workers must be at least 1" in capsys.readouterr().err

    def test_cli_help_states_the_real_default(self):
        from repro.experiments.cli import build_parser

        help_text = " ".join(build_parser().format_help().split())
        assert "default: CPU count)" in help_text
        assert "CPU count / 2" not in help_text


# ------------------------------------------------------------ job order


class TestSerialExecutor:
    def test_results_follow_job_order_and_depend_only_on_the_job(self, tiny_scale):
        experiment, jobs = _figure3_jobs(tiny_scale)
        forward = SerialExecutor().submit_jobs(jobs, run_job=experiment.run_job)
        backward = SerialExecutor().submit_jobs(jobs[::-1], run_job=experiment.run_job)
        assert len(forward) == len(jobs)
        assert [r.metadata["scenario"] for r in forward] == [
            job.scenario.name for job in jobs
        ]
        for run_a, run_b in zip(forward, backward[::-1]):
            assert run_a.metrics == run_b.metrics
            assert run_a.metadata == run_b.metadata


class TestPoolMap:
    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_results_come_back_in_submission_order(self, mode):
        # The first jobs are the slowest, so completion order is reversed.
        args = [(index, 0.2 if index < 2 else 0.0) for index in range(6)]
        results = PoolExecutor(mode=mode, max_workers=2).map(_slow_identity, args)
        assert results == list(range(6))

    def test_unpicklable_callable_falls_back_to_serial(self):
        offset = 10
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = PoolExecutor(mode="process", max_workers=2).map(
                lambda value: value + offset, [(1,), (2,), (3,)]
            )
        assert results == [11, 12, 13]

    def test_thread_mode_runs_unpicklable_callables_without_warning(self):
        offset = 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = PoolExecutor(mode="thread", max_workers=2).map(
                lambda value: value + offset, [(1,), (2,), (3,)]
            )
        assert results == [11, 12, 13]

    def test_chunksize_is_one_contiguous_block_per_worker(self):
        pool = PoolExecutor(max_workers=4)
        assert pool.chunksize(10) == 3
        assert pool.chunksize(8) == 2
        assert pool.chunksize(2) == 1
        assert PoolExecutor(max_workers=1).chunksize(7) == 7


# ----------------------------------------------------- backend equivalence


@pytest.fixture(scope="module")
def serial_result(tiny_scale):
    """Serial reference result per experiment, computed once per module."""
    cache = {}

    def result(name):
        if name not in cache:
            cache[name] = get_experiment(name).run(
                tiny_scale, scenarios=_scenarios_for(name)
            )
        return cache[name]

    return result


class TestBackendEquivalence:
    """serial == process pool == thread pool, bit for bit, for every experiment."""

    @pytest.mark.parametrize("name", sorted(list_experiments()))
    def test_process_pool_matches_serial(self, name, tiny_scale, serial_result):
        """Every registered experiment (including the sweeps) gives
        bitwise-identical results off-process."""
        pooled = get_experiment(name).run(
            tiny_scale, scenarios=_scenarios_for(name), executor="process"
        )
        assert_results_identical(serial_result(name), pooled)

    @pytest.mark.parametrize("name", sorted(list_experiments()))
    def test_thread_pool_matches_serial(self, name, tiny_scale, serial_result):
        """Threads share one process (and its victim memo); results must
        still be bitwise identical to the serial reference."""
        pooled = get_experiment(name).run(
            tiny_scale,
            scenarios=_scenarios_for(name),
            executor=PoolExecutor(mode="thread", max_workers=2),
        )
        assert_results_identical(serial_result(name), pooled)

    @pytest.mark.parametrize("executor", ["serial", "process", "thread"])
    def test_empty_grid_returns_empty(self, executor):
        assert resolve_executor(executor).submit_jobs([]) == []


# ------------------------------------------------------------- CLI flags


class TestExperimentsCLI:
    def test_experiments_cli_exposes_executor_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["figure3", "--executor", "process", "--workers", "3"]
        )
        assert args.executor == "process"
        assert args.workers == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "process"],
            ["--executor", "queue"],
            ["--serve", "127.0.0.1:7070"],
            ["--connect", "127.0.0.1:7070"],
            ["--auth-file", "queue.key"],
            ["--chunk-size", "2"],
            ["--journal", "run.jsonl"],
            ["--resume", "run.jsonl"],
        ],
    )
    def test_experiments_cli_rejects_retired_flags(self, flags, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", *flags])
        assert flags[0] in capsys.readouterr().err


# ------------------------------------------------ strict config validation


class TestStrictFromDict:
    def test_scenario_spec_rejects_unknown_keys(self):
        from repro.experiments.scenario import get_scenario

        payload = get_scenario("paper/mnist-linear").to_dict()
        assert ScenarioSpec.from_dict(dict(payload)).name == "paper/mnist-linear"
        # a typo, and the removed compute-backend knobs of older payloads
        for key, value in (("read_nosie", 0.1), ("backend", "numpy"), ("dtype", "float64")):
            with pytest.raises(ValueError, match=f"unknown ScenarioSpec fields.*{key}"):
                ScenarioSpec.from_dict({**payload, key: value})

    def test_experiment_scale_round_trips_and_rejects_unknown_keys(self, tiny_scale):
        payload = tiny_scale.to_dict()
        restored = ExperimentScale.from_dict(payload)
        assert restored == tiny_scale
        assert isinstance(restored.query_counts, tuple)
        payload["n_trian"] = 5
        with pytest.raises(ValueError, match="unknown ExperimentScale fields.*n_trian"):
            ExperimentScale.from_dict(payload)

    def test_sweep_spec_rejects_unknown_keys(self):
        from repro.experiments.sweep import get_sweep

        payload = get_sweep("sweep-adc-bits").to_dict()
        assert SweepSpec.from_dict(dict(payload)).name == payload["name"]
        payload["knbo"] = "adc.bits"
        with pytest.raises(ValueError, match="unknown SweepSpec fields.*knbo"):
            SweepSpec.from_dict(payload)


# ------------------------------------------------------------ run spellings


class TestRunSpellings:
    """``executor=`` is the one way to pick a backend; ``PoolExecutor`` the one pool."""

    def test_run_accepts_executor_instances_and_names(self, tiny_scale):
        experiment = get_experiment("figure3")
        serial = experiment.run(
            tiny_scale, scenarios=["paper/mnist-linear"], executor=SerialExecutor()
        )
        named = experiment.run(
            tiny_scale, scenarios=["paper/mnist-linear"], executor="serial"
        )
        assert_results_identical(serial, named)

    def test_run_rejects_runner_option(self, tiny_scale):
        with pytest.raises(ValueError, match=r"unknown run\(\) options \['runner'\]"):
            get_experiment("figure3").run(
                tiny_scale, scenarios=["paper/mnist-linear"], runner=object()
            )

    def test_execute_jobs_and_run_experiments_reject_runner(self, tiny_scale):
        from repro.experiments.base import execute_jobs

        _, jobs = _figure3_jobs(tiny_scale)
        with pytest.raises(TypeError, match="runner"):
            execute_jobs(jobs, runner=object())
        with pytest.raises(TypeError, match="runner"):
            run_experiments(["figure3"], tiny_scale, runner=object())

    @pytest.mark.parametrize("mode", ["serial", "gpu"])
    def test_pool_modes_are_process_and_thread(self, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            PoolExecutor(mode=mode)

    @pytest.mark.parametrize(
        "name",
        [
            "run_table1",
            "format_figure5",
            "ParallelRunner",
            "run_multi_seed",
            "coerce_executor",
            "QueueExecutor",
            "CancelToken",
            "ExecutorEvent",
            "ExecutionCancelled",
        ],
    )
    def test_removed_names_are_gone(self, name):
        import repro.executor
        import repro.experiments
        import repro.experiments.runner

        for module in (repro.experiments, repro.experiments.runner, repro.executor):
            assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.executor.queue",
            "repro.executor.worker",
            "repro.executor.journal",
            "repro.executor.__main__",
            "repro.utils.framing",
        ],
    )
    def test_removed_modules_are_gone(self, module):
        import importlib.util

        assert importlib.util.find_spec(module) is None
