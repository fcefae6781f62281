"""The per-thread victim memo and victim-grouped job execution.

Hardware-knob sweeps train the same few victims over and over; the memo
behind ``prepare_dataset`` / ``ScenarioSpec.build_victim`` and the grouped
job order of ``execute_jobs`` train each one once, without changing a single
result.  Also pins the bounded reprs of the array-carrying result types.
"""

import gc
import itertools
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.attacks.oracle import OracleResponse
from repro.crossbar.power import PowerReport
from repro.datasets import load_dataset
from repro.executor import PoolExecutor
from repro.experiments import execute_jobs, get_experiment, get_scenario
from repro.experiments import runner
from repro.experiments.base import victim_grouped_order
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.scenario import resolve_scenarios
from repro.experiments.sweep import _run_sweep_job
from repro.nn.network import Sequential
from repro.service.coalescer import TickTrace
from repro.sidechannel.coresident import CoResidentTrace
from repro.utils.results import RunResult

TINY = ExperimentScale(
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

#: Upper bound on any result repr, however many ticks or rows it carries.
MAX_REPR_CHARS = 400


@pytest.fixture(autouse=True)
def fresh_memo():
    runner.clear_victim_memo()
    yield
    runner.clear_victim_memo()


@pytest.fixture
def trainings(monkeypatch):
    """Every ``prepare_model`` call made while the test runs."""
    calls = []
    original = runner.prepare_model

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "prepare_model", counted)
    return calls


def _sweep_jobs(name="sweep-adc-bits", base="paper/mnist-linear"):
    experiment = get_experiment(name)
    return experiment, experiment.build_jobs(TINY, resolve_scenarios([base]), base_seed=0)


def _cold_sweep_job(job):
    """The sweep job with the memo cleared first: the untouched reference."""
    runner.clear_victim_memo()
    return _run_sweep_job(job)


_CALLS = itertools.count()


def _recording_job(job):
    """A cheap job that records which worker ran it, and when."""
    return RunResult(
        name=job.label,
        metadata={
            "worker": (os.getpid(), threading.get_ident()),
            "call": next(_CALLS),
            "victim": job.scenario.victim_key(job.scale, job.seed),
        },
    )


def _assert_same(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.name == b.name
        assert a.metrics == b.metrics
        assert set(a.arrays) == set(b.arrays)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])


class TestVictimMemo:
    @pytest.mark.parametrize(
        "name, base",
        [
            ("sweep-adc-bits", "paper/mnist-linear"),
            # an inference-time defence only wraps the accelerator, so every
            # strength attacks the same trained victim
            ("sweep-power-noise-defense", "power-noise-defense"),
        ],
    )
    def test_sweep_trains_one_victim_per_seed(self, trainings, name, base):
        experiment, jobs = _sweep_jobs(name, base)
        assert len(jobs) == 5 * TINY.n_runs
        warm = execute_jobs(jobs, run_job=experiment.run_job)
        assert len(trainings) == TINY.n_runs
        cold = execute_jobs(jobs, run_job=_cold_sweep_job)
        assert len(trainings) == TINY.n_runs + len(jobs)
        _assert_same(warm, cold)

    def test_repeat_call_serves_the_same_objects(self, trainings):
        scenario = get_scenario("paper/mnist-linear")
        dataset = runner.prepare_dataset(scenario.dataset, TINY, random_state=3)
        model = scenario.build_victim(dataset, TINY, random_state=3)
        assert runner.prepare_dataset(scenario.dataset, TINY, random_state=3) is dataset
        assert scenario.build_victim(dataset, TINY, random_state=3) is model
        # hardware knobs and the inference-time defence are not part of the
        # key; training knobs and training-time defences are
        noisy = scenario.with_overrides(adc_bits=4, measurement_noise=0.1)
        assert noisy.build_victim(dataset, TINY, random_state=3) is model
        power_noise = scenario.with_overrides(defense="power-noise", defense_strength=2.0)
        assert power_noise.build_victim(dataset, TINY, random_state=3) is model
        softmax = scenario.with_overrides(activation="softmax")
        assert softmax.build_victim(dataset, TINY, random_state=3) is not model
        rebalanced = scenario.with_overrides(defense="rebalance", defense_strength=0.5)
        assert rebalanced.build_victim(dataset, TINY, random_state=3) is not model
        assert len(trainings) == 3

    def test_caller_supplied_dataset_bypasses_memo(self, trainings):
        scenario = get_scenario("paper/mnist-linear")
        own = load_dataset("mnist-like", n_train=TINY.n_train, n_test=TINY.n_test, random_state=0)
        first = scenario.build_victim(own, TINY, random_state=0)
        second = scenario.build_victim(own, TINY, random_state=0)
        assert first is not second
        assert len(trainings) == 2
        assert own.train_inputs.flags.writeable
        assert first.network.layers[0].weights.flags.writeable

        memoised = runner.prepare_dataset("mnist-like", TINY, random_state=0)
        model = scenario.build_victim(memoised, TINY, random_state=0)
        assert len(trainings) == 3
        # an equal but different dataset object neither hits nor evicts
        assert scenario.build_victim(own, TINY, random_state=0) is not model
        assert len(trainings) == 4
        assert scenario.build_victim(memoised, TINY, random_state=0) is model
        assert len(trainings) == 4
        np.testing.assert_array_equal(
            first.network.layers[0].weights, model.network.layers[0].weights
        )

    def test_memoised_arrays_are_read_only(self):
        scenario = get_scenario("paper/mnist-linear")
        dataset = runner.prepare_dataset(scenario.dataset, TINY, random_state=0)
        model = scenario.build_victim(dataset, TINY, random_state=0)
        for array in (
            dataset.train_inputs,
            dataset.train_targets,
            dataset.test_inputs,
            dataset.test_targets,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5
        layer = model.network.layers[0]
        with pytest.raises(ValueError, match="read-only"):
            layer.weights[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            layer.weights *= 2.0

    def test_new_key_frees_previous_dataset_before_generating(self, monkeypatch):
        scenario = get_scenario("paper/mnist-linear")
        dataset = runner.prepare_dataset(scenario.dataset, TINY, random_state=1)
        model = scenario.build_victim(dataset, TINY, random_state=1)
        refs = (weakref.ref(dataset), weakref.ref(model))
        del dataset, model
        alive_at_generation = []
        original = runner.load_dataset

        def checked(*args, **kwargs):
            gc.collect()
            alive_at_generation.extend(ref() is not None for ref in refs)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "load_dataset", checked)
        runner.prepare_dataset(scenario.dataset, TINY, random_state=2)
        assert alive_at_generation == [False, False]

    def test_memo_is_per_thread(self):
        scenario = get_scenario("paper/mnist-linear")
        dataset = runner.prepare_dataset(scenario.dataset, TINY, random_state=0)
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(
                runner.prepare_dataset(scenario.dataset, TINY, random_state=0)
            )
        )
        thread.start()
        thread.join()
        assert seen[0] is not dataset
        np.testing.assert_array_equal(seen[0].train_inputs, dataset.train_inputs)


class TestRebalanceVictim:
    """A rebalanced victim is scored once, on its rebalanced weights."""

    def test_one_test_set_forward(self, monkeypatch):
        scale = SCALES["smoke"]
        spec = get_scenario("paper/mnist-softmax").with_overrides(
            name="rebalanced", defense="rebalance", defense_strength=0.5
        )
        dataset = runner.prepare_dataset(spec.dataset, scale, random_state=0)
        test_forwards = []
        original = Sequential.forward

        def counted(self, inputs, **kwargs):
            if inputs is dataset.test_inputs:
                test_forwards.append(len(inputs))
            return original(self, inputs, **kwargs)

        monkeypatch.setattr(Sequential, "forward", counted)
        model = spec.build_victim(dataset, scale, random_state=0)
        accuracies = {model.test_accuracy, model.test_accuracy}
        assert test_forwards == [scale.n_test]
        # the bits the victim reported when it was scored twice
        assert [value.hex() for value in accuracies] == ["0x1.c7ae147ae147bp-1"]


class TestGroupedExecution:
    def test_sweep_build_jobs_stays_value_major(self):
        _, jobs = _sweep_jobs()
        assert [(job.param("value_index"), job.run_index) for job in jobs] == [
            (value, run) for value in range(5) for run in range(TINY.n_runs)
        ]

    def test_grouped_order_is_seed_major_for_a_sweep(self):
        _, jobs = _sweep_jobs()
        order = victim_grouped_order(jobs)
        assert [(jobs[i].run_index, jobs[i].param("value_index")) for i in order] == [
            (run, value) for run in range(TINY.n_runs) for value in range(5)
        ]

    def test_serial_runs_grouped_and_returns_job_order(self):
        _, jobs = _sweep_jobs()
        results = execute_jobs(jobs, run_job=_recording_job)
        assert [result.name for result in results] == [job.label for job in jobs]
        ran = sorted(results, key=lambda result: result.metadata["call"])
        assert [result.name for result in ran] == [
            jobs[i].label for i in victim_grouped_order(jobs)
        ]

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_pool_runs_grouped_and_returns_job_order(self, mode):
        _, jobs = _sweep_jobs()
        executor = PoolExecutor(mode=mode, max_workers=2)
        results = execute_jobs(jobs, executor=executor, run_job=_recording_job)
        assert [result.name for result in results] == [job.label for job in jobs]
        by_worker = {}
        for result in sorted(results, key=lambda result: result.metadata["call"]):
            by_worker.setdefault(result.metadata["worker"], []).append(
                result.metadata["victim"]
            )
        for victims in by_worker.values():
            runs = [key for key, _ in itertools.groupby(victims)]
            assert len(runs) == len(set(runs)), "a worker revisited a victim"

    def test_threads_keep_their_own_victims(self):
        """More threads than cores, switching often: each thread's memo is
        its own, so the sweep matches the serial run exactly."""
        experiment, jobs = _sweep_jobs()
        serial = execute_jobs(jobs, run_job=experiment.run_job)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = execute_jobs(
                jobs,
                executor=PoolExecutor(mode="thread", max_workers=4),
                run_job=experiment.run_job,
            )
        finally:
            sys.setswitchinterval(interval)
        _assert_same(serial, threaded)


def _tick(tick_id, n_tiles=64):
    return TickTrace(
        tick_id=tick_id,
        tenants=("victim", "attacker") * 8,
        tenant_rows={"victim": 8, "attacker": 24},
        rows=32,
        rail_power=1.25,
        per_tile_power=np.full(n_tiles, 0.5),
        tile_labels=tuple(f"layer0/r0c{i}" for i in range(n_tiles)),
    )


class TestBoundedReprs:
    def test_coresident_trace(self):
        ticks = tuple(_tick(i) for i in range(1, 2001))
        trace = CoResidentTrace(
            ticks=ticks,
            rows_by_tick={tick.tick_id: np.ones(784) for tick in ticks},
            victim_rows_by_tick={tick.tick_id: 8 for tick in ticks},
        )
        text = repr(trace)
        assert len(text) < MAX_REPR_CHARS
        assert "2000" in text
        assert len(repr(ticks[0])) < MAX_REPR_CHARS
        assert "float64 array (64,)" in repr(ticks[0])

    def test_oracle_response(self):
        response = OracleResponse(
            queries=np.zeros((5000, 784)),
            outputs=np.zeros((5000, 10)),
            labels=np.zeros(5000, dtype=np.int64),
            power=np.zeros(5000),
            output_mode="raw",
            per_tile_power=np.zeros((5000, 16)),
            metadata={"tile_labels": tuple(str(i) for i in range(16))},
        )
        text = repr(response)
        assert len(text) < MAX_REPR_CHARS
        assert "float64 array (5000, 784)" in text

    def test_power_report(self):
        report = PowerReport(
            total_current=np.zeros(5000),
            per_tile_current=np.zeros((5000, 64)),
            tile_labels=tuple(f"layer0/r0c{i}" for i in range(64)),
        )
        text = repr(report)
        assert len(text) < MAX_REPR_CHARS
        assert "float64 array (5000, 64)" in text
