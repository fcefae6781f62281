"""Tests for the unified experiment API: scenarios, registry, jobs, parallel equivalence."""

import json

import numpy as np
import pytest

from repro.crossbar.nonidealities import NonidealityConfig
from repro.executor import PoolExecutor, SerialExecutor
from repro.experiments import (
    PAPER_SCENARIOS,
    ExperimentResult,
    ScenarioSpec,
    get_experiment,
    get_scenario,
    list_experiments,
    list_scenarios,
    register,
    resolve_scale,
    resolve_scenarios,
    run_experiments,
)
from repro.experiments.base import Experiment, Job
from repro.experiments.figure5 import OUTPUT_MODES
from repro.experiments.config import PAPER_CONFIGURATIONS
from repro.experiments.registry import _REGISTRY
from repro.experiments.scenario import SCENARIOS


class TestScenarioSpec:
    def test_paper_presets_cover_paper_configurations(self):
        assert tuple(s.configuration for s in PAPER_SCENARIOS) == PAPER_CONFIGURATIONS
        for spec in PAPER_SCENARIOS:
            assert spec.is_paper_ideal

    def test_required_presets_registered(self):
        names = list_scenarios()
        for required in (
            "noisy-device",
            "quantized-adc",
            "norm-balanced-defense",
            "high-read-noise",
        ):
            assert required in names
        # at least four scenarios beyond the paper's configurations
        assert len(names) >= len(PAPER_SCENARIOS) + 4

    def test_non_paper_presets_are_not_ideal(self):
        for name in ("noisy-device", "quantized-adc", "norm-balanced-defense", "high-read-noise"):
            assert not SCENARIOS[name].is_paper_ideal

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", dataset="svhn")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", activation="relu")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", device="flash")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", mapping_scheme="exotic")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", defense="firewall")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", measurement_noise=-0.1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="")

    def test_with_overrides_revalidates(self):
        spec = get_scenario("paper/mnist-softmax")
        noisy = spec.with_overrides(measurement_noise=0.05)
        assert noisy.measurement_noise == 0.05
        assert not noisy.is_paper_ideal
        with pytest.raises(ValueError):
            spec.with_overrides(activation="tanh")

    @pytest.mark.parametrize("knob, value", [("backend", "numpy"), ("dtype", "float64")])
    def test_engine_knobs_are_not_fields(self, knob, value):
        """The engine is float64 numpy: no scenario selects a backend or dtype."""
        spec = get_scenario("paper/mnist-softmax")
        with pytest.raises(TypeError, match=knob):
            spec.with_overrides(**{knob: value})
        with pytest.raises(ValueError, match=knob):
            ScenarioSpec.from_dict({**spec.to_dict(), knob: value})

    def test_serialised_scenarios_round_trip_without_engine_keys(self):
        for name in list_scenarios():
            payload = SCENARIOS[name].to_dict()
            assert not {"backend", "dtype"} & set(payload)
            assert ScenarioSpec.from_dict(payload) == SCENARIOS[name]

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_resolve_scenarios(self):
        assert resolve_scenarios(None) == PAPER_SCENARIOS
        assert resolve_scenarios("noisy-device") == (SCENARIOS["noisy-device"],)
        spec = ScenarioSpec(name="inline")
        assert resolve_scenarios([spec, "quantized-adc"]) == (
            spec,
            SCENARIOS["quantized-adc"],
        )

    def test_dataset_aliases_canonicalised(self):
        """Regression: 'mnist' and 'mnist-like' scenarios must agree on one name."""
        assert ScenarioSpec(name="x", dataset="mnist").dataset == "mnist-like"
        assert ScenarioSpec(name="x", dataset="CIFAR10").dataset == "cifar-like"

    def test_to_dict_is_json_serialisable(self):
        spec = ScenarioSpec(
            name="x", nonidealities=NonidealityConfig(wire_resistance_ohm=0.1)
        )
        payload = json.dumps(spec.to_dict())
        assert "wire_resistance_ohm" in payload

    def test_scenario_is_picklable_and_hashable(self):
        import pickle

        spec = SCENARIOS["high-read-noise"]
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1


class TestScaleValidation:
    def test_resolve_scale_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scale"):
            resolve_scale("galactic")

    def test_resolve_scale_non_string_key(self):
        with pytest.raises(KeyError):
            resolve_scale(123)

    def test_with_overrides_unknown_field(self):
        with pytest.raises(TypeError):
            resolve_scale("smoke").with_overrides(warp_factor=9)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_train", 0),
            ("n_test", -1),
            ("n_runs", 0),
            ("train_epochs", 0),
            ("surrogate_epochs", 0),
            ("query_counts", ()),
            ("query_counts", (0,)),
            ("attack_strengths", (-1.0,)),
            ("power_loss_weights", (-0.01,)),
        ],
    )
    def test_with_overrides_invalid_values(self, field, value):
        with pytest.raises(ValueError):
            resolve_scale("smoke").with_overrides(**{field: value})

    def test_with_overrides_valid(self):
        scale = resolve_scale("smoke").with_overrides(n_runs=5)
        assert scale.n_runs == 5

    def test_list_fields_coerced_to_tuples(self):
        scale = resolve_scale("smoke").with_overrides(query_counts=[5, 10])
        assert scale.query_counts == (5, 10)


class TestRegistry:
    def test_all_paper_pipelines_registered(self):
        assert set(list_experiments()) >= {"table1", "figure3", "figure4", "figure5"}

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("figure99")

    def test_get_experiment_passthrough_and_case(self):
        experiment = get_experiment("table1")
        assert get_experiment(experiment) is experiment
        assert get_experiment("TABLE1") is experiment

    def test_duplicate_name_different_class_rejected(self):
        class Impostor(Experiment):
            name = "table1"

            run_job = staticmethod(lambda job: None)

            def assemble(self, scale, scenarios, jobs, results):
                return ExperimentResult(experiment=self.name, scale_name=scale.name)

        with pytest.raises(ValueError, match="already registered"):
            register(Impostor)

    def test_reregistering_same_class_is_idempotent(self):
        """Regression: python -m repro.experiments.table1 imports the module
        twice (package + __main__) and must not crash on re-registration."""
        existing = get_experiment("table1")
        assert register(type(existing)) is type(existing)
        assert get_experiment("table1") is existing

    def test_register_rejects_non_experiments(self):
        with pytest.raises(TypeError):
            register(object())

    def test_register_requires_name(self):
        class Nameless(Experiment):
            def build_jobs(self, scale, scenarios, *, base_seed=0, **options):
                return []

            run_job = staticmethod(lambda job: None)

            def assemble(self, scale, scenarios, jobs, results):
                return ExperimentResult(experiment="", scale_name=scale.name)

        with pytest.raises(ValueError, match="non-empty name"):
            register(Nameless)

    def test_mixed_case_names_resolve_after_registration(self):
        """Regression: registering an uppercase name must not break lookup."""

        class MixedCase(Experiment):
            name = "MyStudyForTest"
            description = "temporary"

            def build_jobs(self, scale, scenarios, *, base_seed=0, **options):
                return []

            run_job = staticmethod(lambda job: None)

            def assemble(self, scale, scenarios, jobs, results):
                return ExperimentResult(experiment=self.name, scale_name=scale.name)

        instance = register(MixedCase())
        try:
            assert get_experiment("MyStudyForTest") is instance
            assert get_experiment("mystudyfortest") is instance
            assert "mystudyfortest" in list_experiments()
        finally:
            _REGISTRY.pop("mystudyfortest")

    def test_registration_cleanup_possible(self):
        class Dummy(Experiment):
            name = "dummy-experiment-for-test"
            description = "temporary"

            def build_jobs(self, scale, scenarios, *, base_seed=0, **options):
                return []

            run_job = staticmethod(lambda job: None)

            def assemble(self, scale, scenarios, jobs, results):
                return ExperimentResult(experiment=self.name, scale_name=scale.name)

        instance = register(Dummy())
        try:
            assert get_experiment("dummy-experiment-for-test") is instance
        finally:
            _REGISTRY.pop("dummy-experiment-for-test")


class TestJobs:
    def test_job_params_lookup_and_label(self):
        scale = resolve_scale("smoke")
        job = Job(
            experiment="figure5",
            scenario=PAPER_SCENARIOS[0],
            scale=scale,
            seed=42,
            run_index=1,
            params=(("output_mode", "label"), ("attack_strength", 0.1)),
        )
        assert job.param("output_mode") == "label"
        assert job.param("missing", "fallback") == "fallback"
        assert "figure5/paper/mnist-linear" in job.label

    def test_jobs_are_picklable(self):
        import pickle

        scale = resolve_scale("smoke")
        for name in list_experiments():
            experiment = get_experiment(name)
            jobs = experiment.build_jobs(scale, PAPER_SCENARIOS, base_seed=0)
            assert jobs, f"{name} produced no jobs"
            restored = pickle.loads(pickle.dumps(jobs))
            assert [job.label for job in restored] == [job.label for job in jobs]

    def test_table1_job_count_and_seed_derivation(self):
        from repro.utils.rng import seeds_for_runs

        scale = resolve_scale("smoke")
        jobs = get_experiment("table1").build_jobs(scale, PAPER_SCENARIOS, base_seed=3)
        assert len(jobs) == len(PAPER_SCENARIOS) * scale.n_runs
        expected = seeds_for_runs(3, scale.n_runs)
        assert [job.seed for job in jobs[: scale.n_runs]] == expected

    def test_figure5_rows_derived_from_scenarios(self):
        scale = resolve_scale("smoke")
        jobs = get_experiment("figure5").build_jobs(
            scale, PAPER_SCENARIOS, base_seed=0
        )
        rows = {(job.scenario.dataset, job.param("output_mode")) for job in jobs}
        assert rows == {
            ("mnist-like", "label"),
            ("mnist-like", "raw"),
            ("cifar-like", "label"),
            ("cifar-like", "raw"),
        }
        # the two paper scenarios per dataset differ only in activation, which
        # figure5 forces to linear — they must collapse to one row pair each
        assert len(jobs) == 2 * len(OUTPUT_MODES) * scale.n_runs

    def test_figure5_keeps_distinct_scenarios_on_same_dataset(self):
        """Regression: hardware-distinct scenarios must not be silently dropped."""
        scale = resolve_scale("smoke")
        scenarios = resolve_scenarios(["paper/mnist-softmax", "noisy-device"])
        jobs = get_experiment("figure5").build_jobs(scale, scenarios, base_seed=0)
        names = {job.scenario.name for job in jobs}
        assert names == {"paper/mnist-softmax", "noisy-device"}
        assert len(jobs) == 2 * len(OUTPUT_MODES) * scale.n_runs


class _CountsPickles:
    """Module-level (hence picklable) payload that counts pickling events."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return (type(self), ())


class TestPicklabilityProbe:
    def test_probe_serialises_single_representative_tuple(self):
        """Regression: _picklable must not pickle the whole args_list (O(data))."""
        args_list = [(_CountsPickles(),) for _ in range(16)]
        _CountsPickles.pickled = 0
        assert PoolExecutor._picklable(pow, args_list)
        assert _CountsPickles.pickled == 1

    def test_probe_empty_args_list(self):
        assert PoolExecutor._picklable(pow, [])

    def test_probe_rejects_unpicklable_fn(self):
        assert not PoolExecutor._picklable(lambda x: x, [(1,)])

    def test_process_mode_still_falls_back_for_unpicklable_fn(self):
        executor = PoolExecutor(mode="process")
        with pytest.warns(RuntimeWarning, match="not picklable"):
            values = executor.map(lambda x: x + 1, [(1,), (2,)])
        assert values == [2, 3]


@pytest.fixture(scope="module")
def fast_scale():
    """A trimmed smoke scale so the equivalence matrix stays quick."""
    return resolve_scale("smoke").with_overrides(
        n_train=200,
        n_test=60,
        n_runs=2,
        train_epochs=5,
        query_counts=(10, 25),
        attack_strengths=(0.0, 5.0),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=30,
    )


def _assert_results_identical(a, b):
    assert len(a.sweep) == len(b.sweep)
    for run_a, run_b in zip(a.sweep, b.sweep):
        assert run_a.name == run_b.name
        assert run_a.metrics == run_b.metrics
        assert set(run_a.arrays) == set(run_b.arrays)
        for key in run_a.arrays:
            np.testing.assert_array_equal(run_a.arrays[key], run_b.arrays[key])


@pytest.mark.experiments
class TestSerialProcessEquivalence:
    """Acceptance: every registered experiment is bit-identical serial vs process."""

    @pytest.fixture(scope="class")
    def pool(self):
        return PoolExecutor(mode="process", max_workers=2)

    @pytest.mark.parametrize("name", ["table1", "figure3", "figure4", "figure5"])
    def test_experiment_parallel_matches_serial(self, name, fast_scale, pool):
        experiment = get_experiment(name)
        scenarios = ["paper/mnist-softmax"]
        serial = experiment.run(fast_scale, scenarios=scenarios, base_seed=0)
        parallel = experiment.run(
            fast_scale, scenarios=scenarios, executor=pool, base_seed=0
        )
        _assert_results_identical(serial, parallel)


@pytest.mark.experiments
class TestRunExperimentsEndToEnd:
    def test_subset_run_and_serialization(self, fast_scale, tmp_path):
        results = run_experiments(
            ["figure3", "table1"],
            fast_scale,
            scenarios=["paper/mnist-softmax"],
            base_seed=0,
            output_dir=tmp_path,
        )
        assert list(results) == ["figure3", "table1"]
        for name, result in results.items():
            path = tmp_path / f"{name}_{fast_scale.name}.json"
            assert path.exists()
            restored = ExperimentResult.from_dict(json.loads(path.read_text()))
            assert restored.experiment == name
            assert restored.scale_name == fast_scale.name
            assert len(restored.sweep) == len(result.sweep)
            formatted = get_experiment(name).format_result(restored)
            assert "mnist-like" in formatted

    def test_unknown_run_options_raise(self, fast_scale):
        """Typo'd options must error at the run() boundary, naming the
        experiment and the options it does accept."""
        with pytest.raises(ValueError, match=r"unknown run\(\) options.*'table1'"):
            get_experiment("table1").run(fast_scale, rows=[("mnist-like", "raw")])
        with pytest.raises(
            ValueError, match=r"'figure5'.*(?:attack_strength|rows)"
        ):
            get_experiment("figure5").run(fast_scale, attack_stregth=0.3)

    def test_positional_or_keyword_options_are_accepted(self):
        """An override may declare an option as an ordinary defaulted
        parameter (positional-or-keyword) instead of keyword-only; the
        run() boundary must accept it, since build_jobs itself would."""

        class _PosOpt(Experiment):
            name = "pos-opt"

            def build_jobs(self, scale, scenarios, n_points=5, *, base_seed=0):
                return super().build_jobs(scale, scenarios, base_seed=base_seed)

            @staticmethod
            def run_job(job):
                raise NotImplementedError

            def assemble(self, scale, scenarios, jobs, results):
                raise NotImplementedError

        experiment = _PosOpt()
        assert experiment.accepted_run_options() == ["n_points"]
        experiment._validate_run_options({"n_points": 3})  # must not raise
        with pytest.raises(ValueError, match=r"unknown run\(\) options.*n_poitns"):
            experiment._validate_run_options({"n_poitns": 3})

    def test_execute_job_attaches_metadata(self, fast_scale):
        job = get_experiment("figure3").build_jobs(
            fast_scale, resolve_scenarios(["paper/mnist-softmax"]), base_seed=0
        )[0]
        experiment = get_experiment("figure3")
        (result,) = SerialExecutor().submit_jobs([job], run_job=experiment.run_job)
        assert result.metadata["experiment"] == "figure3"
        assert result.metadata["scenario"] == "paper/mnist-softmax"
        assert result.metadata["seed"] == job.seed

    def test_shared_configuration_stays_scenario_keyed(self, fast_scale):
        """Two scenarios sharing a (dataset, activation) pair keep separate
        panels and rows, and format_result names both."""
        scenarios = ["paper/mnist-softmax", "high-read-noise"]  # both mnist/softmax
        result = get_experiment("figure3").run(fast_scale, scenarios=scenarios)
        assert [p["scenario"] for p in result.summary["panels"]] == scenarios
        t1 = get_experiment("table1").run(fast_scale, scenarios=scenarios)
        text = get_experiment("table1").format_result(t1)
        assert "high-read-noise" in text and "Scenario" in text

    def test_distinct_specs_sharing_a_name_stay_separate(self, fast_scale):
        """Regression: assemble must group by scenario object, not name."""
        base = get_scenario("paper/mnist-softmax")
        variant = base.with_overrides(measurement_noise=0.05)  # same name
        result = get_experiment("table1").run(
            fast_scale, scenarios=[base, variant], base_seed=0
        )
        assert len(result.sweep) == 2 * fast_scale.n_runs  # no double-adds
        rows = result.summary["rows"]
        assert len(rows) == 2
        # the noisy variant must not inherit the ideal scenario's statistics
        assert (
            rows[0]["correlation_of_mean_test"] != rows[1]["correlation_of_mean_test"]
        )

    def test_scenario_variants_change_results(self, fast_scale):
        """A defended scenario must actually blunt the leak vs the ideal one."""
        ideal = get_experiment("table1").run(
            fast_scale, scenarios=["paper/mnist-softmax"], base_seed=0
        )
        defended = get_experiment("table1").run(
            fast_scale,
            scenarios=[
                SCENARIOS["norm-balanced-defense"].with_overrides(
                    defense_strength=5.0
                )
            ],
            base_seed=0,
        )
        ideal_corr = ideal.summary["rows"][0]["correlation_of_mean_test"]
        defended_corr = defended.summary["rows"][0]["correlation_of_mean_test"]
        assert defended_corr < ideal_corr


class TestCLI:
    def test_list_flags(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure5" in out
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "noisy-device" in out and "paper/mnist-softmax" in out

    def test_unknown_experiment_fails_fast(self):
        from repro.experiments.cli import main

        with pytest.raises(KeyError):
            main(["figure99", "--scale", "smoke"])

    @pytest.mark.parametrize("flag, value", [("--backend", "numpy"), ("--dtype", "float64")])
    def test_engine_flags_are_rejected(self, flag, value, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table1", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_scenario_fails_fast(self):
        from repro.experiments.cli import main

        with pytest.raises(KeyError):
            main(["table1", "--scale", "smoke", "--scenarios", "nope"])
