"""Tests for the scenario-sweep subsystem: specs, expansion, curves, registry.

The property-style sections run over *every* registered scenario preset
(including the ``sharded-*`` ones) rather than hand-picked examples, so a
new preset is automatically covered by the round-trip and expansion
invariants.
"""

import json
import pickle

import numpy as np
import pytest

from repro.crossbar.mapping import ShardingSpec
from repro.executor import PoolExecutor
from repro.experiments import (
    PAPER_SCENARIOS,
    SCENARIOS,
    SWEEP_PRESET_GRIDS,
    SWEEPS,
    ExperimentResult,
    ScenarioSpec,
    SweepExperiment,
    SweepSpec,
    apply_knob,
    get_experiment,
    get_scenario,
    get_sweep,
    list_experiments,
    resolve_knob,
    resolve_scale,
    run_experiments,
    swept_field,
)
from repro.experiments.scenario import list_scenarios

BUILTIN_SWEEPS = (
    "sweep-adc-bits",
    "sweep-read-noise",
    "sweep-power-noise-defense",
    "sweep-shard-geometry",
)


class TestKnobResolution:
    def test_aliases_resolve_to_scenario_fields(self):
        assert resolve_knob("adc.bits") == "probe_adc_bits"
        assert resolve_knob("device.read_noise") == "device_read_noise"
        assert (
            resolve_knob("rail.read_noise")
            == "nonidealities.current_measurement_noise"
        )
        assert resolve_knob("defense.power_noise_std") == "defense_strength"
        assert resolve_knob("sharding.geometry") == "sharding"

    def test_direct_field_paths_pass_through(self):
        assert resolve_knob("measurement_noise") == "measurement_noise"
        assert resolve_knob("nonidealities.wire_resistance_ohm") == (
            "nonidealities.wire_resistance_ohm"
        )

    def test_swept_field_is_the_top_level_target(self):
        assert swept_field("adc.bits") == "probe_adc_bits"
        assert swept_field("device.read_noise") == "device_read_noise"
        assert swept_field("rail.read_noise") == "nonidealities"
        assert swept_field("sharding") == "sharding"

    def test_unknown_knob_rejected_with_listing(self):
        with pytest.raises(ValueError, match="unknown knob"):
            resolve_knob("warp.factor")

    def test_too_deep_path_rejected(self):
        with pytest.raises(ValueError, match="nests too deep"):
            resolve_knob("nonidealities.current_measurement_noise.std")

    def test_apply_knob_nested_override(self):
        base = get_scenario("wired-crossbar")
        noisy = apply_knob(base, "rail.read_noise", 0.25)
        assert noisy.nonidealities.current_measurement_noise == 0.25
        # nested override preserves the rest of the nonideality config
        assert base.nonidealities.wire_resistance_ohm > 0
        assert noisy.nonidealities.wire_resistance_ohm == base.nonidealities.wire_resistance_ohm

    def test_device_read_noise_overrides_device_physics(self):
        from repro.nn.layers import Dense
        from repro.nn.network import Sequential

        base = get_scenario("paper/mnist-softmax")
        noisy = apply_knob(base, "device.read_noise", 0.2)
        assert noisy.device_read_noise == 0.2
        network = Sequential([Dense(6, 3, random_state=0)])
        accelerator = noisy.build_accelerator(network, random_state=0)
        assert accelerator.tiles[0].physical_arrays[0].device.read_noise == 0.2
        # the untouched base still maps onto the ideal noise-free device
        ideal = base.build_accelerator(network, random_state=0)
        assert ideal.tiles[0].physical_arrays[0].device.read_noise == 0.0

    def test_apply_knob_non_dataclass_container_rejected(self):
        base = get_scenario("paper/mnist-softmax")
        with pytest.raises(ValueError, match="not a config object"):
            apply_knob(base, "dataset.size", 100)

    def test_apply_knob_nested_unknown_leaf(self):
        base = get_scenario("paper/mnist-softmax")
        with pytest.raises(ValueError, match="has no field"):
            apply_knob(base, "nonidealities.flux_capacitance", 1.21)

    def test_apply_knob_none_container_rejected(self):
        base = get_scenario("paper/mnist-softmax")  # sharding is None
        with pytest.raises(ValueError, match="is None"):
            apply_knob(base, "sharding.row_shards", 2)

    def test_apply_knob_revalidates(self):
        base = get_scenario("paper/mnist-softmax")
        with pytest.raises(ValueError):
            apply_knob(base, "adc.bits", 0)
        with pytest.raises(ValueError):
            apply_knob(base, "measurement_noise", -1.0)


class TestScenarioRoundTrips:
    """Property: every registered preset survives override + serialisation."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_to_dict_from_dict_round_trip(self, name):
        spec = SCENARIOS[name]
        payload = json.loads(json.dumps(spec.to_dict()))  # via real JSON text
        assert ScenarioSpec.from_dict(payload) == spec

    @pytest.mark.parametrize("name", list_scenarios())
    def test_override_round_trip(self, name):
        spec = SCENARIOS[name]
        assert spec.with_overrides() == spec
        bumped = spec.with_overrides(measurement_noise=spec.measurement_noise + 0.01)
        assert bumped != spec
        assert bumped.with_overrides(measurement_noise=spec.measurement_noise) == spec

    @pytest.mark.parametrize("name", list_scenarios())
    def test_pickle_round_trip(self, name):
        spec = SCENARIOS[name]
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_probe_adc_bits_validated(self):
        assert ScenarioSpec(name="x", probe_adc_bits=4).probe_adc_bits == 4
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", probe_adc_bits=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", probe_adc_bits=2.5)

    def test_probe_adc_bits_breaks_paper_ideal(self):
        base = get_scenario("paper/mnist-softmax")
        assert base.is_paper_ideal
        assert not base.with_overrides(probe_adc_bits=8).is_paper_ideal


class TestSweepSpec:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_expansion_changes_exactly_the_swept_field(self, name):
        """Property: derived specs differ from the base only in the swept
        field (and the derived name/description)."""
        base = SCENARIOS[name]
        sweep = SweepSpec(
            name=f"test-{name}",
            base=base,
            knob="measurement_noise",
            values=(0.0, 0.01, 0.05),
        )
        derived = sweep.expand()
        assert len(derived) == 3
        target = swept_field(sweep.knob)
        from dataclasses import fields

        for value, spec in zip(sweep.values, derived):
            assert getattr(spec, target) == value
            for spec_field in fields(ScenarioSpec):
                if spec_field.name in (target, "name", "description"):
                    continue
                assert getattr(spec, spec_field.name) == getattr(
                    base, spec_field.name
                ), f"{spec_field.name} leaked into the {name} expansion"

    def test_derived_names_encode_knob_and_value(self):
        sweep = get_sweep("sweep-adc-bits")
        names = [spec.name for spec in sweep.expand()]
        assert names == [
            f"paper/mnist-softmax@adc.bits={label}"
            for label in ("1", "2", "4", "8", "none")
        ]

    def test_sharding_values_coerced_from_tuples(self):
        sweep = get_sweep("sweep-shard-geometry")
        assert sweep.values[0] is None
        assert all(
            isinstance(value, ShardingSpec) for value in sweep.values[1:]
        )
        derived = sweep.expand()
        assert derived[0].sharding is None
        assert derived[-1].sharding == ShardingSpec(4, 4, "tree")

    def test_validation(self):
        base = get_scenario("paper/mnist-softmax")
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(name="", base=base, knob="adc.bits", values=(1,))
        with pytest.raises(TypeError, match="ScenarioSpec"):
            SweepSpec(name="x", base="paper/mnist-softmax", knob="adc.bits", values=(1,))
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(name="x", base=base, knob="adc.bits", values=())
        with pytest.raises(ValueError, match="unknown knob"):
            SweepSpec(name="x", base=base, knob="warp.factor", values=(1,))
        # every grid point is validated eagerly
        with pytest.raises(ValueError):
            SweepSpec(name="x", base=base, knob="adc.bits", values=(8, -1))

    @pytest.mark.parametrize("name", BUILTIN_SWEEPS)
    def test_serialisation_round_trip(self, name):
        sweep = get_sweep(name)
        payload = json.loads(json.dumps(sweep.to_dict()))
        assert SweepSpec.from_dict(payload) == sweep

    @pytest.mark.parametrize("name", BUILTIN_SWEEPS)
    def test_pickle_round_trip(self, name):
        sweep = get_sweep(name)
        assert pickle.loads(pickle.dumps(sweep)) == sweep

    def test_rebased_keeps_knob_and_grid(self):
        sweep = get_sweep("sweep-read-noise").rebased("noisy-device")
        assert sweep.base == SCENARIOS["noisy-device"]
        assert sweep.knob == "device.read_noise"
        assert sweep.values == get_sweep("sweep-read-noise").values

    def test_unknown_sweep(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            get_sweep("sweep-warp-factor")

    def test_nested_wire_resistance_sweep_expands(self):
        """The README's custom sweep: a nested knob into the nonidealities."""
        values = (0.0, 2.5e-4, 5e-4, 1e-3)
        sweep = SweepSpec(
            name="sweep-wire-resistance",
            base=ScenarioSpec(name="paper/mnist-softmax"),
            knob="nonidealities.wire_resistance_ohm",
            values=values,
        )
        derived = sweep.expand()
        assert [spec.nonidealities.wire_resistance_ohm for spec in derived] == list(values)
        assert derived[0].nonidealities.is_ideal
        assert not derived[-1].nonidealities.is_ideal

    def test_nested_knob_values_are_validated(self):
        base = get_scenario("paper/mnist-softmax")
        for bad in (-1e-3, float("nan")):
            with pytest.raises(ValueError):
                SweepSpec(
                    name="x",
                    base=base,
                    knob="nonidealities.wire_resistance_ohm",
                    values=(0.0, bad),
                )

    def test_unknown_nested_field_rejected(self):
        base = get_scenario("paper/mnist-softmax")
        with pytest.raises(ValueError, match="has no field 'wire_resistance'"):
            SweepSpec(
                name="x", base=base, knob="nonidealities.wire_resistance", values=(0.1,)
            )


class TestSweepRegistration:
    def test_builtin_sweeps_registered(self):
        names = list_experiments()
        for name in BUILTIN_SWEEPS:
            assert name in names

    def test_sweeps_match_config_grids(self):
        from repro.experiments.config import TENANT_SWEEP_GRIDS

        # loading the builtin registry also registers the tenant sweeps
        list_experiments()
        assert set(SWEEP_PRESET_GRIDS) == set(BUILTIN_SWEEPS)
        assert set(SWEEPS) == set(BUILTIN_SWEEPS) | set(TENANT_SWEEP_GRIDS)

    def test_cli_list_shows_sweeps(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SWEEPS:
            assert name in out

    def test_build_jobs_shape_and_params(self):
        scale = resolve_scale("smoke")
        experiment = get_experiment("sweep-adc-bits")
        sweep = get_sweep("sweep-adc-bits")
        jobs = experiment.build_jobs(scale, (sweep.base,), base_seed=0)
        assert len(jobs) == len(sweep.values) * scale.n_runs
        assert jobs[0].param("knob") == "adc.bits"
        assert jobs[0].param("base") == "paper/mnist-softmax"
        assert [job.param("value_index") for job in jobs[:: scale.n_runs]] == [
            0, 1, 2, 3, 4,
        ]

    def test_explicit_paper_scenarios_rebase_onto_all_four(self):
        """Regression: explicitly selecting the paper configurations must not
        be mistaken for the 'sweep your own base' default."""
        scale = resolve_scale("smoke")
        experiment = get_experiment("sweep-adc-bits")
        jobs = experiment.build_jobs(scale, PAPER_SCENARIOS, base_seed=0)
        sweep = get_sweep("sweep-adc-bits")
        assert len(jobs) == len(PAPER_SCENARIOS) * len(sweep.values) * scale.n_runs
        assert {job.param("base") for job in jobs} == {
            spec.name for spec in PAPER_SCENARIOS
        }

    def test_registering_conflicting_grid_under_builtin_name_rejected(self):
        """Regression: two different sweeps must not silently share a name."""
        from repro.experiments import register

        conflicting = SweepSpec(
            name="sweep-adc-bits",
            base=get_scenario("paper/mnist-softmax"),
            knob="adc.bits",
            values=(2, 6),
        )
        with pytest.raises(ValueError, match="already registered"):
            register(SweepExperiment(conflicting))
        # re-registering an equal sweep stays a benign no-op (module re-import)
        existing = get_experiment("sweep-adc-bits")
        same = SweepExperiment(get_sweep("sweep-adc-bits"))
        assert register(same) is existing

    def test_explicit_scenarios_rebase_the_sweep(self):
        scale = resolve_scale("smoke")
        experiment = get_experiment("sweep-read-noise")
        jobs = experiment.build_jobs(
            scale, (SCENARIOS["quantized-adc"],), base_seed=0
        )
        sweep = get_sweep("sweep-read-noise")
        assert len(jobs) == len(sweep.values) * scale.n_runs
        assert all(job.param("base") == "quantized-adc" for job in jobs)
        assert all(job.scenario.adc_bits == 6 for job in jobs)

    def test_jobs_are_picklable(self):
        scale = resolve_scale("smoke")
        for name in BUILTIN_SWEEPS:
            jobs = get_experiment(name).build_jobs(scale, PAPER_SCENARIOS, base_seed=0)
            restored = pickle.loads(pickle.dumps(jobs))
            assert [job.label for job in restored] == [job.label for job in jobs]


@pytest.fixture(scope="module")
def sweep_scale():
    """A trimmed smoke scale so the execution matrix stays quick."""
    return resolve_scale("smoke").with_overrides(
        n_train=200, n_test=60, n_runs=2, train_epochs=5
    )


def _assert_results_identical(a, b):
    assert len(a.sweep) == len(b.sweep)
    for run_a, run_b in zip(a.sweep, b.sweep):
        assert run_a.name == run_b.name
        assert run_a.metrics == run_b.metrics


@pytest.mark.sweeps
class TestSweepExecution:
    @pytest.fixture(scope="class")
    def adc_result(self, sweep_scale):
        return get_experiment("sweep-adc-bits").run(sweep_scale, base_seed=0)

    def test_leakage_curve_is_monotonicity_sane(self, adc_result):
        """Acceptance: leakage rises as the acquisition ADC gains bits."""
        entry = adc_result.summary["curves"][0]
        curve = np.asarray(entry["leakage_mean"], dtype=float)
        assert np.all(np.isfinite(curve))
        assert np.all(np.diff(curve) >= -0.05)
        assert curve[-1] - curve[0] >= 0.05
        assert curve[-1] > 0.99  # the ideal instrument sees the full leak

    def test_process_pool_bit_identical(self, adc_result, sweep_scale):
        parallel = get_experiment("sweep-adc-bits").run(
            sweep_scale,
            executor=PoolExecutor(mode="process", max_workers=2),
            base_seed=0,
        )
        _assert_results_identical(adc_result, parallel)
        assert parallel.summary == adc_result.summary

    def test_result_json_round_trip(self, adc_result):
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(adc_result.to_dict()))
        )
        assert restored.summary == adc_result.summary
        assert restored.scenarios == adc_result.scenarios
        assert len(restored.sweep) == len(adc_result.sweep)
        text = get_experiment("sweep-adc-bits").format_result(restored)
        assert "adc.bits" in text and "leakage" in text

    def test_read_noise_curve_decreases_with_noise(self, sweep_scale):
        result = get_experiment("sweep-read-noise").run(sweep_scale, base_seed=0)
        entry = result.summary["curves"][0]
        curve = entry["leakage_mean"]  # grid runs noisiest -> cleanest
        assert curve[-1] > curve[0]
        assert curve[-1] > 0.99

    def test_defense_strength_kills_advantage(self, sweep_scale):
        result = get_experiment("sweep-power-noise-defense").run(
            sweep_scale, base_seed=0
        )
        entry = result.summary["curves"][0]
        # strongest defence (first grid point) leaks far less than none (last)
        assert entry["leakage_mean"][0] < entry["leakage_mean"][-1] - 0.3
        assert entry["advantage_mean"][0] < entry["advantage_mean"][-1]

    def test_shard_geometry_recovers_leakage_under_wire_drop(self, sweep_scale):
        """Security-vs-geometry acceptance: under finite wire resistance the
        monolithic IR droop wrecks the attacker's acquisition fidelity, and
        finer shards (shorter wires) recover it monotonically."""
        result = get_experiment("sweep-shard-geometry").run(sweep_scale, base_seed=0)
        entry = result.summary["curves"][0]
        curve = np.asarray(entry["leakage_mean"], dtype=float)
        assert np.all(np.isfinite(curve))
        # monotone up to seed noise: no refinement step loses real fidelity
        assert np.all(np.diff(curve) >= -0.01)
        # recovery margin: the finest geometry leaks far more than monolithic
        assert curve[-1] - curve[0] >= 0.1

    def test_shard_geometry_per_rail_attack_curves(self, sweep_scale):
        """The geometry sweep also scores the per-shard rail attack: both
        extra curves are assembled, and on at least one sharded grid point
        the per-shard estimate strictly beats the whole-rail one."""
        result = get_experiment("sweep-shard-geometry").run(sweep_scale, base_seed=0)
        entry = result.summary["curves"][0]
        per_shard = np.asarray(
            entry["per_shard_leakage_correlation_mean"], dtype=float
        )
        whole_rail = np.asarray(
            entry["whole_rail_leakage_correlation_mean"], dtype=float
        )
        advantage = np.asarray(
            entry["per_shard_attack_advantage_mean"], dtype=float
        )
        assert per_shard.shape == whole_rail.shape == advantage.shape
        np.testing.assert_allclose(advantage, per_shard - whole_rail, atol=1e-12)
        # grid points 1.. are sharded; the rail attacker wins somewhere
        assert advantage[1:].max() > 0.0

    def test_ideal_base_sharding_is_leakage_invariant(self, sweep_scale):
        """With ideal wires sharding must not change the physics (PR 3
        claim, preserved): rebasing the geometry grid onto the paper-ideal
        scenario yields a flat curve and no per-rail advantage signal."""
        result = get_experiment("sweep-shard-geometry").run(
            sweep_scale, scenarios=["paper/mnist-softmax"], base_seed=0
        )
        entry = result.summary["curves"][0]
        np.testing.assert_allclose(
            entry["leakage_mean"], entry["leakage_mean"][0], atol=1e-9
        )
        np.testing.assert_allclose(
            entry["advantage_mean"], entry["advantage_mean"][0], atol=1e-9
        )
        # noiseless ideal instrument: per-shard and whole-rail coincide
        np.testing.assert_allclose(
            entry["per_shard_attack_advantage_mean"], 0.0, atol=1e-9
        )


class TestSweepRegressionGate:
    """CI-facing behaviour of the bench_sweeps gate in check_bench_regression."""

    @staticmethod
    def _load_script():
        import importlib.util
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression_for_sweep_tests",
            repo_root / "scripts" / "check_bench_regression.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _passing_results():
        return {
            "engine": {
                "oracle_query": [{"batch_size": 16, "speedup": 2.5}],
                "array_ops_per_power_query_batch": 1,
            },
            "bench_sweeps": {
                "sweep": "sweep-adc-bits",
                "values": ["1", "2", "4", "8", "none"],
                "leakage_curve": [0.77, 0.85, 0.99, 1.0, 1.0],
                "monotone_ok": True,
                "serial_s": 1.0,
                "process_s": 0.6,
                "results_identical": True,
                "victim_trainings": 2,
                "distinct_victims": 2,
            },
        }

    def test_passing_payload(self):
        check = self._load_script()
        assert check.check_results(self._passing_results()) == []

    def test_identity_failure(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_sweeps"]["results_identical"] = False
        failures = check.check_results(results)
        assert any("bit-identical" in f for f in failures)

    def test_monotonicity_failure(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_sweeps"]["monotone_ok"] = False
        failures = check.check_results(results)
        assert any("monotonicity-sane" in f for f in failures)

    def test_missing_wall_time_and_curve(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_sweeps"]["serial_s"] = 0.0
        del results["bench_sweeps"]["leakage_curve"]
        failures = check.check_results(results)
        assert any("serial_s" in f for f in failures)
        assert any("no leakage curve" in f for f in failures)

    def test_retrained_victim_fails(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_sweeps"]["victim_trainings"] = 3
        failures = check.check_results(results)
        assert any("trained 3 victims for 2 distinct" in f for f in failures)

    def test_missing_training_counts_fail(self):
        check = self._load_script()
        results = self._passing_results()
        del results["bench_sweeps"]["victim_trainings"]
        failures = check.check_results(results)
        assert any("victim_trainings" in f for f in failures)

    def test_section_optional(self):
        check = self._load_script()
        results = self._passing_results()
        del results["bench_sweeps"]
        assert check.check_results(results) == []

    def test_monotone_helper(self):
        import importlib.util
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "bench_sweeps_for_tests", repo_root / "benchmarks" / "bench_sweeps.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.monotone_ok([0.7, 0.85, 0.99, 1.0])
        assert module.monotone_ok([0.7, 0.69, 0.99, 1.0])  # within tolerance
        assert not module.monotone_ok([0.9, 0.5, 1.0])  # a real dip
        assert not module.monotone_ok([1.0, 1.0, 1.0])  # flat curve never rose
        assert not module.monotone_ok([0.5, float("nan"), 1.0])
        assert not module.monotone_ok([1.0])


@pytest.mark.experiments
@pytest.mark.sweeps
def test_registry_smoke_runs_every_experiment_including_sweeps(tmp_path):
    """Acceptance: the full registry — sweeps included — runs end to end."""
    results = run_experiments(None, "smoke", base_seed=0, output_dir=tmp_path)
    assert set(results) == set(list_experiments())
    for name in BUILTIN_SWEEPS:
        result = results[name]
        assert len(result.sweep) == len(get_sweep(name).values) * resolve_scale(
            "smoke"
        ).n_runs
        assert result.summary["curves"], f"{name} assembled no curves"
        assert (tmp_path / f"{name}_smoke.json").exists()
