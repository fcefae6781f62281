"""Tests for the repro.experiments subpackage (configs, reporting, pipelines)."""

import numpy as np
import pytest

from repro.experiments.config import (
    PAPER_CONFIGURATIONS,
    SCALES,
    ExperimentScale,
    resolve_scale,
)
from repro.executor import PoolExecutor
from repro.experiments.figure4 import STRATEGIES
from repro.experiments.figure5 import Figure5Row
from repro.experiments.registry import get_experiment
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import prepare_dataset, prepare_model
from repro.experiments.table1 import PAPER_TABLE1
from repro.utils.results import RunResult
from repro.utils.rng import seeds_for_runs


class TestConfig:
    def test_scales_exist(self):
        assert {"smoke", "bench", "paper"} <= set(SCALES)

    def test_resolve_scale_by_name_and_instance(self):
        scale = resolve_scale("smoke")
        assert isinstance(scale, ExperimentScale)
        assert resolve_scale(scale) is scale

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_scale("gigantic")

    def test_with_overrides(self):
        scale = resolve_scale("smoke").with_overrides(n_runs=7)
        assert scale.n_runs == 7
        assert SCALES["smoke"].n_runs != 7

    def test_paper_configurations_cover_four_cases(self):
        assert len(PAPER_CONFIGURATIONS) == 4
        datasets = {d for d, _ in PAPER_CONFIGURATIONS}
        activations = {a for _, a in PAPER_CONFIGURATIONS}
        assert datasets == {"mnist-like", "cifar-like"}
        assert activations == {"linear", "softmax"}

    def test_paper_scale_matches_paper_parameters(self):
        paper = SCALES["paper"]
        assert paper.n_runs == 10
        assert 60000 in paper.query_counts
        assert paper.attack_strengths == tuple(float(s) for s in range(11))
        assert max(paper.power_loss_weights) == pytest.approx(0.01)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bbb" in lines[0]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.startswith("My table")

    def test_format_series(self):
        text = format_series("q", [1, 2], {"curve": [0.1, 0.2], "other": [0.3, 0.4]})
        assert "curve" in text and "other" in text
        assert len(text.splitlines()) == 4


class TestRunner:
    def test_prepare_dataset_and_model(self):
        scale = resolve_scale("smoke")
        dataset = prepare_dataset("mnist-like", scale, random_state=0)
        assert dataset.n_train == scale.n_train
        model = prepare_model(dataset, "softmax", scale, random_state=0)
        assert model.test_accuracy > 0.5
        assert model.n_features == dataset.n_features


def _seed_metric_run(run_index, seed):
    """Module-level run_fn so PoolExecutor's process mode can pickle it."""
    result = RunResult(name=f"run{run_index}")
    result.add_metric("seed_value", float(seed % 1000))
    return result


class TestPoolExecutor:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PoolExecutor(mode="gpu")

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_parallel_matches_serial(self, mode):
        args_list = list(enumerate(seeds_for_runs(5, 4)))
        serial = [_seed_metric_run(*args) for args in args_list]
        parallel = PoolExecutor(mode=mode, max_workers=2).map(_seed_metric_run, args_list)
        np.testing.assert_allclose(
            [r.metrics["seed_value"] for r in parallel],
            [r.metrics["seed_value"] for r in serial],
        )
        assert len(parallel) == 4
        assert [r.name for r in parallel] == [r.name for r in serial]

    def test_process_mode_falls_back_for_closures(self):
        captured = []

        def run_fn(run_index, seed):  # closure over local state: unpicklable
            captured.append(run_index)
            return _seed_metric_run(run_index, seed)

        executor = PoolExecutor(mode="process")
        args_list = list(enumerate(seeds_for_runs(1, 3)))
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = executor.map(run_fn, args_list)
        assert captured == [0, 1, 2]
        assert len(results) == 3

    def test_map_preserves_order(self):
        executor = PoolExecutor(mode="thread", max_workers=4)
        values = executor.map(pow, [(2, i) for i in range(8)])
        assert values == [2**i for i in range(8)]


@pytest.fixture(scope="module")
def smoke_scale():
    return resolve_scale("smoke")


def _row_for(result, dataset, activation):
    """The Table I summary row of one (dataset, activation) configuration."""
    for row in result.summary["rows"]:
        if row["dataset"] == dataset and row["activation"] == activation:
            return row
    raise KeyError(f"no row for ({dataset}, {activation})")


class TestTable1Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("table1").run("smoke", base_seed=0)

    def test_all_configurations_present(self, result):
        assert len(result.summary["rows"]) == 4
        for dataset, activation in PAPER_CONFIGURATIONS:
            row = _row_for(result, dataset, activation)
            assert "mean_correlation_test" in row

    def test_correlation_of_mean_exceeds_mean_correlation(self, result):
        """The paper's central Table I finding must hold in the reproduction."""
        for row in result.summary["rows"]:
            assert row["correlation_of_mean_test"] > row["mean_correlation_test"]

    def test_correlations_positive_and_substantial(self, result):
        for row in result.summary["rows"]:
            assert row["correlation_of_mean_test"] > 0.5
            assert row["mean_correlation_test"] > 0.0

    def test_paper_reference_attached(self, result):
        assert _row_for(result, "mnist-like", "linear")["paper"] == PAPER_TABLE1[
            ("mnist-like", "linear")
        ]

    def test_formatting(self, result):
        text = get_experiment("table1").format_result(result)
        assert "Table I" in text
        assert "mnist-like" in text and "cifar-like" in text

    def test_missing_row_raises(self, result):
        with pytest.raises(KeyError):
            _row_for(result, "svhn", "linear")


def _panel_runs(result):
    """Figure 3's per-panel runs (maps in ``arrays``) keyed by configuration."""
    return {
        (run.metadata["dataset"], run.metadata["activation"]): run
        for run in result.sweep
    }


def _panel_summaries(result):
    return {
        (panel["dataset"], panel["activation"]): panel
        for panel in result.summary["panels"]
    }


class TestFigure3Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure3").run("smoke", base_seed=0)

    def test_all_panels_present(self, result):
        assert set(_panel_runs(result)) == set(PAPER_CONFIGURATIONS)

    def test_maps_have_image_shape(self, result):
        runs = _panel_runs(result)
        mnist = runs[("mnist-like", "softmax")]
        assert mnist.arrays["sensitivity_map"].shape == (28, 28)
        cifar = runs[("cifar-like", "softmax")]
        assert cifar.arrays["sensitivity_map"].shape == (32, 32)
        assert cifar.metadata["channel"] == 0

    def test_maps_visibly_correlated(self, result):
        for summary in _panel_summaries(result).values():
            assert summary["map_correlation"] > 0.3

    def test_mnist_smoother_than_cifar(self, result):
        """Section III: the MNIST 1-norm map changes gradually, CIFAR rapidly."""
        summaries = _panel_summaries(result)
        mnist = summaries[("mnist-like", "softmax")]["norm_smoothness"]
        cifar = summaries[("cifar-like", "softmax")]["norm_smoothness"]
        assert mnist < cifar

    def test_formatting(self, result):
        assert "Figure 3" in get_experiment("figure3").format_result(result)


def _curves(result):
    return {
        (entry["dataset"], entry["activation"]): entry["curves"]
        for entry in result.summary["curves"]
    }


class TestFigure4Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure4").run("smoke", base_seed=0)

    def test_curves_for_all_configs_and_strategies(self, result):
        curves_by_config = _curves(result)
        assert set(curves_by_config) == set(PAPER_CONFIGURATIONS)
        for curves in curves_by_config.values():
            assert set(curves) == {s.paper_label for s in STRATEGIES}
            for curve in curves.values():
                assert len(curve) == len(result.summary["attack_strengths"])

    def test_zero_strength_equals_clean_accuracy(self, result):
        for curves in _curves(result).values():
            baselines = {label: curve[0] for label, curve in curves.items()}
            assert len(set(np.round(list(baselines.values()), 6))) == 1

    def test_mnist_ordering_matches_paper(self, result):
        """Worst <= power-guided <= RP at the strongest attack (MNIST panels)."""
        for activation in ("linear", "softmax"):
            curves = _curves(result)[("mnist-like", activation)]
            final = {label: curve[-1] for label, curve in curves.items()}
            assert final["Worst"] <= final["RD"] + 0.05
            assert final["RD"] <= final["RP"] + 0.05
            assert final["+"] < final["RP"]

    def test_formatting(self, result):
        text = get_experiment("figure4").format_result(result)
        assert "Figure 4(a)" in text and "Figure 4(d)" in text


class TestFigure5Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure5").run(
            "smoke", rows=(("mnist-like", "label"),), base_seed=0, attack_strength=0.1
        )

    @pytest.fixture(scope="class")
    def row(self, result):
        (entry,) = result.summary["rows"]
        return Figure5Row.from_summary(entry)

    def test_row_structure(self, row):
        assert (row.dataset, row.output_mode) == ("mnist-like", "label")
        assert row.query_counts == tuple(SCALES["smoke"].query_counts)
        assert set(row.surrogate_accuracy) == set(SCALES["smoke"].power_loss_weights)

    def test_curves_have_run_values(self, row):
        for lam in row.power_loss_weights:
            for values in row.surrogate_accuracy[lam]:
                assert len(values) == SCALES["smoke"].n_runs

    def test_surrogate_improves_with_queries(self, row):
        curve = row.mean_surrogate_curve(0.0)
        assert curve[-1] > curve[0]

    def test_attack_beats_clean_accuracy(self, row):
        adversarial = row.mean_adversarial_curve(0.0)
        assert min(adversarial) < row.oracle_clean_accuracy

    def test_degradation_improvement_entries(self, row):
        entries = row.degradation_improvement(row.power_loss_weights[-1])
        assert len(entries) == len(row.query_counts)
        for entry in entries:
            assert {"n_queries", "improvement", "p_value", "significant"} <= set(entry)

    def test_degradation_requires_baseline(self, row):
        saved = row.adversarial_accuracy.pop(0.0)
        try:
            with pytest.raises(ValueError):
                row.degradation_improvement(row.power_loss_weights[-1])
        finally:
            row.adversarial_accuracy[0.0] = saved

    def test_formatting(self, result):
        text = get_experiment("figure5").format_result(result)
        assert "surrogate test accuracy" in text
        assert "improvement over lambda=0" in text
