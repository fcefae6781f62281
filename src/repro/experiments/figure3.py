"""Figure 3 — sensitivity maps versus weight-column 1-norm maps.

For each scenario (by default the paper's four configurations), the pipeline
reproduces the data behind the paper's eight panels: the test-set-averaged
sensitivity ``|∂L/∂u_j|`` as an image next to the column 1-norms of the
weight matrix as an image (using only the first colour channel for CIFAR-10),
and reports three summary numbers per configuration: the correlation between
the two maps, and the spatial smoothness of each map (to quantify the
"gradually changing" vs "rapidly changing" observation in Section III).

The pipeline is a registered :class:`~repro.experiments.base.Experiment`
(``"figure3"``): each scenario is one picklable job (the figure uses a single
deterministic seed), so a multi-scenario sweep runs on a
:class:`~repro.executor.PoolExecutor` process pool with results
bit-identical to the serial path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.correlation import pearson_correlation
from repro.analysis.sensitivity import sensitivity_norm_maps, spatial_smoothness
from repro.experiments.base import Experiment, ExperimentResult, Job
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register
from repro.experiments.reporting import format_table, has_non_paper_scenarios
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec
from repro.utils.results import RunResult


#: Figure 3 panel labels in the paper, keyed by (dataset, activation).
PANEL_LABELS: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("mnist-like", "linear"): ("a", "b"),
    ("mnist-like", "softmax"): ("c", "d"),
    ("cifar-like", "linear"): ("e", "f"),
    ("cifar-like", "softmax"): ("g", "h"),
}

SUMMARY_KEYS = (
    "map_correlation",
    "sensitivity_smoothness",
    "norm_smoothness",
    "victim_test_accuracy",
)


def _figure3_job(job: Job) -> RunResult:
    """Produce the map pair and summary statistics for one scenario."""
    scenario, scale, seed = job.scenario, job.scale, job.seed
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)

    target = scenario.build_accelerator(model.network, random_state=seed)
    prober = scenario.build_prober(target, dataset.n_features, random_state=seed)
    leaked_norms = prober.probe_all().column_sums

    maps = sensitivity_norm_maps(
        model.network,
        dataset.test_inputs,
        dataset.test_targets,
        dataset.image_shape,
        channel=0 if len(dataset.image_shape) == 3 else None,
        column_norms=leaked_norms,
    )
    sens_flat, norm_flat = maps.flattened()
    result = RunResult(
        name=f"figure3/{scenario.dataset}/{scenario.activation}",
        metadata={
            "dataset": scenario.dataset,
            "activation": scenario.activation,
            "map_shape": list(maps.map_shape),
            "channel": maps.channel,
        },
    )
    result.add_array("sensitivity_map", maps.sensitivity)
    result.add_array("norm_map", maps.column_norms)
    result.add_metric("map_correlation", pearson_correlation(sens_flat, norm_flat))
    result.add_metric("sensitivity_smoothness", spatial_smoothness(maps.sensitivity))
    result.add_metric("norm_smoothness", spatial_smoothness(maps.column_norms))
    result.add_metric("victim_test_accuracy", model.test_accuracy)
    return result


class Figure3Experiment(Experiment):
    """Registered pipeline reproducing the data behind Figure 3."""

    name = "figure3"
    description = "Mean-sensitivity vs 1-norm maps and their smoothness (Figure 3)"

    def build_jobs(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        *,
        base_seed: int = 0,
    ) -> List[Job]:
        return [
            Job(
                experiment=self.name,
                scenario=scenario,
                scale=scale,
                seed=base_seed,
                run_index=0,
            )
            for scenario in scenarios
        ]

    run_job = staticmethod(_figure3_job)

    def assemble(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        jobs: Sequence[Job],
        results: Sequence[RunResult],
    ) -> ExperimentResult:
        assembled = ExperimentResult(
            experiment=self.name,
            scale_name=scale.name,
            scenarios=[scenario.name for scenario in scenarios],
        )
        panels = []
        for job, result in zip(jobs, results):
            assembled.sweep.add(result)
            panel = {
                "scenario": job.scenario.name,
                "dataset": job.scenario.dataset,
                "activation": job.scenario.activation,
            }
            panel.update({key: result.metrics[key] for key in SUMMARY_KEYS})
            panels.append(panel)
        assembled.summary["panels"] = panels
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        """Render the per-panel summary (scenario-keyed, collision-free)."""
        panels = result.summary.get("panels", [])
        with_scenario = has_non_paper_scenarios(panels)
        headers = (["Scenario"] if with_scenario else ["Panels"]) + [
            "Dataset",
            "Activation",
            "Corr(sens, 1-norm)",
            "Smoothness(sens)",
            "Smoothness(1-norm)",
            "Victim acc",
        ]
        rows = []
        for panel in panels:
            key = (panel["dataset"], panel["activation"])
            labels = PANEL_LABELS.get(key, ("?", "?"))
            first = (
                [panel.get("scenario", "-")]
                if with_scenario
                else [f"({labels[0]},{labels[1]})"]
            )
            rows.append(
                first
                + [
                    panel["dataset"],
                    panel["activation"],
                    float(panel["map_correlation"]),
                    float(panel["sensitivity_smoothness"]),
                    float(panel["norm_smoothness"]),
                    float(panel["victim_test_accuracy"]),
                ]
            )
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 3 reproduction (scale={result.scale_name}) — correlation between "
                "mean-sensitivity and 1-norm maps; lower smoothness = smoother map"
            ),
            float_precision=3,
        )


register(Figure3Experiment)
