"""Figure 4 — power-guided single-pixel attacks.

For each scenario (by default the paper's four configurations) the pipeline
plots test accuracy against attack strength (0-10) for five single-pixel
strategies: RP (random pixel, random sign), "+" (largest-1-norm pixel, add),
"−" (largest-1-norm pixel, subtract), RD (largest-1-norm pixel, random sign)
and Worst (white-box single-pixel FGSM).  The 1-norm information is obtained
by probing the power side channel of the simulated crossbar.

The expected qualitative ordering (reproduced and asserted by the tests) is
``Worst ≤ power-guided ≤ RP`` in accuracy — i.e. the power information makes
the attack substantially more effective than random, without reaching the
white-box bound.

The pipeline is a registered :class:`~repro.experiments.base.Experiment`
(``"figure4"``): each scenario x seed cell is one picklable job, so the whole
sweep runs on a :class:`~repro.executor.PoolExecutor` process pool with
results bit-identical to the serial path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Job,
    group_results_by_scenario,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register
from repro.experiments.reporting import format_series
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec
from repro.utils.results import RunResult

#: Figure 4 panel labels keyed by (dataset, activation).
PANEL_LABELS: Dict[Tuple[str, str], str] = {
    ("mnist-like", "linear"): "a",
    ("mnist-like", "softmax"): "b",
    ("cifar-like", "linear"): "c",
    ("cifar-like", "softmax"): "d",
}

STRATEGIES: Tuple[SinglePixelStrategy, ...] = (
    SinglePixelStrategy.RANDOM_PIXEL,
    SinglePixelStrategy.POWER_ADD,
    SinglePixelStrategy.POWER_SUBTRACT,
    SinglePixelStrategy.POWER_RANDOM,
    SinglePixelStrategy.WORST_CASE,
)


def _figure4_job(job: Job) -> RunResult:
    """Train a victim, probe its power channel, and run all five strategies."""
    scenario, scale, seed = job.scenario, job.scale, job.seed
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)

    target = scenario.build_accelerator(model.network, random_state=seed)
    prober = scenario.build_prober(target, dataset.n_features, random_state=seed)
    probe = prober.probe_all()
    leaked_norms = probe.column_sums

    result = RunResult(
        name=f"figure4/{scenario.dataset}/{scenario.activation}",
        metadata={"dataset": scenario.dataset, "activation": scenario.activation},
    )
    result.add_metric("clean_test_accuracy", model.test_accuracy)
    result.add_metric("probe_queries", probe.queries_used)

    for strategy in STRATEGIES:
        attack = SinglePixelAttack(
            strategy,
            column_norms=leaked_norms,
            network=model.network,
            queries_used=probe.queries_used if strategy.needs_power_information else 0,
            random_state=seed,
        )
        accuracies = [
            accuracy_under_attack(
                model.network,
                attack,
                dataset.test_inputs,
                dataset.test_targets,
                strength,
            )
            for strength in scale.attack_strengths
        ]
        result.add_array(strategy.paper_label, accuracies)
    return result


class Figure4Experiment(Experiment):
    """Registered pipeline reproducing the Figure 4 attack curves.

    Jobs are the default scenario x seed grid from the :class:`Experiment`
    base class.
    """

    name = "figure4"
    description = "Single-pixel attack accuracy vs strength, five strategies (Figure 4)"

    run_job = staticmethod(_figure4_job)

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
        assembled.summary["attack_strengths"] = [
            float(s) for s in scale.attack_strengths
        ]
        curves_by_scenario = []
        for scenario, runs in group_results_by_scenario(jobs, results):
            for result in runs:
                assembled.sweep.add(result)
            curves: Dict[str, List[float]] = {}
            for strategy in STRATEGIES:
                label = strategy.paper_label
                stacked = np.stack([run.arrays[label] for run in runs])
                curves[label] = stacked.mean(axis=0).tolist()
            curves_by_scenario.append(
                {
                    "scenario": scenario.name,
                    "dataset": scenario.dataset,
                    "activation": scenario.activation,
                    "curves": curves,
                }
            )
        assembled.summary["curves"] = curves_by_scenario
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        """Render one text panel per scenario (collision-free for variants)."""
        strengths = list(result.summary.get("attack_strengths", ()))
        sections = []
        for entry in result.summary.get("curves", []):
            key = (entry["dataset"], entry["activation"])
            panel = PANEL_LABELS.get(key, "?")
            sections.append(
                format_series(
                    "strength",
                    strengths,
                    entry["curves"],
                    title=(
                        f"Figure 4({panel}) reproduction — {entry['scenario']} "
                        f"({entry['dataset']}, {entry['activation']} output, "
                        f"scale={result.scale_name})"
                    ),
                )
            )
        return "\n\n".join(sections)


register(Figure4Experiment)
