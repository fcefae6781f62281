"""Figure 5 — surrogate-based black-box attacks with power information.

The paper's Figure 5 has four rows, one per (dataset, observation mode)
combination: MNIST/label-only, MNIST/raw-output, CIFAR-10/label-only,
CIFAR-10/raw-output.  Each row contains three panels:

* surrogate test accuracy vs number of queries, one curve per power-loss
  weight λ (left panels a, d, g, j),
* oracle test accuracy under FGSM examples crafted on the surrogate
  (attack strength 0.1) vs number of queries (centre panels b, e, h, k),
* the improvement in the oracle's accuracy *degradation* when power
  information is used, relative to λ = 0, with asterisks marking p < 0.05
  under a Student's t-test over the independent runs (right panels c, f, i, l).

The pipeline is a registered :class:`~repro.experiments.base.Experiment`
(``"figure5"``): each (row, seed) cell is one picklable job — the per-seed
λ x query-count sweep stays inside the job so every stochastic component is
derived from the job's seed alone — and the whole figure runs on a
:class:`~repro.executor.PoolExecutor` process pool with results
bit-identical to the serial path.  Rows are derived from the scenario list
(unique datasets x both observation modes) or passed explicitly via the
``rows`` option; :meth:`Figure5Row.from_summary` rebuilds one row's curves
from ``result.summary["rows"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.statistics import independent_ttest
from repro.attacks.oracle import Oracle
from repro.attacks.surrogate import SurrogateAttack, SurrogateConfig
from repro.experiments.base import Experiment, ExperimentResult, Job
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register
from repro.experiments.reporting import format_series
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec
from repro.utils.results import RunResult
from repro.utils.rng import seeds_for_runs

#: Figure 5 row labels keyed by (dataset, output_mode).
ROW_LABELS: Dict[Tuple[str, str], str] = {
    ("mnist-like", "label"): "ROW 1 (panels a,b,c)",
    ("mnist-like", "raw"): "ROW 2 (panels d,e,f)",
    ("cifar-like", "label"): "ROW 3 (panels g,h,i)",
    ("cifar-like", "raw"): "ROW 4 (panels j,k,l)",
}

OUTPUT_MODES: Tuple[str, ...] = ("label", "raw")

#: FGSM ε applied to the oracle (0.1 in the paper).
DEFAULT_ATTACK_STRENGTH = 0.1


@dataclass
class Figure5Row:
    """Results for one row of Figure 5 (one dataset / observation mode)."""

    dataset: str
    output_mode: str
    query_counts: Tuple[int, ...]
    power_loss_weights: Tuple[float, ...]
    #: surrogate_accuracy[lambda][query index] -> list over runs
    surrogate_accuracy: Dict[float, List[List[float]]] = field(default_factory=dict)
    #: adversarial_accuracy[lambda][query index] -> list over runs
    adversarial_accuracy: Dict[float, List[List[float]]] = field(default_factory=dict)
    oracle_clean_accuracy: float = 0.0

    @classmethod
    def from_summary(cls, entry: Mapping[str, Any]) -> "Figure5Row":
        """Rebuild one row from its ``result.summary["rows"]`` entry."""
        query_counts = tuple(int(q) for q in entry["query_counts"])
        lambdas = tuple(float(lam) for lam in entry["power_loss_weights"])
        row = cls(
            dataset=entry["dataset"],
            output_mode=entry["output_mode"],
            query_counts=query_counts,
            power_loss_weights=lambdas,
            surrogate_accuracy={lam: [[] for _ in query_counts] for lam in lambdas},
            adversarial_accuracy={lam: [[] for _ in query_counts] for lam in lambdas},
        )
        for surrogate, adversarial in zip(
            entry["surrogate_accuracy"], entry["adversarial_accuracy"]
        ):
            for lam_index, lam in enumerate(lambdas):
                for query_index in range(len(query_counts)):
                    row.surrogate_accuracy[lam][query_index].append(
                        float(surrogate[lam_index][query_index])
                    )
                    row.adversarial_accuracy[lam][query_index].append(
                        float(adversarial[lam_index][query_index])
                    )
        row.oracle_clean_accuracy = float(np.mean(entry["clean_accuracies"]))
        return row

    def mean_surrogate_curve(self, power_loss_weight: float) -> List[float]:
        """Mean surrogate accuracy vs queries for one λ (left panel curve)."""
        return [float(np.mean(vals)) for vals in self.surrogate_accuracy[power_loss_weight]]

    def mean_adversarial_curve(self, power_loss_weight: float) -> List[float]:
        """Mean oracle adversarial accuracy vs queries for one λ (centre panel)."""
        return [float(np.mean(vals)) for vals in self.adversarial_accuracy[power_loss_weight]]

    def degradation_improvement(
        self, power_loss_weight: float, *, alpha: float = 0.05
    ) -> List[Dict[str, float]]:
        """Right-panel data: improvement over λ=0 with significance markers.

        The paper plots the *difference in accuracy degradation* between the
        power-augmented and power-free surrogates; positive values mean the
        power information made the attack more effective.
        """
        if 0.0 not in self.adversarial_accuracy:
            raise ValueError("the λ=0 baseline is required to compute improvements")
        baseline = self.adversarial_accuracy[0.0]
        candidate = self.adversarial_accuracy[power_loss_weight]
        improvements = []
        for query_index in range(len(self.query_counts)):
            base_vals = np.asarray(baseline[query_index], dtype=float)
            cand_vals = np.asarray(candidate[query_index], dtype=float)
            # degradation = clean - adversarial; improvement = degradation_power - degradation_baseline
            # which equals baseline_adv - candidate_adv.
            improvement = float(np.mean(base_vals) - np.mean(cand_vals))
            if len(base_vals) >= 2 and len(cand_vals) >= 2:
                test = independent_ttest(base_vals, cand_vals, alpha=alpha)
                p_value, significant = test.p_value, test.significant
            else:
                p_value, significant = 1.0, False
            improvements.append(
                {
                    "n_queries": float(self.query_counts[query_index]),
                    "improvement": improvement,
                    "p_value": p_value,
                    "significant": bool(significant),
                }
            )
        return improvements


def _sweep_row_cells(
    victim,
    dataset,
    output_mode: str,
    scale: ExperimentScale,
    seed: int,
    attack_strength: float,
) -> Dict[Tuple[float, int], Tuple[float, float]]:
    """The per-seed λ x query-count sweep against one trained victim."""
    query_counts = tuple(int(q) for q in scale.query_counts)
    lambdas = tuple(float(lam) for lam in scale.power_loss_weights)
    cells: Dict[Tuple[float, int], Tuple[float, float]] = {}
    for lam in lambdas:
        config = SurrogateConfig(power_loss_weight=lam, epochs=scale.surrogate_epochs)
        for query_index, n_queries in enumerate(query_counts):
            oracle = Oracle(
                victim.network,
                output_mode=output_mode,
                expose_power=lam > 0,
                random_state=seed,
            )
            attack = SurrogateAttack(
                oracle,
                config=config,
                attack_strength=attack_strength,
                random_state=seed + 7919 * (query_index + 1),
            )
            query_inputs = dataset.query_pool(n_queries, random_state=seed + query_index)
            outcome = attack.run(query_inputs, dataset.test_inputs, dataset.test_targets)
            cells[(lam, query_index)] = (
                outcome.surrogate_test_accuracy,
                outcome.oracle_adversarial_accuracy,
            )
    return cells


def _figure5_job(job: Job) -> RunResult:
    """One (row, seed) job: the full λ x query-count sweep for one victim.

    The victim is the linear-output single-layer network (Section IV uses
    only the linear activation for the surrogate output loss); the scenario
    contributes its dataset and any training-time defence.
    """
    scenario, scale, seed = job.scenario, job.scale, job.seed
    output_mode = job.param("output_mode", "raw")
    attack_strength = float(job.param("attack_strength", DEFAULT_ATTACK_STRENGTH))
    if scenario.activation != "linear":
        scenario = scenario.with_overrides(activation="linear")
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    victim = scenario.build_victim(dataset, scale, random_state=seed)
    cells = _sweep_row_cells(victim, dataset, output_mode, scale, seed, attack_strength)

    query_counts = tuple(int(q) for q in scale.query_counts)
    lambdas = tuple(float(lam) for lam in scale.power_loss_weights)
    surrogate = np.array(
        [[cells[(lam, qi)][0] for qi in range(len(query_counts))] for lam in lambdas]
    )
    adversarial = np.array(
        [[cells[(lam, qi)][1] for qi in range(len(query_counts))] for lam in lambdas]
    )
    result = RunResult(
        name=f"figure5/{scenario.dataset}/{output_mode}",
        metadata={
            "dataset": scenario.dataset,
            "output_mode": output_mode,
            "attack_strength": attack_strength,
            "query_counts": list(query_counts),
            "power_loss_weights": list(lambdas),
        },
    )
    result.add_array("surrogate_accuracy", surrogate)
    result.add_array("adversarial_accuracy", adversarial)
    result.add_metric("oracle_clean_accuracy", victim.test_accuracy)
    return result


class Figure5Experiment(Experiment):
    """Registered pipeline reproducing Figure 5."""

    name = "figure5"
    description = "Surrogate black-box attacks with the power loss term (Figure 5)"

    def build_jobs(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        *,
        base_seed: int = 0,
        rows: Optional[Sequence[Tuple[str, str]]] = None,
        attack_strength: float = DEFAULT_ATTACK_STRENGTH,
    ) -> List[Job]:
        """One job per (scenario, observation mode, seed).

        The victim activation is always linear (Section IV), so scenarios
        that differ *only* in activation are collapsed into one effective
        scenario — with the four paper presets that reproduces the paper's
        four rows (two datasets x two modes) exactly.  Scenarios with
        distinct hardware/defence stacks are all kept, even on the same
        dataset.  The ``rows`` option restricts/selects (dataset, mode)
        pairs explicitly; each row's dataset is paired with the first
        matching scenario (an ideal ad-hoc one when none matches).
        """
        effective: Dict[ScenarioSpec, ScenarioSpec] = {}
        for scenario in scenarios:
            linear = scenario.with_overrides(activation="linear")
            # collapse scenarios identical up to name/description/activation
            key = linear.with_overrides(name="effective", description="")
            effective.setdefault(key, linear)
        unique_scenarios = list(effective.values())
        if rows is None:
            pairs = [
                (scenario, mode)
                for scenario in unique_scenarios
                for mode in OUTPUT_MODES
            ]
        else:
            from repro.datasets import canonical_dataset_name

            scenario_for_dataset: Dict[str, ScenarioSpec] = {}
            for scenario in unique_scenarios:
                scenario_for_dataset.setdefault(scenario.dataset, scenario)
            pairs = []
            for dataset_name, output_mode in rows:
                dataset_name = canonical_dataset_name(dataset_name)
                scenario = scenario_for_dataset.get(dataset_name)
                if scenario is None:
                    scenario = ScenarioSpec(
                        name=f"adhoc/{dataset_name}-linear",
                        dataset=dataset_name,
                        activation="linear",
                    )
                pairs.append((scenario, output_mode))
        seeds = seeds_for_runs(base_seed, scale.n_runs)
        return [
            Job(
                experiment=self.name,
                scenario=scenario,
                scale=scale,
                seed=seed,
                run_index=run_index,
                params=(
                    ("output_mode", output_mode),
                    ("attack_strength", float(attack_strength)),
                ),
            )
            for scenario, output_mode in pairs
            for run_index, seed in enumerate(seeds)
        ]

    run_job = staticmethod(_figure5_job)

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
        query_counts = tuple(int(q) for q in scale.query_counts)
        lambdas = tuple(float(lam) for lam in scale.power_loss_weights)
        # keyed by the scenario *object* so distinct specs sharing a name
        # cannot merge into one row
        rows: Dict[Tuple[ScenarioSpec, str], Dict[str, object]] = {}
        for job, result in zip(jobs, results):
            assembled.sweep.add(result)
            key = (job.scenario, str(job.param("output_mode")))
            if key not in rows:
                rows[key] = {
                    "scenario": job.scenario.name,
                    "dataset": job.scenario.dataset,
                    "output_mode": key[1],
                    "query_counts": list(query_counts),
                    "power_loss_weights": list(lambdas),
                    "surrogate_accuracy": [],
                    "adversarial_accuracy": [],
                    "clean_accuracies": [],
                }
            rows[key]["surrogate_accuracy"].append(
                result.arrays["surrogate_accuracy"].tolist()
            )
            rows[key]["adversarial_accuracy"].append(
                result.arrays["adversarial_accuracy"].tolist()
            )
            rows[key]["clean_accuracies"].append(
                result.metrics["oracle_clean_accuracy"]
            )
        assembled.summary["rows"] = list(rows.values())
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        """Render every row as three text panels (scenario-keyed, collision-free)."""
        sections = []
        for entry in result.summary.get("rows", []):
            row = Figure5Row.from_summary(entry)
            label = ROW_LABELS.get(
                (row.dataset, row.output_mode), f"{row.dataset}/{row.output_mode}"
            )
            scenario = str(entry.get("scenario", ""))
            if not scenario.startswith("paper/"):
                label = f"{label} [{scenario}]"
            sections.extend(_format_row(row, label))
        return "\n\n".join(sections)


register(Figure5Experiment)


def _format_row(row: Figure5Row, label: str) -> List[str]:
    """The three text panels (surrogate, adversarial, improvement) of one row."""
    lambdas = row.power_loss_weights
    surrogate_series = {
        f"lambda={lam:g}": row.mean_surrogate_curve(lam) for lam in lambdas
    }
    adversarial_series = {
        f"lambda={lam:g}": row.mean_adversarial_curve(lam) for lam in lambdas
    }
    sections = [
        format_series(
            "queries",
            list(row.query_counts),
            surrogate_series,
            title=(
                f"Figure 5 {label} — surrogate test accuracy "
                f"({row.dataset}, {row.output_mode} outputs)"
            ),
        ),
        format_series(
            "queries",
            list(row.query_counts),
            adversarial_series,
            title=(
                f"Figure 5 {label} — oracle accuracy under transferred FGSM "
                f"(clean accuracy {row.oracle_clean_accuracy:.3f})"
            ),
        ),
    ]
    improvement_lines = [
        f"Figure 5 {label} — attack-efficacy improvement over lambda=0 ('*' = p<0.05)"
    ]
    for lam in lambdas:
        if lam == 0.0:
            continue
        entries = row.degradation_improvement(lam)
        rendered = "  ".join(
            f"Q={int(e['n_queries'])}:{e['improvement']:+.3f}{'*' if e['significant'] else ' '}"
            for e in entries
        )
        improvement_lines.append(f"  lambda={lam:g}: {rendered}")
    sections.append("\n".join(improvement_lines))
    return sections
