"""The ``cross-tenant-attack`` experiment and the ``sweep-tenant-*`` sweeps.

Quantifies the co-residency leakage the coalescing service creates — and
what each isolation policy buys back.  For every scenario x seed job a
victim tenant streams traffic through a :class:`~repro.service.coalescer.
QueryService` while a co-resident attacker floods chosen-input probes into
the same service (:func:`~repro.sidechannel.coresident.
run_coresident_attack`), reads the rail ledger its physical probe can see,
and solves the shared-tick equations for the victim's weight-column norms
(:func:`~repro.sidechannel.coresident.estimate_victim_norms`).  The job
scores the recovered norms exactly like the direct-probing pipelines —
:func:`~repro.defenses.evaluation.leakage_correlation` against the victim's
true norms and the power-guided
:func:`~repro.defenses.evaluation.single_pixel_attack_advantage` — so the
cross-tenant channel is directly comparable to the paper's first-party
attack.  When isolation leaves the attacker no victim-bearing tick to
observe (``tile-isolated``), no attack can be mounted and both scores are
defined as exactly ``0.0``.

The default scenario selection is the four ``tenant-*`` presets
(:data:`~repro.experiments.config.TENANT_PRESET_CONFIGS`), and the result
summary records whether the isolation ladder held: attack advantage
strictly decreasing across ``shared -> partitioned -> tile-isolated``.

The ``sweep-tenant-*`` experiments reuse the whole
:class:`~repro.experiments.sweep.SweepExperiment` machinery (job grids,
executors, curve assembly) with this module's co-resident attack as the
per-job measurement, turning the isolation knobs —
per-tenant coalescing budget ``service.max_batch`` and the rail
``service.noise_budget`` — into attack-advantage curves
(:data:`~repro.experiments.config.TENANT_SWEEP_GRIDS`).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.defenses.evaluation import leakage_correlation, single_pixel_attack_advantage
from repro.experiments.base import Experiment, ExperimentResult, Job
from repro.experiments.config import ExperimentScale, TENANT_SWEEP_GRIDS
from repro.experiments.registry import register
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec, get_scenario
from repro.experiments.sweep import (
    SWEEP_ATTACK_STRENGTH,
    SWEEPS,
    SweepExperiment,
    SweepSpec,
)
from repro.service import QueryService, ServiceConfig
from repro.sidechannel.coresident import estimate_victim_norms, run_coresident_attack
from repro.utils.results import RunResult

#: Attacker probes interleaved per victim row (capped at ``max_batch - 1``):
#: under shared placement this dilutes every tick down to ~one victim row.
FLOOD_RATIO = 7

#: Victim rows streamed beyond the feature count, so the shared-placement
#: equation system is (slightly) over-determined and recovery is sharp.
_VICTIM_EXTRA_ROWS = 16

#: Cap the victim stream at ``2 * scale.n_train`` rows: reduced CI scales
#: bound the cost of the service round (which otherwise scales with the
#: feature count, not the scale preset), while ``smoke`` and larger keep
#: the fully determined system for every paper dataset.
_MAX_VICTIM_ROWS_PER_TRAIN = 2

#: Pixels the attacker strikes (its best-estimated columns) when scoring the
#: targeting advantage, and the uniform sample size of the blind baseline.
_TARGET_PIXELS = 32
_BASELINE_PIXELS = 128

#: The presets the experiment compares, in decreasing-exposure order; the
#: first three are the placement-policy ladder the summary checks.
TENANT_SCENARIO_ORDER: Tuple[str, ...] = (
    "tenant-shared",
    "tenant-noise-budget",
    "tenant-partitioned",
    "tenant-tile-isolated",
)
_PLACEMENT_LADDER: Tuple[str, ...] = (
    "tenant-shared",
    "tenant-partitioned",
    "tenant-tile-isolated",
)


def _targeting_advantage(
    victim,
    leaked_norms: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    strength: float,
    random_state,
) -> float:
    """Accuracy damage of striking the attacker's top-estimated pixels.

    Mean victim accuracy under a ``+strength`` perturbation of each of the
    attacker's :data:`_TARGET_PIXELS` best-estimated columns, subtracted
    from the same figure for uniformly sampled pixels (the no-information
    baseline).  Unlike the argmax-only
    :func:`~repro.defenses.evaluation.single_pixel_attack_advantage`, this
    grades *how much of the attacker's shortlist* lands on genuinely
    sensitive columns, so it degrades smoothly as isolation blurs the
    estimate instead of saturating once any single strong column survives.
    """
    from repro.nn.metrics import accuracy

    rng = np.random.default_rng(random_state) if not hasattr(
        random_state, "integers"
    ) else random_state
    leaked = np.asarray(leaked_norms, dtype=float)
    n_features = leaked.shape[0]

    def mean_attacked_accuracy(pixels) -> float:
        scores = []
        for pixel in pixels:
            perturbed = inputs.copy()
            perturbed[:, pixel] += strength
            scores.append(accuracy(victim.predict(perturbed), targets))
        return float(np.mean(scores))

    top = np.argsort(leaked)[::-1][: min(_TARGET_PIXELS, n_features)]
    baseline = rng.choice(
        n_features, size=min(_BASELINE_PIXELS, n_features), replace=False
    )
    return mean_attacked_accuracy(baseline) - mean_attacked_accuracy(top)


async def _coresident_round(oracle, config, victim_inputs, probe_inputs, ratio):
    """One attack round through a service owned by this job."""
    async with QueryService(oracle, config) as service:
        trace = await run_coresident_attack(
            service, victim_inputs, probe_inputs, flood_ratio=ratio
        )
        stats = service.stats.to_dict()
    return trace, stats


def _probe_rows(rng, n_victim: int, ratio: int, n_features: int):
    """The attacker's chosen probes, drawn one ``(ratio, n_features)`` block
    ahead of each victim row.

    numpy's uniform draws do not depend on the block size, so the rows are
    those of one ``(ratio * n_victim, n_features)`` draw, without holding
    the whole flood at once.
    """
    for _ in range(n_victim):
        yield from rng.uniform(0.0, 1.0, size=(ratio, n_features))


def _mount_attack(scenario: ScenarioSpec, scale: ExperimentScale, seed: int):
    """Train the victim, run one co-residency round, score the recovery.

    Returns ``(model, metrics)`` with every scalar the main experiment and
    the tenant sweeps report.  The job drives the :class:`QueryService`
    itself, under the scenario's :attr:`~ScenarioSpec.service` policy — the
    two-tenant traffic pattern *is* the experiment.  The served oracle is
    :meth:`~ScenarioSpec.build_oracle`'s, with the scenario's instrument
    noise; per-tile power is exposed whenever the scenario shards layers
    onto tile banks.
    """
    config = scenario.service if scenario.service is not None else ServiceConfig()
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)
    target = scenario.build_accelerator(model.network, random_state=seed)
    oracle = scenario.build_oracle(
        target,
        random_state=seed,
        expose_per_tile_power=scenario.sharding is not None,
    )

    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0xC0E])
    n_features = dataset.n_features
    n_victim = min(
        n_features + _VICTIM_EXTRA_ROWS,
        _MAX_VICTIM_ROWS_PER_TRAIN * scale.n_train,
    )
    # Victim traffic: generic in-distribution rows, known to the attacker
    # under the profiling assumption.  Probes: the attacker's chosen inputs,
    # drawn from the same stream after the victim rows as the round needs them.
    victim_inputs = rng.uniform(0.0, 1.0, size=(n_victim, n_features))
    ratio = max(1, min(config.max_batch - 1, FLOOD_RATIO))
    probe_inputs = _probe_rows(rng, n_victim, ratio, n_features)

    trace, stats = asyncio.run(
        _coresident_round(oracle, config, victim_inputs, probe_inputs, ratio)
    )
    estimate = estimate_victim_norms(trace, n_features)

    if estimate.mounted:
        leakage = leakage_correlation(
            target, model.network, leaked_norms=estimate.column_norms
        )
        advantage = _targeting_advantage(
            model.network,
            estimate.column_norms,
            dataset.test_inputs,
            dataset.test_targets,
            strength=SWEEP_ATTACK_STRENGTH,
            random_state=np.random.default_rng([int(seed) & 0xFFFFFFFF, 0xC7B]),
        )
        single_pixel = single_pixel_attack_advantage(
            model.network,
            estimate.column_norms,
            dataset.test_inputs,
            dataset.test_targets,
            strength=SWEEP_ATTACK_STRENGTH,
            random_state=np.random.default_rng([int(seed) & 0xFFFFFFFF, 0xC7A]),
        )
    else:
        # Isolation left no victim-bearing tick visible: the attacker has
        # no estimate to aim the attack with, so the channel's advantage
        # (and leakage) are exactly zero by definition.
        leakage = 0.0
        advantage = 0.0
        single_pixel = 0.0

    metrics = {
        "attack_advantage": float(advantage),
        "single_pixel_advantage": float(single_pixel),
        "leakage_correlation": float(leakage),
        "attack_mounted": float(estimate.mounted),
        "n_equations": float(estimate.n_equations),
        "n_mixed_ticks": float(estimate.n_mixed_ticks),
        "victim_rows_per_equation": float(estimate.mean_victim_rows_per_equation),
        "coalescing_factor": float(stats["coalescing_factor"]),
        "mean_tick_rows": float(stats["mean_tick_rows"]),
        "clean_test_accuracy": float(model.test_accuracy),
    }
    return model, metrics


def _run_cross_tenant_job(job: Job) -> RunResult:
    scenario = job.scenario
    _, metrics = _mount_attack(scenario, job.scale, job.seed)
    result = RunResult(
        name=f"{job.experiment}/{scenario.name}/run{job.run_index}",
        metadata={
            "dataset": scenario.dataset,
            "activation": scenario.activation,
            "placement": (
                scenario.service.placement if scenario.service else "shared"
            ),
            "noise_budget": (
                scenario.service.noise_budget if scenario.service else 0.0
            ),
        },
    )
    for key, value in metrics.items():
        result.add_metric(key, value)
    return result


def _run_tenant_sweep_job(job: Job) -> RunResult:
    """Sweep-grid variant: same attack, the metric names sweeps assemble."""
    scenario = job.scenario
    _, metrics = _mount_attack(scenario, job.scale, job.seed)
    result = RunResult(
        name=f"{job.experiment}/{scenario.name}/run{job.run_index}",
        metadata={
            "dataset": scenario.dataset,
            "activation": scenario.activation,
            "knob": job.param("knob"),
            "value": job.param("value"),
            "value_index": job.param("value_index"),
            "base": job.param("base"),
        },
    )
    result.add_metric("leakage_correlation", metrics["leakage_correlation"])
    result.add_metric("attack_advantage", metrics["attack_advantage"])
    result.add_metric("clean_test_accuracy", metrics["clean_test_accuracy"])
    result.add_metric("n_equations", metrics["n_equations"])
    return result


@register
class CrossTenantAttackExperiment(Experiment):
    """Co-resident rail attack across the tick-placement isolation ladder."""

    name = "cross-tenant-attack"
    description = (
        "Co-resident attacker recovering victim column norms from shared-tick "
        "rail power, compared across the tenant-* isolation presets"
    )

    def run(self, scale="bench", *, scenarios=None, **kwargs) -> ExperimentResult:
        """Default the selection to the ``tenant-*`` isolation presets.

        Captured before the shared template turns ``None`` into the four
        paper configurations; explicit scenarios pass through (running under
        their own service policy, or a default shared one).
        """
        if scenarios is None:
            scenarios = tuple(get_scenario(name) for name in TENANT_SCENARIO_ORDER)
        return super().run(scale, scenarios=scenarios, **kwargs)

    run_job = staticmethod(_run_cross_tenant_job)

    def assemble(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        jobs: Sequence[Job],
        results: Sequence[RunResult],
    ) -> ExperimentResult:
        assembled = ExperimentResult(experiment=self.name, scale_name=scale.name)
        per_scenario: Dict[str, List[RunResult]] = {}
        for job, result in zip(jobs, results):
            assembled.sweep.add(result)
            if job.scenario.name not in assembled.scenarios:
                assembled.scenarios.append(job.scenario.name)
            per_scenario.setdefault(job.scenario.name, []).append(result)

        def mean(runs, metric):
            return float(np.mean([run.metrics[metric] for run in runs]))

        rows = []
        advantage_by_scenario: Dict[str, float] = {}
        for name, runs in per_scenario.items():
            advantage_by_scenario[name] = mean(runs, "attack_advantage")
            rows.append(
                {
                    "scenario": name,
                    "advantage_mean": advantage_by_scenario[name],
                    "leakage_mean": mean(runs, "leakage_correlation"),
                    "mounted": bool(
                        all(run.metrics["attack_mounted"] == 1.0 for run in runs)
                    ),
                    "n_equations_mean": mean(runs, "n_equations"),
                    "victim_rows_per_equation_mean": mean(
                        runs, "victim_rows_per_equation"
                    ),
                    "coalescing_factor_mean": mean(runs, "coalescing_factor"),
                }
            )
        assembled.summary["rows"] = rows
        assembled.summary["advantage_by_scenario"] = advantage_by_scenario
        ladder = [
            advantage_by_scenario[name]
            for name in _PLACEMENT_LADDER
            if name in advantage_by_scenario
        ]
        if len(ladder) == len(_PLACEMENT_LADDER):
            assembled.summary["isolation_ordering_ok"] = bool(
                all(a > b for a, b in zip(ladder, ladder[1:]))
            )
        assembled.summary["n_runs"] = scale.n_runs
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        lines = [
            f"{self.name} (scale={result.scale_name}, "
            f"{result.summary.get('n_runs', '?')} seeds per scenario)"
        ]
        order = {name: i for i, name in enumerate(TENANT_SCENARIO_ORDER)}
        rows = sorted(
            result.summary.get("rows", []),
            key=lambda row: order.get(row["scenario"], len(order)),
        )
        for row in rows:
            lines.append(
                f"  {row['scenario']:<24s} advantage={row['advantage_mean']:+.3f}  "
                f"leakage={row['leakage_mean']:+.3f}  "
                f"equations={row['n_equations_mean']:.0f}"
                f"@{row['victim_rows_per_equation_mean']:.1f} victim rows  "
                f"{'mounted' if row['mounted'] else 'no attack mounted'}"
            )
        if "isolation_ordering_ok" in result.summary:
            ok = result.summary["isolation_ordering_ok"]
            lines.append(
                "  isolation ladder (shared > partitioned > tile-isolated): "
                + ("holds" if ok else "VIOLATED")
            )
        return "\n".join(lines)


class CrossTenantSweepExperiment(SweepExperiment):
    """A :class:`SweepExperiment` whose measurement is the co-resident attack.

    Inherits the whole grid/executor/curve pipeline; only the per-job work
    differs, so tenant isolation knobs get the same mean±std curves as the
    hardware sweeps.
    """

    advantage_metric = "attack_advantage"
    run_job = staticmethod(_run_tenant_sweep_job)

    def _sweeps_for(self, scenarios) -> Tuple[SweepSpec, ...]:
        """Rebase the grid, grafting a coalescer onto service-less scenarios.

        The tenant knobs live under ``service.*``, but the paper presets
        carry ``service=None`` (their pipelines build a default coalescer on
        demand), so a plain rebase would fail in ``apply_knob``.  Grafting
        the sweep base's :class:`ServiceConfig` keeps the knob addressable
        while preserving the target scenario's dataset and hardware stack.
        """
        rebased = []
        for scenario in scenarios:
            scenario = get_scenario(scenario)
            if scenario.service is None:
                scenario = scenario.with_overrides(service=self.spec.base.service)
            rebased.append(self.spec.rebased(scenario))
        return tuple(rebased)


for _name, (_base, _knob, _values) in TENANT_SWEEP_GRIDS.items():
    _spec = SweepSpec(
        name=_name,
        base=get_scenario(_base),
        knob=_knob,
        values=_values,
        description=(
            f"{_knob} sweep over {len(_values)} settings "
            f"(base {_base}): co-resident attack-advantage curve"
        ),
    )
    SWEEPS[_name] = _spec
    register(CrossTenantSweepExperiment(_spec))
