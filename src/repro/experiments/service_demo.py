"""The ``service-attack`` experiment: attacks driven through the query service.

Demonstrates the async coalescing query service end to end on real scenario
hardware: for every scenario x seed job the attacker mounts the paper's
column-norm probing attack as *concurrent single-row queries* against a
:class:`~repro.service.coalescer.QueryService` fronting the victim oracle,
and the same request sequence is replayed through the direct synchronous path
(same per-request seeds, an identically-built victim).  The job records

* ``leakage_correlation`` — the attack still works through the service;
* ``service_matches_direct`` — serviced responses are **bit-identical** to
  the direct path (1.0/0.0);
* ``coalescing_factor`` / ``mean_tick_rows`` — how many requests each fused
  traversal amortised;
* ``query_accounting_ok`` — both paths charged exactly the same number of
  queries.

The default scenario selection is the ``service-*`` presets
(:data:`~repro.experiments.config.SERVICE_PRESET_CONFIGS`); explicit
scenarios without a service knob run under a default
:class:`~repro.service.config.ServiceConfig`.  Jobs submit from a single
event loop in sequence-number order, so results are deterministic and the
experiment is process-pool-safe like every other registered pipeline.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Sequence

import numpy as np

from repro.defenses.evaluation import leakage_correlation
from repro.experiments.base import Experiment, ExperimentResult, Job
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import SCENARIOS, ScenarioSpec
from repro.service import QueryService, ServiceConfig
from repro.utils.results import RunResult


async def _serviced_probe(oracle, basis: np.ndarray, config: ServiceConfig):
    """All basis probes as concurrent single-row service requests."""
    async with QueryService(oracle, config) as service:
        responses = await asyncio.gather(
            *(service.submit(row[np.newaxis, :]) for row in basis)
        )
        seeds = [service.seeds_for(i, 1) for i in range(len(basis))]
        stats = service.stats.to_dict()
    return responses, seeds, stats


def _run_service_job(job: Job) -> RunResult:
    scenario, scale, seed = job.scenario, job.scale, job.seed
    config = scenario.service if scenario.service is not None else ServiceConfig()

    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)
    # Two identically-built victims: one behind the service, one direct.
    target_service = scenario.build_accelerator(model.network, random_state=seed)
    target_direct = scenario.build_accelerator(model.network, random_state=seed)
    oracle_service = scenario.build_oracle(target_service, random_state=seed)
    oracle_direct = scenario.build_oracle(target_direct, random_state=seed)

    basis = np.eye(dataset.n_features)
    responses, seeds, stats = asyncio.run(
        _serviced_probe(oracle_service, basis, config)
    )
    serviced_power = np.array([float(r.power[0]) for r in responses])

    identical = True
    direct_power = np.empty(len(basis))
    for i, row in enumerate(basis):
        reference = oracle_direct.query(row[np.newaxis, :], seeds=seeds[i])
        direct_power[i] = float(reference.power[0])
        identical = identical and np.array_equal(
            responses[i].outputs, reference.outputs
        )
    identical = identical and np.array_equal(serviced_power, direct_power)

    leakage = leakage_correlation(
        target_direct, model.network, leaked_norms=serviced_power
    )

    result = RunResult(
        name=f"{job.experiment}/{scenario.name}/run{job.run_index}",
        metadata={
            "dataset": scenario.dataset,
            "activation": scenario.activation,
            "service": config.to_dict(),
            "n_requests": int(stats["n_requests"]),
            "n_ticks": int(stats["n_ticks"]),
        },
    )
    result.add_metric("leakage_correlation", leakage)
    result.add_metric("service_matches_direct", float(identical))
    result.add_metric("coalescing_factor", stats["coalescing_factor"])
    result.add_metric("mean_tick_rows", stats["mean_tick_rows"])
    result.add_metric(
        "query_accounting_ok",
        float(oracle_service.queries_used == oracle_direct.queries_used == len(basis)),
    )
    result.add_metric("clean_test_accuracy", model.test_accuracy)
    return result


@register
class ServiceAttackExperiment(Experiment):
    """Probing attack through the coalescing service, verified against direct."""

    name = "service-attack"
    description = (
        "Column-norm probing driven through the async coalescing query "
        "service; serviced responses verified bit-identical to the direct path"
    )

    def run(self, scale="bench", *, scenarios=None, **kwargs) -> ExperimentResult:
        """Default the selection to the ``service-*`` presets.

        Captured before the shared template turns ``None`` into the four
        paper configurations; explicit scenarios (service-configured or not)
        pass through and run under their own — or a default — policy.
        """
        if scenarios is None:
            scenarios = tuple(
                SCENARIOS[name]
                for name in SCENARIOS
                if SCENARIOS[name].service is not None
            )
        return super().run(scale, scenarios=scenarios, **kwargs)

    run_job = staticmethod(_run_service_job)

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

        rows = []
        for name, runs in per_scenario.items():
            rows.append(
                {
                    "scenario": name,
                    "leakage_mean": float(
                        np.mean([r.metrics["leakage_correlation"] for r in runs])
                    ),
                    "coalescing_factor_mean": float(
                        np.mean([r.metrics["coalescing_factor"] for r in runs])
                    ),
                    "all_bit_identical": bool(
                        all(r.metrics["service_matches_direct"] == 1.0 for r in runs)
                    ),
                    "accounting_ok": bool(
                        all(r.metrics["query_accounting_ok"] == 1.0 for r in runs)
                    ),
                }
            )
        assembled.summary["rows"] = rows
        assembled.summary["all_bit_identical"] = bool(
            all(row["all_bit_identical"] for row in rows)
        )
        assembled.summary["n_runs"] = scale.n_runs
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        lines = [
            f"{self.name} (scale={result.scale_name}, "
            f"{result.summary.get('n_runs', '?')} seeds per scenario)"
        ]
        for row in result.summary.get("rows", []):
            lines.append(
                f"  {row['scenario']:<24s} leakage={row['leakage_mean']:+.3f}  "
                f"coalescing={row['coalescing_factor_mean']:.1f}x  "
                f"bit-identical={'yes' if row['all_bit_identical'] else 'NO'}  "
                f"accounting={'ok' if row['accounting_ok'] else 'BROKEN'}"
            )
        return "\n".join(lines)
