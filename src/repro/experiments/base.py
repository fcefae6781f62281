"""The unified experiment protocol: jobs, results, and the ``Experiment`` ABC.

Every paper artefact (Table I, Figures 3-5), every scenario sweep
(:mod:`repro.experiments.sweep`) and every future study follows one
protocol:

* :meth:`Experiment.build_jobs` expands a scale preset and a list of
  :class:`~repro.experiments.scenario.ScenarioSpec` into independent
  :class:`Job` descriptions (one per scenario x seed, typically);
* :meth:`Experiment.run_job` executes one job and returns a
  :class:`~repro.utils.results.RunResult` — it must be implemented so that
  ``run_job(job)`` is picklable (delegate to a module-level function), which
  lets every pipeline run its jobs on a
  :class:`~repro.executor.PoolExecutor` process pool;
* :meth:`Experiment.assemble` folds the ordered job results into an
  :class:`ExperimentResult`.

:meth:`Experiment.run` is the shared template: build jobs, execute them
through an :class:`~repro.executor.Executor` (serial, or a process or
thread pool — bit-identical under every backend, because every job is
seeded up front and results are assembled in job order), assemble.  Jobs
reach the executor grouped by the victim they train, so the victim memo of
:mod:`repro.experiments.runner` trains each victim once.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.experiments.config import ExperimentScale, resolve_scale
from repro.experiments.scenario import ScenarioSpec, resolve_scenarios
from repro.utils.results import RunResult, SweepResult


@dataclass(frozen=True)
class Job:
    """One independent unit of work in an experiment sweep.

    Jobs are frozen and fully self-describing (experiment name, scenario,
    scale, seed, plus experiment-specific ``params``), so they can be pickled
    to worker processes and replayed individually.
    """

    experiment: str
    scenario: ScenarioSpec
    scale: ExperimentScale
    seed: int
    run_index: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one entry of :attr:`params`."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    @property
    def label(self) -> str:
        """Human-readable identifier used in logs and result names."""
        extras = "".join(f"/{value}" for _, value in self.params)
        return f"{self.experiment}/{self.scenario.name}{extras}/run{self.run_index}"


@dataclass
class ExperimentResult:
    """The assembled outcome of one experiment at one scale.

    Attributes
    ----------
    experiment:
        Registered experiment name.
    scale_name:
        The :class:`ExperimentScale` preset the sweep ran at.
    scenarios:
        Names of the scenarios covered, in execution order.
    sweep:
        Every per-job :class:`RunResult`, in job order.
    summary:
        Experiment-specific aggregated values (JSON-serialisable).
    """

    experiment: str
    scale_name: str
    scenarios: List[str] = field(default_factory=list)
    sweep: SweepResult = field(default_factory=lambda: SweepResult(name="sweep"))
    summary: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "experiment": self.experiment,
            "scale_name": self.scale_name,
            "scenarios": list(self.scenarios),
            "sweep": self.sweep.to_dict(),
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Reconstruct an :class:`ExperimentResult` written by :meth:`to_dict`."""
        return cls(
            experiment=str(payload["experiment"]),
            scale_name=str(payload["scale_name"]),
            scenarios=list(payload.get("scenarios", [])),
            sweep=SweepResult.from_dict(payload.get("sweep", {"name": "sweep"})),
            summary=dict(payload.get("summary", {})),
        )


class Experiment(ABC):
    """Protocol every experiment pipeline implements.

    Subclasses set :attr:`name` (the registry key) and :attr:`description`,
    and implement the three hooks below.  ``run_job`` implementations must
    delegate to module-level functions so process pools can pickle the work.
    """

    #: Registry key; also the prefix of result names.
    name: str = ""
    #: One-line summary shown by ``python -m repro.experiments --list``.
    description: str = ""

    def registration_fingerprint(self):
        """Identity the registry compares when a name is registered twice.

        Equal fingerprints make re-registration a benign no-op (the same
        module imported through the package and as ``__main__``); different
        fingerprints under one name are a conflict.  The default — the class
        qualname — suits one-class-per-name experiments; parameterised
        experiment classes (several instances of one class under different
        configurations, e.g. :class:`~repro.experiments.sweep.SweepExperiment`)
        must fold their configuration in.
        """
        return type(self).__qualname__

    # ------------------------------------------------------------- protocol

    def build_jobs(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        *,
        base_seed: int = 0,
    ) -> List[Job]:
        """Expand a scale and scenario list into independent jobs.

        The default expansion is the common scenario x seed grid (seeds
        derived once via :func:`seeds_for_runs`, shared by every scenario);
        experiments with a different job shape override this.  Overrides may accept
        extra keyword options (forwarded from :meth:`run`); unknown options
        raise :class:`TypeError` rather than being silently ignored.
        """
        from repro.utils.rng import seeds_for_runs

        seeds = seeds_for_runs(base_seed, scale.n_runs)
        return [
            Job(
                experiment=self.name,
                scenario=scenario,
                scale=scale,
                seed=seed,
                run_index=run_index,
            )
            for scenario in scenarios
            for run_index, seed in enumerate(seeds)
        ]

    @staticmethod
    @abstractmethod
    def run_job(job: Job) -> RunResult:
        """Execute one job (must be picklable: delegate to a module function)."""

    @abstractmethod
    def assemble(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        jobs: Sequence[Job],
        results: Sequence[RunResult],
    ) -> ExperimentResult:
        """Fold ordered job results into an :class:`ExperimentResult`."""

    def format_result(self, result: ExperimentResult) -> str:
        """Render the assembled result as the paper-style text report."""
        return f"{self.name}: {len(result.sweep)} runs at scale={result.scale_name}"

    # ------------------------------------------------------------- template

    def accepted_run_options(self) -> List[str]:
        """Names of the extra keyword options this experiment's
        :meth:`build_jobs` accepts (empty for the default grid expansion;
        ``["**anything"]`` when the override takes ``**kwargs``).

        The first two positional slots are the ``scale`` / ``scenarios``
        arguments of the protocol; anything after them that can be passed
        by keyword — ordinary defaulted parameters as well as
        keyword-only ones — is an option (``base_seed`` excepted, since
        :meth:`run` always forwards it explicitly).
        """
        signature = inspect.signature(self.build_jobs)
        accepted: List[str] = []
        positional_slots = 0
        for name, parameter in signature.parameters.items():
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                return ["**anything"]
            if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
                continue
            if parameter.kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                if positional_slots < 2:
                    positional_slots += 1  # the scale / scenarios slots
                    continue
                if (
                    parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                    and name != "base_seed"
                ):
                    accepted.append(name)
                continue
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY and name != "base_seed":
                accepted.append(name)
        return accepted

    def _validate_run_options(self, options: Mapping[str, Any]) -> None:
        """Reject unknown ``run(**options)`` at the boundary with a named
        error, instead of a bare ``TypeError`` from deep inside the
        template."""
        accepted = self.accepted_run_options()
        if accepted == ["**anything"]:
            return
        unknown = sorted(set(options) - set(accepted))
        if unknown:
            detail = (
                f"accepted options: {sorted(accepted)}"
                if accepted
                else "this experiment accepts no extra options"
            )
            raise ValueError(
                f"unknown run() options {unknown} for experiment "
                f"{self.name!r}; {detail}"
            )

    def run(
        self,
        scale="bench",
        *,
        scenarios=None,
        executor=None,
        base_seed: int = 0,
        **options,
    ) -> ExperimentResult:
        """Build, execute, and assemble the full sweep.

        Parameters
        ----------
        scale:
            Preset name or :class:`ExperimentScale`.
        scenarios:
            Scenario names / :class:`ScenarioSpec` instances; ``None`` selects
            the four paper configurations.
        executor:
            How jobs execute: an :class:`~repro.executor.Executor` instance,
            a name (``"serial"``, ``"process"``, ``"thread"``), or ``None``
            for the in-process serial path.  Results are
            bit-identical under every backend (every job is seeded up front,
            results are collected in job order).
        base_seed:
            Root of the deterministic per-job seed derivation.
        options:
            Experiment-specific knobs forwarded to :meth:`build_jobs`;
            unknown names raise :class:`ValueError` here, naming the
            experiment and its accepted options.
        """
        self._validate_run_options(options)
        scale = resolve_scale(scale)
        scenarios = resolve_scenarios(scenarios)
        jobs = self.build_jobs(scale, scenarios, base_seed=base_seed, **options)
        results = execute_jobs(jobs, executor=executor, run_job=self.run_job)
        assembled = self.assemble(scale, scenarios, jobs, results)
        assembled.summary.setdefault("base_seed", base_seed)
        return assembled


def _annotate(result: RunResult, job: Job) -> RunResult:
    """Stamp the job's identity onto its result (idempotent)."""
    result.metadata.setdefault("experiment", job.experiment)
    result.metadata.setdefault("scenario", job.scenario.name)
    result.metadata.setdefault("seed", job.seed)
    result.metadata.setdefault("run_index", job.run_index)
    return result


def _run_annotated(run_job, job: Job) -> RunResult:
    """Worker-side wrapper around an experiment's picklable ``run_job``."""
    return _annotate(run_job(job), job)


def execute_jobs(
    jobs: Sequence[Job],
    *,
    run_job: Callable[[Job], RunResult],
    executor=None,
) -> List[RunResult]:
    """Run every job through an :class:`~repro.executor.Executor`.

    The executor receives the jobs stably grouped by
    :meth:`~repro.experiments.scenario.ScenarioSpec.victim_key` (first
    appearance order), so consecutive jobs share one trained victim and the
    one-entry victim memo of :mod:`repro.experiments.runner` trains each
    victim once per process or thread.  The returned results are in the
    order of ``jobs``.

    ``executor`` is an :class:`~repro.executor.Executor` instance, a name
    understood by :func:`~repro.executor.resolve_executor` (``"serial"``,
    ``"process"``, ``"thread"``), or ``None`` for the in-process serial path.

    ``run_job`` is the experiment's module-level picklable per-job function
    (:meth:`Experiment.run_job`).  Workers receive it directly with each
    job, so user-registered experiments work under any start method
    (``fork``/``spawn``/``forkserver``) without the worker needing to
    re-import and re-register them.
    """
    from repro.executor import resolve_executor

    executor = resolve_executor(executor)
    order = victim_grouped_order(jobs)
    grouped = executor.submit_jobs([jobs[index] for index in order], run_job=run_job)
    results: List[RunResult] = [None] * len(jobs)
    for index, result in zip(order, grouped):
        results[index] = result
    return results


def victim_grouped_order(jobs: Sequence[Job]) -> List[int]:
    """Indices of ``jobs`` stably grouped by the victim each one trains.

    Groups appear in first-job order and keep job order inside.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        key = job.scenario.victim_key(job.scale, job.seed)
        groups.setdefault(key, []).append(index)
    return [index for members in groups.values() for index in members]


def group_results_by_scenario(
    jobs: Sequence[Job], results: Sequence[RunResult]
) -> List[Tuple[ScenarioSpec, List[RunResult]]]:
    """Group ordered job results by their scenario *object*, single pass.

    Keyed by the frozen :class:`ScenarioSpec` value (not its name), so two
    distinct specs that happen to share a name stay separate; groups appear
    in first-job order and each result lands in exactly one group.
    """
    groups: Dict[ScenarioSpec, List[RunResult]] = {}
    order: List[ScenarioSpec] = []
    for job, result in zip(jobs, results):
        if job.scenario not in groups:
            groups[job.scenario] = []
            order.append(job.scenario)
        groups[job.scenario].append(result)
    return [(scenario, groups[scenario]) for scenario in order]
