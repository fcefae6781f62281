"""Scenario sweeps — leakage / attack-advantage curves over hardware knobs.

The paper's central claim is that the power side channel's usefulness to an
attacker degrades as hardware realism and defences are dialled up.  A
:class:`SweepSpec` makes that a first-class experiment: it names one *knob*
of a base :class:`~repro.experiments.scenario.ScenarioSpec` (a field path
such as ``adc.bits``, ``device.read_noise``, ``defense.power_noise_std`` or
``sharding``) and a value grid, and expands into a tuple of derived
scenarios differing from the base in exactly the swept field.  The
registered :class:`SweepExperiment` fans the derived scenarios out as
scenario x seed jobs — picklable, so the whole sweep runs under any
:class:`~repro.executor.Executor` backend (one host's process or thread
pool) bit-identical to the serial path — and assembles per-setting curves of
:func:`~repro.defenses.evaluation.leakage_correlation` and
:func:`~repro.defenses.evaluation.single_pixel_attack_advantage` with
mean +/- std across seeds.

Knob paths resolve against :class:`ScenarioSpec` fields, one level of
nesting deep (``nonidealities.current_measurement_noise``); the
reader-friendly aliases in :data:`KNOB_ALIASES` map the paper's vocabulary
onto those fields.  The shipped grids live in
:data:`~repro.experiments.config.SWEEP_PRESET_GRIDS` and register the four
built-in sweeps (``sweep-adc-bits``, ``sweep-read-noise``,
``sweep-power-noise-defense``, ``sweep-shard-geometry``) alongside the
paper pipelines, so ``python -m repro.experiments sweep-adc-bits`` works
like any other experiment.  Passing explicit scenarios to a sweep re-bases
the grid onto each of them (the default selection sweeps the spec's own
base), which is how ``run_experiments(None, ...)`` drives every sweep from
one scenario selection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.crossbar.mapping import ShardingSpec
from repro.defenses.evaluation import leakage_correlation, single_pixel_attack_advantage
from repro.experiments.base import Experiment, ExperimentResult, Job
from repro.experiments.config import ExperimentScale, SWEEP_PRESET_GRIDS
from repro.experiments.registry import register
from repro.experiments.reporting import format_curves_with_spread
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec, get_scenario
from repro.utils.results import RunResult

#: Reader-friendly knob names (the paper's vocabulary) mapped onto
#: :class:`ScenarioSpec` field paths.  Any field path is accepted directly;
#: these are just the spellings the shipped sweeps use.
KNOB_ALIASES: Dict[str, str] = {
    "adc.bits": "probe_adc_bits",
    "device.read_noise": "device_read_noise",
    "rail.read_noise": "nonidealities.current_measurement_noise",
    "defense.power_noise_std": "defense_strength",
    "sharding.geometry": "sharding",
}

#: Single-pixel attack strength used by every sweep job (the
#: :func:`~repro.defenses.evaluation.evaluate_defense` default).
SWEEP_ATTACK_STRENGTH = 8.0

_SCENARIO_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))


def resolve_knob(knob: str) -> str:
    """Normalise a knob name to a validated :class:`ScenarioSpec` field path.

    Accepts a top-level field name (``measurement_noise``), a one-level
    nested path into a dataclass-valued field
    (``nonidealities.wire_resistance_ohm``), or a :data:`KNOB_ALIASES` spelling.
    """
    path = KNOB_ALIASES.get(str(knob), str(knob))
    parts = path.split(".")
    if len(parts) > 2:
        raise ValueError(
            f"knob path {knob!r} nests too deep; at most one level "
            "(e.g. 'nonidealities.current_measurement_noise') is supported"
        )
    if parts[0] not in _SCENARIO_FIELDS:
        known = sorted(_SCENARIO_FIELDS | set(KNOB_ALIASES))
        raise ValueError(f"unknown knob {knob!r}; known knobs/fields: {known}")
    return path


def swept_field(knob: str) -> str:
    """The top-level :class:`ScenarioSpec` field a knob ultimately writes."""
    return resolve_knob(knob).split(".")[0]


def apply_knob(spec: ScenarioSpec, knob: str, value: Any) -> ScenarioSpec:
    """Return a copy of ``spec`` with the knob set to ``value`` (re-validated)."""
    parts = resolve_knob(knob).split(".")
    if len(parts) == 1:
        return spec.with_overrides(**{parts[0]: value})
    head, leaf = parts
    inner = getattr(spec, head)
    if inner is None:
        raise ValueError(
            f"cannot set {knob!r}: scenario field {head!r} is None on {spec.name!r}"
        )
    if not is_dataclass(inner):
        raise ValueError(
            f"cannot nest into {head!r}: scenario field holds a plain "
            f"{type(inner).__name__}, not a config object"
        )
    if leaf not in {f.name for f in fields(type(inner))}:
        raise ValueError(
            f"unknown knob {knob!r}: {type(inner).__name__} has no field {leaf!r}"
        )
    return spec.with_overrides(**{head: replace(inner, **{leaf: value})})


def value_label(value: Any) -> str:
    """Short JSON/label-friendly rendering of one swept value."""
    if value is None:
        return "none"
    if isinstance(value, ShardingSpec):
        return f"{value.row_shards}x{value.col_shards}-{value.reduction}"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _coerce_sharding(value: Any) -> Any:
    """Accept ShardingSpec / (rows, cols, reduction) / to_dict payload / None."""
    if value is None or isinstance(value, ShardingSpec):
        return value
    if isinstance(value, Mapping):
        return ShardingSpec.from_dict(dict(value))
    if isinstance(value, (tuple, list)):
        return ShardingSpec(*value)
    raise TypeError(
        f"sharding values must be ShardingSpec, (rows, cols, reduction), "
        f"a to_dict payload or None, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SweepSpec:
    """One knob of a base scenario swept over a value grid.

    Frozen, hashable and picklable like :class:`ScenarioSpec`, so sweeps
    travel inside :class:`~repro.experiments.base.Job` payloads to worker
    processes unchanged.

    Attributes
    ----------
    name:
        Sweep identifier (also the registered experiment name).
    base:
        The scenario every derived spec starts from.
    knob:
        Field path or :data:`KNOB_ALIASES` spelling of the swept knob.
    values:
        The grid, in curve order.  Sharding values may be given as
        ``(rows, cols, reduction)`` tuples or ``to_dict`` payloads; they are
        coerced to :class:`~repro.crossbar.mapping.ShardingSpec` on
        construction.
    description:
        One-line summary for ``--list``.
    """

    name: str
    base: ScenarioSpec
    knob: str
    values: Tuple[Any, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if not isinstance(self.base, ScenarioSpec):
            raise TypeError(
                f"base must be a ScenarioSpec, got {type(self.base).__name__}"
            )
        values = tuple(self.values)
        if not values:
            raise ValueError("values must contain at least one setting")
        if swept_field(self.knob) == "sharding":  # also validates the knob path
            values = tuple(_coerce_sharding(value) for value in values)
        object.__setattr__(self, "values", values)
        self.expand()  # every grid point must produce a valid scenario

    # ------------------------------------------------------------- expansion

    def expand(self) -> Tuple[ScenarioSpec, ...]:
        """The derived scenarios, one per grid value, in grid order.

        Each differs from :attr:`base` in exactly the swept field (plus the
        derived ``name``/``description``).
        """
        derived = []
        for value in self.values:
            spec = apply_knob(self.base, self.knob, value)
            label = value_label(value)
            derived.append(
                spec.with_overrides(
                    name=f"{self.base.name}@{self.knob}={label}",
                    description=f"{self.base.name} with {self.knob} = {label}",
                )
            )
        return tuple(derived)

    def rebased(self, scenario) -> "SweepSpec":
        """The same knob/grid applied to a different base scenario."""
        return replace(self, base=get_scenario(scenario))

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        encoded = [
            value.to_dict() if isinstance(value, ShardingSpec) else value
            for value in self.values
        ]
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "knob": self.knob,
            "values": encoded,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Reconstruct a :class:`SweepSpec` written by :meth:`to_dict`.

        Unknown keys are rejected (same contract as
        ``ServiceConfig.from_dict``): a typo'd sweep-knob key must fail
        loudly, not be silently dropped.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown SweepSpec fields {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            name=str(payload["name"]),
            base=ScenarioSpec.from_dict(payload["base"]),
            knob=str(payload["knob"]),
            values=tuple(payload["values"]),
            description=str(payload.get("description", "")),
        )


def _run_sweep_job(job: Job) -> RunResult:
    """Train the derived scenario's victim and score the side channel once.

    One probe round feeds both metrics: the leakage correlation and the
    power-guided single-pixel attack both consume the same acquired column
    sums, so they describe the same physical measurement.
    """
    scenario, scale, seed = job.scenario, job.scale, job.seed
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)
    target = scenario.build_accelerator(model.network, random_state=seed)
    prober = scenario.build_prober(target, dataset.n_features, random_state=seed)
    probe = prober.probe_all()
    leaked = probe.column_sums

    leakage = leakage_correlation(target, model.network, leaked_norms=leaked)
    advantage = single_pixel_attack_advantage(
        model.network,
        leaked,
        dataset.test_inputs,
        dataset.test_targets,
        strength=SWEEP_ATTACK_STRENGTH,
        random_state=np.random.default_rng([int(seed) & 0xFFFFFFFF, 0xAD7]),
    )

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
    result.add_metric("leakage_correlation", leakage)
    result.add_metric("single_pixel_attack_advantage", advantage)
    result.add_metric("clean_test_accuracy", model.test_accuracy)
    result.add_metric("probe_queries", probe.queries_used)
    return result


def _run_shard_geometry_job(job: Job) -> RunResult:
    """Sweep job for geometry sweeps: adds the per-shard rail attack.

    On top of the standard whole-rail probe metrics this mounts the
    :class:`~repro.sidechannel.PerShardProber` against an oracle exposing
    individual shard rails (``expose_per_tile_power=True``), scoring the
    leakage correlation of the per-shard estimate against the whole-rail
    estimate recovered *from the same queries*.  Their difference —
    ``per_shard_attack_advantage`` — is the extra information an attacker
    gains from observing rails individually; on a monolithic target both
    estimates read the same single rail and the advantage vanishes.
    """
    from repro.sidechannel import PerShardProber

    scenario, scale, seed = job.scenario, job.scale, job.seed
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)
    target = scenario.build_accelerator(model.network, random_state=seed)

    # Standard whole-rail probing — same streams as _run_sweep_job, so the
    # shared metrics stay bit-identical to what a plain sweep would record.
    prober = scenario.build_prober(target, dataset.n_features, random_state=seed)
    probe = prober.probe_all()
    leaked = probe.column_sums
    leakage = leakage_correlation(target, model.network, leaked_norms=leaked)
    advantage = single_pixel_attack_advantage(
        model.network,
        leaked,
        dataset.test_inputs,
        dataset.test_targets,
        strength=SWEEP_ATTACK_STRENGTH,
        random_state=np.random.default_rng([int(seed) & 0xFFFFFFFF, 0xAD7]),
    )

    oracle = scenario.build_oracle(
        target, random_state=seed, expose_per_tile_power=True
    )
    shard_probe = PerShardProber(
        oracle,
        dataset.n_features,
        has_bias_column=model.network.layers[0].use_bias,
    ).probe_all()
    per_shard = leakage_correlation(
        target, model.network, leaked_norms=shard_probe.per_shard_norms
    )
    whole_rail = leakage_correlation(
        target, model.network, leaked_norms=shard_probe.whole_rail_norms
    )

    result = RunResult(
        name=f"{job.experiment}/{scenario.name}/run{job.run_index}",
        metadata={
            "dataset": scenario.dataset,
            "activation": scenario.activation,
            "knob": job.param("knob"),
            "value": job.param("value"),
            "value_index": job.param("value_index"),
            "base": job.param("base"),
            "rail_grid": list(shard_probe.grid),
        },
    )
    result.add_metric("leakage_correlation", leakage)
    result.add_metric("single_pixel_attack_advantage", advantage)
    result.add_metric("clean_test_accuracy", model.test_accuracy)
    result.add_metric("probe_queries", probe.queries_used)
    result.add_metric("per_shard_leakage_correlation", per_shard)
    result.add_metric("whole_rail_leakage_correlation", whole_rail)
    result.add_metric("per_shard_attack_advantage", per_shard - whole_rail)
    return result


class SweepExperiment(Experiment):
    """Registered experiment running one :class:`SweepSpec` end to end.

    ``scenarios=None`` sweeps the spec's own base; any explicit scenario
    selection — including the four paper configurations — re-bases the grid
    onto each chosen scenario, so hardware sweeps compose with any victim
    setup.
    """

    #: Metric assembled into the ``advantage_mean``/``advantage_std`` curve.
    #: Subclasses whose jobs measure a different notion of attacker advantage
    #: (e.g. the cross-tenant targeting advantage) override this.
    advantage_metric = "single_pixel_attack_advantage"

    #: Additional per-run metrics assembled into ``<metric>_mean`` /
    #: ``<metric>_std`` curve entries.  Subclasses whose jobs report more
    #: than the two standard curves (e.g. the per-shard attack comparison)
    #: list them here.
    extra_curve_metrics: Tuple[str, ...] = ()

    def __init__(self, spec: SweepSpec, *, description: str = ""):
        self.spec = spec
        self.name = spec.name
        self.description = description or spec.description or (
            f"Leakage/attack-advantage curve over {spec.knob} "
            f"({len(spec.values)} settings, base {spec.base.name})"
        )

    def registration_fingerprint(self):
        """Two sweeps conflict unless name *and* grid agree (same class)."""
        return (type(self).__qualname__, self.spec)

    # ------------------------------------------------------------- protocol

    def run(self, scale="bench", *, scenarios=None, **kwargs) -> ExperimentResult:
        """Resolve the default selection to the sweep's own base.

        Captured *before* the shared template turns ``None`` into the four
        paper configurations, so explicitly requesting the paper scenarios
        re-bases the grid onto each of them like any other selection.
        """
        if scenarios is None:
            scenarios = (self.spec.base,)
        return super().run(scale, scenarios=scenarios, **kwargs)

    def build_jobs(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        *,
        base_seed: int = 0,
    ) -> List[Job]:
        from repro.utils.rng import seeds_for_runs

        seeds = seeds_for_runs(base_seed, scale.n_runs)
        jobs: List[Job] = []
        for sweep in self._sweeps_for(scenarios):
            for value_index, (value, derived) in enumerate(
                zip(sweep.values, sweep.expand())
            ):
                for run_index, seed in enumerate(seeds):
                    jobs.append(
                        Job(
                            experiment=self.name,
                            scenario=derived,
                            scale=scale,
                            seed=seed,
                            run_index=run_index,
                            params=(
                                ("knob", sweep.knob),
                                ("value", value_label(value)),
                                ("value_index", value_index),
                                ("base", sweep.base.name),
                            ),
                        )
                    )
        return jobs

    def _sweeps_for(self, scenarios: Sequence[ScenarioSpec]) -> Tuple[SweepSpec, ...]:
        return tuple(self.spec.rebased(scenario) for scenario in scenarios)

    run_job = staticmethod(_run_sweep_job)

    def assemble(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        jobs: Sequence[Job],
        results: Sequence[RunResult],
    ) -> ExperimentResult:
        assembled = ExperimentResult(experiment=self.name, scale_name=scale.name)
        labels = [value_label(value) for value in self.spec.values]
        # per-base accumulation: base -> value_index -> list of per-seed runs
        per_base: Dict[str, List[List[RunResult]]] = {}
        for job, result in zip(jobs, results):
            assembled.sweep.add(result)
            if job.scenario.name not in assembled.scenarios:
                assembled.scenarios.append(job.scenario.name)
            cells = per_base.setdefault(
                job.param("base"), [[] for _ in self.spec.values]
            )
            cells[job.param("value_index")].append(result)

        def curve(cells, metric):
            mean, std = [], []
            for runs in cells:
                values = np.array([run.metrics[metric] for run in runs], dtype=float)
                mean.append(float(values.mean()))
                std.append(float(values.std()))
            return mean, std

        curves = []
        for base_name, cells in per_base.items():
            leakage_mean, leakage_std = curve(cells, "leakage_correlation")
            advantage_mean, advantage_std = curve(cells, self.advantage_metric)
            accuracy_mean, _ = curve(cells, "clean_test_accuracy")
            entry = {
                "base": base_name,
                "values": list(labels),
                "leakage_mean": leakage_mean,
                "leakage_std": leakage_std,
                "advantage_mean": advantage_mean,
                "advantage_std": advantage_std,
                "accuracy_mean": accuracy_mean,
            }
            for metric in self.extra_curve_metrics:
                metric_mean, metric_std = curve(cells, metric)
                entry[f"{metric}_mean"] = metric_mean
                entry[f"{metric}_std"] = metric_std
            curves.append(entry)
        assembled.summary["knob"] = self.spec.knob
        assembled.summary["values"] = list(labels)
        assembled.summary["attack_strength"] = SWEEP_ATTACK_STRENGTH
        assembled.summary["n_runs"] = scale.n_runs
        assembled.summary["curves"] = curves
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        """One text panel per base: the two curves with their seed spread."""
        knob = result.summary.get("knob", self.spec.knob)
        sections = []
        for entry in result.summary.get("curves", []):
            sections.append(
                format_curves_with_spread(
                    knob,
                    entry["values"],
                    {
                        "leakage": (entry["leakage_mean"], entry["leakage_std"]),
                        "advantage": (entry["advantage_mean"], entry["advantage_std"]),
                    },
                    extra={"clean acc": entry["accuracy_mean"]},
                    title=(
                        f"{self.name} — base {entry['base']} "
                        f"(scale={result.scale_name}, mean±std over "
                        f"{result.summary.get('n_runs', '?')} seeds)"
                    ),
                )
            )
        return "\n\n".join(sections)


class ShardGeometrySweepExperiment(SweepExperiment):
    """Geometry sweep scoring the per-shard rail attack per grid point.

    Jobs run :func:`_run_shard_geometry_job`, so every curve entry also
    carries ``per_shard_leakage_correlation`` /
    ``whole_rail_leakage_correlation`` / ``per_shard_attack_advantage``
    means and stds alongside the standard leakage and attack curves.  With
    finite wire resistance on the base scenario this turns the sweep into
    the security-vs-geometry result: finer shards recover leakage fidelity
    (shorter wires, less IR droop) while simultaneously handing a per-rail
    attacker more individually observable rails.
    """

    extra_curve_metrics = (
        "per_shard_leakage_correlation",
        "whole_rail_leakage_correlation",
        "per_shard_attack_advantage",
    )

    run_job = staticmethod(_run_shard_geometry_job)

    def format_result(self, result: ExperimentResult) -> str:
        knob = result.summary.get("knob", self.spec.knob)
        sections = []
        for entry in result.summary.get("curves", []):
            sections.append(
                format_curves_with_spread(
                    knob,
                    entry["values"],
                    {
                        "leakage": (entry["leakage_mean"], entry["leakage_std"]),
                        "advantage": (entry["advantage_mean"], entry["advantage_std"]),
                        "per-shard leak": (
                            entry["per_shard_leakage_correlation_mean"],
                            entry["per_shard_leakage_correlation_std"],
                        ),
                        "rail advantage": (
                            entry["per_shard_attack_advantage_mean"],
                            entry["per_shard_attack_advantage_std"],
                        ),
                    },
                    extra={"clean acc": entry["accuracy_mean"]},
                    title=(
                        f"{self.name} — base {entry['base']} "
                        f"(scale={result.scale_name}, mean±std over "
                        f"{result.summary.get('n_runs', '?')} seeds)"
                    ),
                )
            )
        return "\n\n".join(sections)


#: The shipped sweeps, keyed by name (built from config.SWEEP_PRESET_GRIDS).
SWEEPS: Dict[str, SweepSpec] = {}

for _name, (_base, _knob, _values) in SWEEP_PRESET_GRIDS.items():
    _spec = SweepSpec(
        name=_name,
        base=get_scenario(_base),
        knob=_knob,
        values=_values,
        description=(
            f"{_knob} sweep over {len(_values)} settings "
            f"(base {_base}): leakage/attack-advantage curve"
        ),
    )
    SWEEPS[_name] = _spec
    _experiment_cls = (
        ShardGeometrySweepExperiment
        if _name == "sweep-shard-geometry"
        else SweepExperiment
    )
    register(_experiment_cls(_spec))


def get_sweep(name: str) -> SweepSpec:
    """Look up a built-in sweep preset by name."""
    key = str(name)
    if key not in SWEEPS:
        raise KeyError(f"unknown sweep {name!r}; available: {sorted(SWEEPS)}")
    return SWEEPS[key]
