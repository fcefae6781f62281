"""Experiment pipelines regenerating every table and figure of the paper.

All pipelines follow one protocol (:class:`~repro.experiments.base.Experiment`):
they expand an :class:`~repro.experiments.config.ExperimentScale` and a list of
:class:`~repro.experiments.scenario.ScenarioSpec` into independent picklable
jobs, execute them under any :class:`~repro.executor.Executor` backend —
in-process serial or one host's process/thread pool (bit-identical results
under every backend) — and assemble an
:class:`~repro.experiments.base.ExperimentResult`.  The registry
(:func:`get_experiment` / :func:`run_experiments`) plus the CLI
(``python -m repro.experiments``) run any subset at any scale.
"""

from repro.crossbar.mapping import ShardingSpec
from repro.experiments.config import (
    ExperimentScale,
    SCALES,
    SERVICE_PRESET_CONFIGS,
    SHARD_PRESET_GEOMETRIES,
    SWEEP_PRESET_GRIDS,
    resolve_scale,
)
from repro.experiments.runner import prepare_model, prepare_dataset, TrainedModel
from repro.experiments.base import Experiment, ExperimentResult, Job, execute_jobs
from repro.experiments.scenario import (
    PAPER_SCENARIOS,
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    resolve_scenarios,
)
from repro.experiments.registry import (
    get_experiment,
    list_experiments,
    register,
    run_experiments,
)
from repro.experiments.sweep import (
    KNOB_ALIASES,
    SWEEPS,
    SweepExperiment,
    SweepSpec,
    apply_knob,
    get_sweep,
    resolve_knob,
    swept_field,
)
from repro.experiments.service_demo import ServiceAttackExperiment
from repro.experiments.reporting import (
    format_curves_with_spread,
    format_series,
    format_table,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "SERVICE_PRESET_CONFIGS",
    "SHARD_PRESET_GEOMETRIES",
    "SWEEP_PRESET_GRIDS",
    "ShardingSpec",
    "resolve_scale",
    "ServiceAttackExperiment",
    "prepare_model",
    "prepare_dataset",
    "TrainedModel",
    "Experiment",
    "ExperimentResult",
    "Job",
    "execute_jobs",
    "ScenarioSpec",
    "SCENARIOS",
    "PAPER_SCENARIOS",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "resolve_scenarios",
    "register",
    "get_experiment",
    "list_experiments",
    "run_experiments",
    "KNOB_ALIASES",
    "SWEEPS",
    "SweepExperiment",
    "SweepSpec",
    "apply_knob",
    "get_sweep",
    "resolve_knob",
    "swept_field",
    "format_table",
    "format_series",
    "format_curves_with_spread",
]
