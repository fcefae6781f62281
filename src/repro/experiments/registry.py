"""Experiment registry and the uniform ``run_experiments`` entry point.

Experiments register themselves at import time via :func:`register`; the
four paper pipelines (``table1``, ``figure3``, ``figure4``, ``figure5``) and
the built-in scenario sweeps (``sweep-*``) are imported lazily on first
lookup so worker processes that unpickle a job can resolve its experiment
without any caller-side setup.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.config import resolve_scale
from repro.utils.serialization import save_json

_REGISTRY: Dict[str, Experiment] = {}

#: Modules that define (and register) the built-in experiments.
_BUILTIN_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.figure3",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.sweep",
    "repro.experiments.service_demo",
    "repro.experiments.cross_tenant",
)


def register(experiment: Union[Experiment, type]) -> Experiment:
    """Register an experiment (class or instance) under its ``name``.

    Returns the registered instance, so it can be used as a class decorator.
    Registering a *different* experiment under an existing name is rejected;
    re-registering an experiment with an equal
    :meth:`~repro.experiments.base.Experiment.registration_fingerprint` is a
    no-op returning the existing instance (this happens legitimately when an
    experiment module is imported twice, e.g. once through the package and
    once as ``__main__``).
    """
    instance = experiment() if isinstance(experiment, type) else experiment
    if not isinstance(instance, Experiment):
        raise TypeError(f"expected an Experiment, got {type(instance).__name__}")
    if not instance.name:
        raise ValueError("experiment must define a non-empty name")
    key = str(instance.name).lower()  # lookups are case-insensitive
    existing = _REGISTRY.get(key)
    if existing is not None:
        if existing.registration_fingerprint() == instance.registration_fingerprint():
            return experiment if isinstance(experiment, type) else existing
        raise ValueError(f"experiment {instance.name!r} is already registered")
    _REGISTRY[key] = instance
    return experiment if isinstance(experiment, type) else instance


def _ensure_builtins() -> None:
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name (instances pass through)."""
    if isinstance(name, Experiment):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        _ensure_builtins()
    if key not in _REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; available: {list_experiments()}")
    return _REGISTRY[key]


def list_experiments() -> List[str]:
    """Sorted names of every registered experiment."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def _derive_journal_path(path, experiment_name: str) -> Path:
    """Per-experiment journal path: ``run.jsonl`` -> ``run.<name>.jsonl``."""
    path = Path(path)
    return path.with_name(f"{path.stem}.{experiment_name}{path.suffix}")


@contextmanager
def _scoped_journal_paths(executor, experiment_name: str, multi: bool):
    """Give each experiment of a multi-experiment run its own journal files.

    A :class:`~repro.executor.queue.QueueExecutor` journal describes exactly
    one job grid: sharing one path across experiments would truncate each
    previous experiment's journal on open, and a shared ``resume`` path
    raises :class:`~repro.executor.errors.JournalMismatchError` on the
    second grid.  A derived ``resume`` file that does not exist (the
    previous run crashed before reaching that experiment) simply means a
    fresh run for that experiment.
    """
    journal = getattr(executor, "journal", None)
    resume = getattr(executor, "resume", None)
    if not multi or (journal is None and resume is None):
        yield
        return
    try:
        if journal is not None:
            executor.journal = _derive_journal_path(journal, experiment_name)
        if resume is not None:
            derived = _derive_journal_path(resume, experiment_name)
            executor.resume = derived if derived.exists() else None
        yield
    finally:
        executor.journal = journal
        executor.resume = resume


def run_experiments(
    names: Optional[Sequence[str]] = None,
    scale="bench",
    *,
    executor=None,
    scenarios=None,
    base_seed: int = 0,
    output_dir=None,
) -> Dict[str, ExperimentResult]:
    """Run any subset of registered experiments through one uniform pipeline.

    Parameters
    ----------
    names:
        Experiment names to run; ``None`` runs every registered experiment.
    scale:
        Size preset name or :class:`~repro.experiments.config.ExperimentScale`
        shared by all selected experiments.
    executor:
        An :class:`~repro.executor.Executor` instance or name (``"serial"``,
        ``"process"``, ``"thread"``, ``"queue"``) shared by every selected
        experiment; results are bit-identical under every backend.  When a
        :class:`~repro.executor.QueueExecutor` carrying ``journal``/``resume``
        paths is shared by more than one experiment, each experiment reads
        and writes its own derived file (``run.jsonl`` ->
        ``run.<experiment>.jsonl``) — one journal describes one job grid.
    scenarios:
        Scenario preset names / :class:`ScenarioSpec` instances shared by all
        selected experiments; ``None`` selects the paper configurations.
    base_seed:
        Root seed for the deterministic per-job seed derivation.
    output_dir:
        When given, each :class:`ExperimentResult` is serialised to
        ``<output_dir>/<experiment>_<scale>.json`` via
        :mod:`repro.utils.serialization`.

    Returns
    -------
    dict mapping experiment name -> :class:`ExperimentResult`, in run order.
    """
    if names is None:
        names = list_experiments()
    scale = resolve_scale(scale)
    results: Dict[str, ExperimentResult] = {}
    multi = len(names) > 1
    for name in names:
        experiment = get_experiment(name)
        with _scoped_journal_paths(executor, experiment.name, multi):
            result = experiment.run(
                scale, scenarios=scenarios, executor=executor, base_seed=base_seed
            )
        results[experiment.name] = result
        if output_dir is not None:
            path = Path(output_dir) / f"{experiment.name}_{scale.name}.json"
            save_json(result.to_dict(), path)
    return results
