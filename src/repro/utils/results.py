"""Lightweight result containers used by experiments and attacks.

The experiment pipelines produce nested results (per-seed, per-configuration,
per-sweep-point).  These containers keep them structured while remaining
serialisable to plain JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Mapping

import numpy as np


def _to_jsonable(value: Any) -> Any:
    """Convert numpy scalars/arrays inside a result to JSON-friendly types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, Mapping):
        return {key: _to_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    return value


def compact_repr(obj) -> str:
    """A dataclass repr whose length does not grow with its payload.

    Arrays show as dtype and shape, containers as type and length, anything
    else as its own repr cut to 60 characters.  Array-carrying results use
    it as ``__repr__``, so no logging, error or teardown path formats their
    arrays (``asyncio.run``'s teardown formats a finished task's result).
    """
    parts = []
    for spec_field in fields(obj):
        value = getattr(obj, spec_field.name)
        if isinstance(value, np.ndarray):
            text = f"<{value.dtype} array {value.shape}>"
        elif isinstance(value, (dict, list, tuple, set)):
            text = f"<{type(value).__name__} of {len(value)}>"
        else:
            text = repr(value)
            text = text if len(text) <= 60 else text[:57] + "..."
        parts.append(f"{spec_field.name}={text}")
    return f"{type(obj).__name__}({', '.join(parts)})"


@dataclass
class RunResult:
    """The outcome of one experimental run (one seed, one configuration).

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"table1/mnist/softmax"``.
    metrics:
        Scalar metrics keyed by name.
    arrays:
        Larger array-valued outputs (sensitivity maps, accuracy curves, ...).
    metadata:
        Configuration values, seeds, parameter settings.
    """

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_metric(self, key: str, value: float) -> None:
        """Record a scalar metric."""
        self.metrics[key] = float(value)

    def add_array(self, key: str, value) -> None:
        """Record an array-valued output."""
        self.arrays[key] = np.asarray(value)

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "name": self.name,
            "metrics": _to_jsonable(self.metrics),
            "arrays": _to_jsonable(self.arrays),
            "metadata": _to_jsonable(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Reconstruct a :class:`RunResult` produced by :meth:`to_dict`."""
        result = cls(name=str(payload["name"]))
        result.metrics = {k: float(v) for k, v in payload.get("metrics", {}).items()}
        result.arrays = {
            k: np.asarray(v) for k, v in payload.get("arrays", {}).items()
        }
        result.metadata = dict(payload.get("metadata", {}))
        return result


@dataclass
class SweepResult:
    """A collection of :class:`RunResult` objects from a parameter sweep."""

    name: str
    runs: List[RunResult] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add(self, run: RunResult) -> None:
        """Append a run to the sweep."""
        self.runs.append(run)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    def filter(self, **metadata_filters: Any) -> "SweepResult":
        """Return the subset of runs whose metadata matches all filters."""
        matched = [
            run
            for run in self.runs
            if all(run.metadata.get(key) == value for key, value in metadata_filters.items())
        ]
        subset = SweepResult(name=self.name, metadata=dict(self.metadata))
        subset.runs = matched
        return subset

    def metric_values(self, key: str) -> np.ndarray:
        """Collect one metric across all runs (missing values are skipped)."""
        values = [run.metrics[key] for run in self.runs if key in run.metrics]
        return np.asarray(values, dtype=float)

    def mean_metric(self, key: str) -> float:
        """Mean of a metric across runs."""
        values = self.metric_values(key)
        if values.size == 0:
            raise KeyError(f"no run contains metric {key!r}")
        return float(values.mean())

    def std_metric(self, key: str) -> float:
        """Standard deviation of a metric across runs."""
        values = self.metric_values(key)
        if values.size == 0:
            raise KeyError(f"no run contains metric {key!r}")
        return float(values.std())

    def group_by(self, metadata_key: str) -> Dict[Any, "SweepResult"]:
        """Partition the sweep by one metadata field."""
        groups: Dict[Any, SweepResult] = {}
        for run in self.runs:
            key = run.metadata.get(metadata_key)
            if key not in groups:
                groups[key] = SweepResult(
                    name=f"{self.name}[{metadata_key}={key}]",
                    metadata=dict(self.metadata),
                )
            groups[key].add(run)
        return groups

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "name": self.name,
            "metadata": _to_jsonable(self.metadata),
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Reconstruct a :class:`SweepResult` produced by :meth:`to_dict`."""
        sweep = cls(name=str(payload["name"]), metadata=dict(payload.get("metadata", {})))
        sweep.runs = [RunResult.from_dict(entry) for entry in payload.get("runs", [])]
        return sweep
