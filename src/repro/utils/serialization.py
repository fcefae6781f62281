"""JSON serialization of experiment results."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

PathLike = Union[str, Path]


class _NumpyJSONEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, obj):  # noqa: D102 - documented by base class
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.bool_):
            return bool(obj)
        return super().default(obj)


def save_json(payload: Mapping[str, Any], path: PathLike, *, indent: int = 2) -> Path:
    """Write ``payload`` to ``path`` as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, cls=_NumpyJSONEncoder)
    return path
