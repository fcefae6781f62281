"""Input-validation helpers shared across the library.

These raise consistent, descriptive errors so that user mistakes surface at
API boundaries rather than deep inside numerical code.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Mapping, Optional, Tuple

import numpy as np


def check_array(
    value,
    name: str,
    *,
    ndim: Optional[int] = None,
    dtype=float,
    allow_empty: bool = True,
) -> np.ndarray:
    """Coerce ``value`` to an ndarray and validate its dimensionality."""
    array = np.asarray(value, dtype=dtype)
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    if not allow_empty and array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if np.issubdtype(array.dtype, np.floating) and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return array


def check_vector(value, name: str, *, length: Optional[int] = None) -> np.ndarray:
    """Validate a 1-D float array, optionally of an exact length."""
    vector = check_array(value, name, ndim=1, allow_empty=False)
    if length is not None and vector.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {vector.shape[0]}")
    return vector


def check_matrix(
    value, name: str, *, shape: Optional[Tuple[Optional[int], Optional[int]]] = None
) -> np.ndarray:
    """Validate a 2-D float array, optionally against a (rows, cols) template.

    ``None`` in either position of ``shape`` means "any size".
    """
    matrix = check_array(value, name, ndim=2, allow_empty=False)
    if shape is not None:
        rows, cols = shape
        if rows is not None and matrix.shape[0] != rows:
            raise ValueError(f"{name} must have {rows} rows, got {matrix.shape[0]}")
        if cols is not None and matrix.shape[1] != cols:
            raise ValueError(f"{name} must have {cols} columns, got {matrix.shape[1]}")
    return matrix


def check_probability(value: float, name: str) -> float:
    """Validate a scalar probability in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_finite(value: float, name: str) -> float:
    """Validate a finite scalar (rejects NaN and +/-inf)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate a finite, strictly positive scalar."""
    value = check_finite(value, name)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate a finite scalar >= 0."""
    value = check_finite(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Validate ``low <= value <= high``."""
    value = float(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate a strictly positive integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Validate an integer >= 0."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_known_fields(payload: Mapping, cls) -> None:
    """Reject keys of ``payload`` that are not fields of dataclass ``cls``.

    The strict half of every ``from_dict``: a typo'd key in a serialised
    config must fail loudly, not be silently dropped.
    """
    known = {spec_field.name for spec_field in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {unknown}; "
            f"expected a subset of {sorted(known)}"
        )
