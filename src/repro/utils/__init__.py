"""Shared utilities: RNG management, validation, serialization, results."""

from repro.utils.rng import RandomState, spawn_rngs, as_rng
from repro.utils.validation import (
    check_array,
    check_matrix,
    check_vector,
    check_probability,
    check_positive,
    check_non_negative,
    check_in_range,
)
from repro.utils.results import RunResult, SweepResult
from repro.utils.serialization import save_json

__all__ = [
    "RandomState",
    "spawn_rngs",
    "as_rng",
    "check_array",
    "check_matrix",
    "check_vector",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "RunResult",
    "SweepResult",
    "save_json",
]
