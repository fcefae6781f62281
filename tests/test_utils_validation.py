"""Tests for repro.utils.validation."""

import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.crossbar.mapping import ShardingSpec
from repro.experiments.scenario import ScenarioSpec
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_known_fields,
    check_matrix,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_vector,
)


class TestCheckArray:
    def test_coerces_lists(self):
        result = check_array([1, 2, 3], "x")
        assert isinstance(result, np.ndarray)
        assert result.dtype == float

    def test_enforces_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array([1, 2, 3], "x", ndim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array([1.0, np.nan], "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_array([1.0, np.inf], "x")

    def test_rejects_empty_when_disallowed(self):
        with pytest.raises(ValueError, match="empty"):
            check_array([], "x", allow_empty=False)

    def test_allows_empty_by_default(self):
        assert check_array([], "x").size == 0


class TestCheckVectorMatrix:
    def test_vector_length(self):
        check_vector([1, 2, 3], "v", length=3)
        with pytest.raises(ValueError):
            check_vector([1, 2, 3], "v", length=4)

    def test_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            check_vector([[1, 2], [3, 4]], "v")

    def test_matrix_shape_template(self):
        matrix = [[1, 2, 3], [4, 5, 6]]
        check_matrix(matrix, "m", shape=(2, 3))
        check_matrix(matrix, "m", shape=(None, 3))
        check_matrix(matrix, "m", shape=(2, None))
        with pytest.raises(ValueError):
            check_matrix(matrix, "m", shape=(3, 3))
        with pytest.raises(ValueError):
            check_matrix(matrix, "m", shape=(2, 2))

    def test_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            check_matrix([1, 2, 3], "m")


class TestScalarChecks:
    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_positive(self):
        assert check_positive(2.5, "x") == 2.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "x")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalars_rejected(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            check_positive(value, "x")
        with pytest.raises(ValueError, match="x must be finite"):
            check_non_negative(value, "x")

    def test_in_range(self):
        assert check_in_range(0.5, "x", 0, 1) == 0.5
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", 0, 1)

    def test_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "n")
        with pytest.raises(TypeError):
            check_positive_int(True, "n")

    def test_non_negative_int(self):
        assert check_non_negative_int(0, "n") == 0
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "n")
        with pytest.raises(TypeError):
            check_non_negative_int(1.0, "n")

    def test_numpy_integers_accepted(self):
        assert check_positive_int(np.int64(4), "n") == 4


@dataclass
class _Knobs:
    beta: int = 0
    alpha: int = 0


class TestCheckKnownFields:
    def test_accepts_any_subset_of_the_fields(self):
        check_known_fields({}, _Knobs)
        check_known_fields({"alpha": 1, "beta": 2}, _Knobs)

    def test_names_the_unknown_and_the_accepted_keys(self):
        message = (
            "unknown _Knobs fields ['gamma', 'zeta']; "
            "expected a subset of ['alpha', 'beta']"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_known_fields({"zeta": 0, "alpha": 1, "gamma": 2}, _Knobs)
        message = (
            "unknown ShardingSpec fields ['bogus']; "
            "expected a subset of ['col_shards', 'reduction', 'row_shards']"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShardingSpec.from_dict({"row_shards": 2, "bogus": 1})
        # A scenario's dict-form sharding: the wire knob is accepted, the
        # rest is the ShardingSpec check.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(
                name="bad",
                sharding={"row_shards": 2, "wire_resistance_ohm": 1e-3, "bogus": 1},
            )
