"""Tests for repro.utils.serialization."""

import json

import numpy as np
import pytest

from repro.utils.serialization import save_json


class TestJson:
    def test_roundtrip_plain(self, tmp_path):
        payload = {"a": 1, "b": [1, 2, 3], "c": {"nested": True}}
        path = save_json(payload, tmp_path / "out.json")
        assert json.loads(path.read_text()) == payload

    def test_numpy_values_serialised(self, tmp_path):
        payload = {"scalar": np.float64(1.5), "array": np.arange(3), "flag": np.bool_(True)}
        path = save_json(payload, tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded["scalar"] == 1.5
        assert loaded["array"] == [0, 1, 2]
        assert loaded["flag"] is True

    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.float32(0.5), 0.5),
            (np.int8(-3), -3),
            (np.uint64(7), 7),
            (np.bool_(False), False),
            (np.arange(4).reshape(2, 2), [[0, 1], [2, 3]]),
        ],
        ids=["float32", "int8", "uint64", "bool", "matrix"],
    )
    def test_numpy_types_become_plain_json(self, tmp_path, value, expected):
        path = save_json({"value": value}, tmp_path / "out.json")
        loaded = json.loads(path.read_text())["value"]
        assert loaded == expected
        assert type(loaded) is type(expected)

    def test_unencodable_value_raises(self, tmp_path):
        with pytest.raises(TypeError):
            save_json({"value": object()}, tmp_path / "out.json")

    def test_creates_parent_directories(self, tmp_path):
        path = save_json({"x": 1}, tmp_path / "deep" / "dir" / "out.json")
        assert path.exists()
