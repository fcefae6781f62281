"""Every benchmark script imports against the current public API.

Tier-1 runs only a few benchmarks; the rest (the figure, table and ablation
benches) call the trainers and attacks but are never executed there.  Loading
each ``benchmarks/bench_*.py`` as a module runs only its imports and
top-level definitions, so a public name a benchmark uses cannot be renamed
or deleted unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benches_are_found():
    assert BENCHES


@pytest.mark.parametrize("path", BENCHES, ids=lambda path: path.stem)
def test_bench_imports(path, monkeypatch):
    # several benches put their own directory on sys.path to import bench_engine
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_module_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") and callable(value) for name, value in vars(module).items())
