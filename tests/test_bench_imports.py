"""Every benchmark script imports against the current public API, and the
ablation benches run.

Tier-1 runs only a few benchmarks; the rest (the figure, table and ablation
benches) call the trainers and attacks but are never executed there.  Loading
each ``benchmarks/bench_*.py`` as a module runs only its imports and
top-level definitions, so a public name a benchmark uses cannot be renamed
or deleted unnoticed.  The ablation benches take seconds, so their pipelines
also run once each: they are the only callers of the per-column probing mode
(``batched=False``) and of ``leakage_correlation``'s own probe.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))
BENCH_RESULTS = BENCH_DIR.parent / "BENCH_engine.json"

#: Ablation bench -> (pipeline function, keyword arguments).
ABLATION_RUNS = {
    "bench_probing": ("run_probing_ablation", {"batched": False}),
    "bench_noise_ablation": ("run_noise_ablation", {}),
    "bench_mapping_ablation": ("run_mapping_ablation", {}),
    "bench_multipixel": ("run_multipixel_ablation", {}),
    "bench_defenses": ("run_defense_ablation", {}),
}


def _load(path, monkeypatch):
    # several benches put their own directory on sys.path to import bench_engine
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_module_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benches_are_found():
    assert BENCHES


@pytest.mark.parametrize("path", BENCHES, ids=lambda path: path.stem)
def test_bench_imports(path, monkeypatch):
    module = _load(path, monkeypatch)
    assert any(name.startswith("test_") and callable(value) for name, value in vars(module).items())


@pytest.mark.parametrize("stem", sorted(ABLATION_RUNS))
def test_ablation_bench_runs(stem, monkeypatch):
    before = BENCH_RESULTS.read_bytes() if BENCH_RESULTS.exists() else None
    function, kwargs = ABLATION_RUNS[stem]
    result = getattr(_load(BENCH_DIR / f"{stem}.py", monkeypatch), function)(**kwargs)
    assert result
    after = BENCH_RESULTS.read_bytes() if BENCH_RESULTS.exists() else None
    assert after == before, f"{stem}.{function} wrote {BENCH_RESULTS.name}"
