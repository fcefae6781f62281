"""Cold-start benchmark: import time, resident memory and scipy modules per entry point.

Experiment pool workers and the network server each start a fresh
interpreter, so what their entry point imports is paid on every start.
For each entry point this benchmark spawns ``REPEATS`` fresh interpreters and
records, into ``BENCH_engine.json`` under ``bench_cold_start``:

* ``import_s`` -- median seconds to import the entry point (interpreter
  start-up excluded);
* ``max_rss_mb`` -- median peak resident set after the import.  It is read
  from ``VmHWM`` in ``/proc/self/status``: Linux carries the spawning
  process's peak into a child's ``ru_maxrss`` across ``exec``, so under
  pytest ``ru_maxrss`` would report the test runner's footprint;
* ``scipy_modules`` -- the exact number of ``scipy*`` modules loaded (the
  same in every interpreter).

``committed_max_rss_mb`` carries the ``max_rss_mb`` the file held before this
run -- the committed value when run from a fresh checkout -- so
``scripts/check_bench_regression.py`` gates RSS against it (2% plus
``--tolerance``), and gates ``scipy_modules`` at exactly 0.

Run it with ``python -m pytest benchmarks/bench_cold_start.py`` or
``python benchmarks/bench_cold_start.py``.
"""

import json
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 5

#: What each entry point's process imports before doing any work.
ENTRY_POINTS = {
    "experiments": """
        import repro.experiments
        from repro.experiments import get_experiment, list_experiments
        for name in list_experiments():
            get_experiment(name)
    """,
    "netservice.server": "import repro.netservice.server",
    "executor": "import repro.executor",
}

_PROBE = """
import json, resource, sys, time
start = time.perf_counter()
{body}
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "import_s": seconds,
    "max_rss_mb": peak_kb / 1024.0,
    "scipy_modules": sum(name.split(".")[0] == "scipy" for name in sys.modules),
}}))
"""


def checkout_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_entry_point(body: str, repeats: int = REPEATS) -> dict:
    """Medians over ``repeats`` fresh interpreters importing ``body``."""
    env = checkout_env()
    code = _PROBE.format(body=textwrap.dedent(body))
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        samples.append(json.loads(out.splitlines()[-1]))
    counts = {sample["scipy_modules"] for sample in samples}
    if len(counts) != 1:
        raise RuntimeError(f"scipy module count varied between runs: {sorted(counts)}")
    return {
        "import_s": statistics.median(s["import_s"] for s in samples),
        "max_rss_mb": statistics.median(s["max_rss_mb"] for s in samples),
        "scipy_modules": counts.pop(),
    }


def run_cold_start_benchmark(repeats: int = REPEATS, previous: dict | None = None) -> dict:
    """Measure every entry point; ``previous`` is the section being replaced."""
    committed = (previous or {}).get("entry_points", {})
    entry_points = {}
    for name, body in ENTRY_POINTS.items():
        row = measure_entry_point(body, repeats)
        row["committed_max_rss_mb"] = committed.get(name, {}).get(
            "max_rss_mb", row["max_rss_mb"]
        )
        entry_points[name] = row
    return {"repeats": repeats, "python": sys.version.split()[0], "entry_points": entry_points}


def test_cold_start(single_round, benchmark):
    previous = bench_engine.load_results().get("bench_cold_start")
    results = single_round(run_cold_start_benchmark, previous=previous)
    bench_engine.record_timings("bench_cold_start", results)
    for name, row in results["entry_points"].items():
        benchmark.extra_info[f"{name}/import_s"] = round(row["import_s"], 3)
        benchmark.extra_info[f"{name}/max_rss_mb"] = round(row["max_rss_mb"], 1)
        assert row["scipy_modules"] == 0, f"{name} loads scipy at import"


def main():  # pragma: no cover - console entry point
    previous = bench_engine.load_results().get("bench_cold_start")
    results = run_cold_start_benchmark(previous=previous)
    bench_engine.record_timings("bench_cold_start", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {bench_engine.RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
