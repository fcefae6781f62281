"""Engine benchmark: fused single-pass vs legacy two-pass query throughput.

Measures the structural speedup of the fused simulation engine on the attack
hot path:

* **Oracle queries with power exposed** — the fused engine traverses every
  tile once per batch (:meth:`CrossbarAccelerator.forward_with_power`); the
  legacy engine ran an independent forward pass plus a two-op-per-tile power
  trace (re-implemented here verbatim as the baseline).
* **Batch-size scaling** — throughput of the fused path as the query batch
  grows, quantifying how far the per-call overhead is amortised.
* **Basis-vector probing** — one batched probe round (all basis vectors plus
  the baseline in a single query) vs the per-column reference mode
  (``batched=False``: one scalar query per probe vector, modelling an
  attacker without batch submission).  Note the seed prober already batched
  the probe vectors themselves — this PR only folded the separate baseline
  query into the same call — so this comparison quantifies the value of
  batch submission as such, not a seed-vs-now delta.

Results are written to ``BENCH_engine.json`` at the repository root; other
benchmarks (``bench_probing``, ``bench_figure5``) merge their before/after
timings into the same file via :func:`record_timings`, and
``scripts/check_bench_regression.py`` fails CI when the fused path regresses
below the legacy baseline.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.mapping import reduce_partial_sums
from repro.crossbar.power import PowerReport
from repro.attacks.oracle import Oracle
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.sidechannel.probing import ColumnNormProber

#: Default output path, shared by every engine-related benchmark.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

DEFAULT_BATCH_SIZES = (1, 16, 128, 512)


# --------------------------------------------------------------- construction


def build_accelerator(n_inputs=256, n_outputs=10, *, seed=0):
    """An ideal single-layer crossbar accelerator with random weights."""
    network = Sequential(
        [Dense(n_inputs, n_outputs, activation="softmax", random_state=seed)]
    )
    return CrossbarAccelerator(network, random_state=seed)


# ------------------------------------------------------------- legacy engine


def legacy_power_report(accelerator, inputs, *, cached=False):
    """The seed engine's power report: two array ops per tile (current+forward).

    Each tile is traversed twice: once in full for its supply current, then
    once more without the rail measurement for the activations it passes on.

    The seed engine had no effective-state cache — every array operation
    recomputed ``G+ - G-`` from scratch — so the faithful
    baseline invalidates the cache before each operation.  ``cached=True``
    keeps the cache, isolating the pass-fusion win from the caching win.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    per_tile_currents = []
    activations = inputs
    for tile in accelerator.tiles:
        if not cached:
            tile.physical_arrays[0].invalidate_state_cache()
        _, shard_currents = tile.traverse(activations)  # the power pass
        per_tile_currents.append(
            reduce_partial_sums(shard_currents, tile.sharding.reduction)
        )
        if not cached:
            tile.physical_arrays[0].invalidate_state_cache()
        activations, _ = tile.traverse(activations, want_currents=False)
    return PowerReport(
        np.sum(per_tile_currents, axis=0), np.stack(per_tile_currents, axis=1)
    )


def legacy_query(accelerator, inputs, *, cached=False):
    """The seed ``Oracle.query(expose_power=True)``: forward + power passes."""
    if not cached:
        for tile in accelerator.tiles:
            tile.physical_arrays[0].invalidate_state_cache()
    outputs = np.atleast_2d(accelerator.forward(inputs))
    report = legacy_power_report(accelerator, inputs, cached=cached)
    return outputs, np.atleast_1d(report.total_current)


def fused_query(accelerator, inputs):
    """The fused engine: outputs and power from one traversal."""
    outputs, report = accelerator.forward_with_power(inputs)
    return np.atleast_2d(outputs), np.atleast_1d(report.total_current)


# ------------------------------------------------------------------- timing


def _best_time(fn, *args, repeats=5):
    """Best-of-``repeats`` wall time of ``fn(*args)`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def run_query_benchmark(
    accelerator, *, batch_sizes=DEFAULT_BATCH_SIZES, repeats=5, seed=0
):
    """Fused vs legacy power-exposed query throughput per batch size."""
    rng = np.random.default_rng(seed)
    rows = []
    for batch_size in batch_sizes:
        inputs = rng.uniform(0.0, 1.0, size=(batch_size, accelerator.n_inputs))
        # Correctness guard: both engines must agree before we time them.
        fused_out, fused_power = fused_query(accelerator, inputs)
        legacy_out, legacy_power = legacy_query(accelerator, inputs)
        np.testing.assert_allclose(fused_out, legacy_out, atol=1e-12)
        np.testing.assert_allclose(fused_power, legacy_power, atol=1e-12)

        fused_s = _best_time(fused_query, accelerator, inputs, repeats=repeats)
        legacy_s = _best_time(legacy_query, accelerator, inputs, repeats=repeats)
        cached_legacy_s = _best_time(
            lambda: legacy_query(accelerator, inputs, cached=True), repeats=repeats
        )
        rows.append(
            {
                "batch_size": int(batch_size),
                "fused_s": fused_s,
                "legacy_s": legacy_s,
                "legacy_cached_s": cached_legacy_s,
                "speedup": legacy_s / fused_s,
                "speedup_vs_cached_two_pass": cached_legacy_s / fused_s,
                "fused_queries_per_s": batch_size / fused_s,
                "legacy_queries_per_s": batch_size / legacy_s,
            }
        )
    return rows


def run_probing_benchmark(accelerator, *, repeats=5, seed=0):
    """Batched probe round (one query) vs the per-column reference mode."""

    def probe(batched):
        prober = ColumnNormProber(
            Oracle(accelerator, random_state=seed),
            accelerator.n_inputs,
            measure_baseline=True,
            batched=batched,
        )
        return prober.probe_all()

    batched_result = probe(True)
    looped_result = probe(False)
    np.testing.assert_allclose(
        batched_result.column_sums, looped_result.column_sums, atol=1e-12
    )
    batched_s = _best_time(probe, True, repeats=repeats)
    looped_s = _best_time(probe, False, repeats=repeats)
    return {
        "n_inputs": int(accelerator.n_inputs),
        "batched_s": batched_s,
        "per_column_s": looped_s,
        "speedup": looped_s / batched_s,
        "queries_used": int(batched_result.queries_used),
    }


def run_engine_benchmark(
    *,
    n_inputs=256,
    n_outputs=10,
    batch_sizes=DEFAULT_BATCH_SIZES,
    repeats=5,
    seed=0,
):
    """Full engine benchmark; returns the structure stored in BENCH_engine.json."""
    accelerator = build_accelerator(n_inputs, n_outputs, seed=seed)
    accelerator.reset_operation_counters()
    oracle = Oracle(accelerator, expose_power=True, random_state=seed)
    probe_batch = np.eye(accelerator.n_inputs)[: min(8, accelerator.n_inputs)]
    oracle.query(probe_batch)
    ops_per_query_batch = accelerator.n_array_operations
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "repeats": int(repeats),
            "seed": int(seed),
        },
        "array_ops_per_power_query_batch": int(ops_per_query_batch),
        "oracle_query": run_query_benchmark(
            accelerator, batch_sizes=batch_sizes, repeats=repeats, seed=seed
        ),
        "probing": run_probing_benchmark(accelerator, repeats=repeats, seed=seed),
    }


# ------------------------------------------------------------------ results


def load_results(path=RESULTS_PATH):
    """Existing BENCH_engine.json contents (empty dict when absent)."""
    path = Path(path)
    if path.exists():
        return json.loads(path.read_text())
    return {}


def record_timings(section, payload, *, path=RESULTS_PATH):
    """Merge ``payload`` under ``section`` into BENCH_engine.json."""
    path = Path(path)
    results = load_results(path)
    results[section] = payload
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


# ---------------------------------------------------------------- benchmark


def test_engine_throughput(single_round, benchmark):
    """Fused-vs-legacy query throughput and batch scaling (records JSON)."""
    results = single_round(run_engine_benchmark)
    record_timings("engine", results)

    for row in results["oracle_query"]:
        benchmark.extra_info[f"batch={row['batch_size']}/speedup"] = round(
            row["speedup"], 2
        )
    benchmark.extra_info["probing/speedup"] = round(results["probing"]["speedup"], 2)

    # A power-exposed oracle query must traverse each tile exactly once.
    assert results["array_ops_per_power_query_batch"] == 1
    # Acceptance criterion: >= 2x throughput on power-exposed queries against
    # an ideal crossbar versus the legacy two-pass engine.
    speedups = [row["speedup"] for row in results["oracle_query"]]
    assert max(speedups) >= 2.0
    # The batched probe round must not be slower than the per-column loop.
    assert results["probing"]["speedup"] >= 1.0


def main():  # pragma: no cover - console entry point
    results = run_engine_benchmark()
    record_timings("engine", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
