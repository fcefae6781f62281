"""Benchmarks regenerating Figure 5 (surrogate black-box attacks with power).

The MNIST rows (ROW 1 and ROW 2) are run at the full ``bench`` scale; the
CIFAR rows (ROW 3 and ROW 4) use a reduced query sweep because each surrogate
has 3072 inputs and the paper's finding there is a null result (little or no
benefit from power information).

Ported to the batched engine: every oracle interaction is one batched
``Oracle.query`` per query set (single fused traversal for power-exposed
hardware targets), and the independent seeds of each row execute on a
:class:`~repro.executor.PoolExecutor` process pool.  Wall times
are recorded into ``BENCH_engine.json`` for before/after comparison.
"""

import sys
import time
from pathlib import Path

from repro.executor import PoolExecutor
from repro.experiments import get_experiment, resolve_scale
from repro.experiments.figure5 import Figure5Row

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

EXECUTOR = PoolExecutor(mode="process")
FIGURE5 = get_experiment("figure5")


def _rows(result):
    """The figure's rows keyed by (dataset, output mode)."""
    rows = map(Figure5Row.from_summary, result.summary["rows"])
    return {(row.dataset, row.output_mode): row for row in rows}


def _record(benchmark, rows):
    for (dataset, mode), row in rows.items():
        for lam in row.power_loss_weights:
            curve = row.mean_adversarial_curve(lam)
            benchmark.extra_info[f"{dataset}/{mode}/lambda={lam:g}/final_adv_acc"] = round(
                float(curve[-1]), 3
            )


def test_figure5_mnist_rows(single_round, benchmark):
    """Figure 5 rows 1-2: MNIST with label-only and raw-output oracles."""
    start = time.perf_counter()
    result = single_round(
        FIGURE5.run,
        "bench",
        rows=(("mnist-like", "label"), ("mnist-like", "raw")),
        executor=EXECUTOR,
    )
    bench_engine.record_timings(
        "bench_figure5_mnist",
        {"elapsed_s": time.perf_counter() - start, "runner_mode": EXECUTOR.mode},
    )
    print()
    print(FIGURE5.format_result(result))
    rows = _rows(result)
    _record(benchmark, rows)

    # Paper-shape checks: more queries -> better surrogate; the attack hurts
    # the oracle; with the label-only oracle at the largest bench query budget
    # the power term must not make the attack worse.
    for row in rows.values():
        baseline_surrogate = row.mean_surrogate_curve(0.0)
        assert baseline_surrogate[-1] > baseline_surrogate[0]
        assert min(row.mean_adversarial_curve(0.0)) < row.oracle_clean_accuracy
    label_row = rows[("mnist-like", "label")]
    best_lambda = max(label_row.power_loss_weights)
    assert (
        label_row.mean_adversarial_curve(best_lambda)[-1]
        <= label_row.mean_adversarial_curve(0.0)[-1] + 0.05
    )


def test_figure5_cifar_rows(single_round, benchmark):
    """Figure 5 rows 3-4: CIFAR with label-only and raw-output oracles (reduced sweep)."""
    scale = resolve_scale("bench").with_overrides(
        n_train=1500,
        n_test=300,
        n_runs=2,
        query_counts=(50, 200, 1000),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=200,
    )
    start = time.perf_counter()
    result = single_round(
        FIGURE5.run,
        scale,
        rows=(("cifar-like", "label"), ("cifar-like", "raw")),
        executor=EXECUTOR,
    )
    bench_engine.record_timings(
        "bench_figure5_cifar",
        {"elapsed_s": time.perf_counter() - start, "runner_mode": EXECUTOR.mode},
    )
    print()
    print(FIGURE5.format_result(result))
    rows = _rows(result)
    _record(benchmark, rows)

    for row in rows.values():
        # The attack still transfers to the CIFAR oracle...
        assert min(row.mean_adversarial_curve(0.0)) < row.oracle_clean_accuracy
