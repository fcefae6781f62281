"""Ablation benchmark: query-efficient search for the max-1-norm pixel.

Section III remarks that the smooth MNIST 1-norm map should allow the
attacker to find the most sensitive pixel with fewer than N power queries,
while the rapidly varying CIFAR map makes that hard.  This benchmark compares
random probing, greedy hill-climbing and coarse-to-fine refinement under a
fixed query budget on both datasets.

The probing pipeline runs on the batched prober (every probe round — basis
vectors plus baseline — is one batched power query); the benchmark also
times the identical search workload through the per-column reference prober
(``batched=False``, one scalar query per probe vector) and records both wall
times into ``BENCH_engine.json``.  The reference mode is an ablation of
batch submission, not the seed implementation (which already batched probe
vectors).
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.crossbar.accelerator import CrossbarAccelerator
from repro.datasets import load_cifar_like, load_mnist_like
from repro.experiments.reporting import format_table
from repro.nn.gradients import weight_column_norms
from repro.nn.trainer import train_single_layer
from repro.attacks.oracle import Oracle
from repro.sidechannel.probing import ColumnNormProber
from repro.sidechannel.search import (
    coarse_to_fine_search,
    greedy_neighbourhood_search,
    random_subset_search,
)

BUDGET = 120
N_TRIALS = 5


def _relative_value_found(search_result, true_norms):
    """Value at the found pixel relative to the true maximum (1.0 = perfect)."""
    return float(true_norms[search_result.best_index] / true_norms.max())


def run_probing_ablation(seed=0, *, batched=True):
    rows = []
    datasets = {
        "mnist-like": load_mnist_like(n_train=1500, n_test=200, random_state=seed),
        "cifar-like": load_cifar_like(n_train=1000, n_test=200, random_state=seed),
    }
    for name, dataset in datasets.items():
        network, _ = train_single_layer(dataset, output="softmax", epochs=20, random_state=seed)
        accelerator = CrossbarAccelerator(network, random_state=seed)
        true_norms = weight_column_norms(network.weights)
        if len(dataset.image_shape) == 3:
            height, width = dataset.image_shape[0], dataset.image_shape[1] * dataset.image_shape[2]
        else:
            height, width = dataset.image_shape

        scores = {"random": [], "greedy": [], "coarse-to-fine": []}
        for trial in range(N_TRIALS):
            prober = ColumnNormProber(
                Oracle(accelerator, random_state=trial),
                dataset.n_features,
                batched=batched,
            )
            scores["random"].append(
                _relative_value_found(
                    random_subset_search(prober, budget=BUDGET, random_state=trial), true_norms
                )
            )
            scores["greedy"].append(
                _relative_value_found(
                    greedy_neighbourhood_search(
                        prober, (height, width), budget=BUDGET, random_state=trial
                    ),
                    true_norms,
                )
            )
            scores["coarse-to-fine"].append(
                _relative_value_found(
                    coarse_to_fine_search(prober, (height, width), coarse_stride=6),
                    true_norms,
                )
            )
        rows.append(
            [
                name,
                float(np.mean(scores["random"])),
                float(np.mean(scores["greedy"])),
                float(np.mean(scores["coarse-to-fine"])),
            ]
        )
    return rows


def _probe_workload(accelerator, n_features, image_shape, *, batched):
    """The ablation's probing/search workload on one trained accelerator."""
    for trial in range(N_TRIALS):
        prober = ColumnNormProber(
            Oracle(accelerator, random_state=trial),
            n_features,
            batched=batched,
        )
        random_subset_search(prober, budget=BUDGET, random_state=trial)
        greedy_neighbourhood_search(prober, image_shape, budget=BUDGET, random_state=trial)
        coarse_to_fine_search(prober, image_shape, coarse_stride=6)


def _time_probe_workload(accelerator, n_features, image_shape, *, repeats=3):
    """Probing wall times: per-column reference mode vs batched prober."""
    timings = {}
    for label, batched in (("per_column_s", False), ("batched_s", True)):
        _probe_workload(accelerator, n_features, image_shape, batched=batched)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _probe_workload(accelerator, n_features, image_shape, batched=batched)
            best = min(best, time.perf_counter() - start)
        timings[label] = best
    timings["speedup"] = timings["per_column_s"] / timings["batched_s"]
    return timings


def test_probing_search_ablation(single_round, benchmark):
    """Search quality (found 1-norm / max 1-norm) under a fixed probe budget."""
    rows = single_round(run_probing_ablation)

    # Timing of the probing workload itself (training excluded): the same
    # searches against the same trained victim, per-column reference mode vs
    # the batched prober.
    dataset = load_mnist_like(n_train=1500, n_test=200, random_state=0)
    network, _ = train_single_layer(dataset, output="softmax", epochs=20, random_state=0)
    accelerator = CrossbarAccelerator(network, random_state=0)
    timings = _time_probe_workload(accelerator, dataset.n_features, (28, 28))
    bench_engine.record_timings("bench_probing", timings)
    benchmark.extra_info["batched_vs_per_column_speedup"] = round(
        timings["speedup"], 2
    )
    print()
    print(
        format_table(
            ["dataset", "random", "greedy", "coarse-to-fine"],
            rows,
            title=f"Max-1-norm search with a budget of {BUDGET} power queries",
        )
    )
    for row in rows:
        benchmark.extra_info[f"{row[0]}/greedy"] = round(row[2], 3)
        benchmark.extra_info[f"{row[0]}/random"] = round(row[1], 3)

    # Structured search must beat random probing on the smooth MNIST map.
    mnist_random, mnist_greedy, mnist_ctf = rows[0][1:]
    assert max(mnist_greedy, mnist_ctf) >= mnist_random - 0.02
