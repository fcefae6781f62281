"""Ablation benchmark: multi-pixel power-guided attacks (Section III remark).

The paper notes that attacking the top-N 1-norm pixels with guessed
perturbation directions becomes less effective as N grows (the probability of
guessing every direction right is (1/2)^N).  This benchmark regenerates that
comparison against the oracle-direction upper bound.
"""

import numpy as np

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.multi_pixel import MultiPixelAttack
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.datasets import load_mnist_like
from repro.experiments.reporting import format_series
from repro.nn.trainer import train_single_layer
from repro.attacks.oracle import Oracle
from repro.sidechannel.probing import ColumnNormProber

PIXEL_COUNTS = (1, 2, 4, 8)
STRENGTH = 6.0


def run_multipixel_ablation(seed=0):
    dataset = load_mnist_like(n_train=2000, n_test=400, random_state=seed)
    network, _ = train_single_layer(dataset, output="softmax", epochs=25, random_state=seed)
    accelerator = CrossbarAccelerator(network, random_state=seed)
    prober = ColumnNormProber(Oracle(accelerator), dataset.n_features)
    norms = prober.probe_all().column_sums

    curves = {"random-direction": [], "oracle-direction": []}
    for n_pixels in PIXEL_COUNTS:
        random_dir = MultiPixelAttack(norms, n_pixels=n_pixels, direction="random", random_state=seed)
        oracle_dir = MultiPixelAttack(norms, n_pixels=n_pixels, direction="oracle", network=network)
        curves["random-direction"].append(
            accuracy_under_attack(network, random_dir, dataset.test_inputs, dataset.test_targets, STRENGTH)
        )
        curves["oracle-direction"].append(
            accuracy_under_attack(network, oracle_dir, dataset.test_inputs, dataset.test_targets, STRENGTH)
        )
    return curves


def test_multipixel_ablation(single_round, benchmark):
    """Attack efficacy vs number of attacked pixels, guessed vs oracle directions."""
    curves = single_round(run_multipixel_ablation)
    print()
    print(
        format_series(
            "n_pixels",
            list(PIXEL_COUNTS),
            curves,
            title=f"Multi-pixel power-guided attack (strength {STRENGTH}, MNIST-like)",
        )
    )
    for name, curve in curves.items():
        benchmark.extra_info[f"{name}/n=1"] = round(float(curve[0]), 3)
        benchmark.extra_info[f"{name}/n=8"] = round(float(curve[-1]), 3)

    random_curve = np.asarray(curves["random-direction"])
    oracle_curve = np.asarray(curves["oracle-direction"])
    # The oracle-direction attack only gets stronger with more pixels, while
    # the guess penalty keeps the random-direction attack well behind it.
    assert oracle_curve[-1] <= oracle_curve[0] + 1e-9
    gap_small, gap_large = random_curve[0] - oracle_curve[0], random_curve[-1] - oracle_curve[-1]
    assert gap_large >= gap_small - 0.02
