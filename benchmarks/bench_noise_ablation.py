"""Ablation benchmark: measurement noise on the power side channel.

The paper assumes noise-free current measurements.  This benchmark sweeps the
attacker's measurement noise and reports how the power-guided single-pixel
attack degrades towards the random baseline, quantifying how much instrument
quality the attack actually needs.
"""

import numpy as np

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.datasets import load_mnist_like
from repro.experiments.reporting import format_series
from repro.nn.trainer import train_single_layer
from repro.attacks.oracle import Oracle
from repro.sidechannel.probing import ColumnNormProber

NOISE_LEVELS = (0.0, 0.05, 0.2, 1.0, 5.0)
STRENGTH = 8.0
N_TRIALS = 3


def run_noise_ablation(seed=0):
    dataset = load_mnist_like(n_train=2000, n_test=400, random_state=seed)
    network, _ = train_single_layer(dataset, output="softmax", epochs=25, random_state=seed)
    accelerator = CrossbarAccelerator(network, random_state=seed)

    random_attack = SinglePixelAttack(SinglePixelStrategy.RANDOM_PIXEL, random_state=seed)
    random_baseline = accuracy_under_attack(
        network, random_attack, dataset.test_inputs, dataset.test_targets, STRENGTH
    )

    power_curve = []
    for noise in NOISE_LEVELS:
        accuracies = []
        for trial in range(N_TRIALS):
            prober = ColumnNormProber(
                Oracle(
                    accelerator, power_noise_std=noise, random_state=100 * trial + seed
                ),
                dataset.n_features,
            )
            leaked = prober.probe_all().column_sums
            attack = SinglePixelAttack(
                SinglePixelStrategy.POWER_ADD, column_norms=leaked, random_state=trial
            )
            accuracies.append(
                accuracy_under_attack(
                    network, attack, dataset.test_inputs, dataset.test_targets, STRENGTH
                )
            )
        power_curve.append(float(np.mean(accuracies)))
    return power_curve, random_baseline


def test_measurement_noise_ablation(single_round, benchmark):
    """Power-guided attack efficacy vs relative measurement noise."""
    power_curve, random_baseline = single_round(run_noise_ablation)
    print()
    print(
        format_series(
            "noise_std",
            list(NOISE_LEVELS),
            {
                "power-guided": power_curve,
                "random baseline": [random_baseline] * len(NOISE_LEVELS),
            },
            title=f"Measurement-noise ablation (single-pixel attack, strength {STRENGTH})",
        )
    )
    benchmark.extra_info["noise=0/accuracy"] = round(power_curve[0], 3)
    benchmark.extra_info["noise=max/accuracy"] = round(power_curve[-1], 3)
    benchmark.extra_info["random_baseline"] = round(random_baseline, 3)

    # Noise-free probing gives a clear advantage over the random baseline.
    assert power_curve[0] < random_baseline - 0.05
    # Heavy noise erodes (most of) the advantage: the attack moves towards the
    # baseline as the probe quality collapses.
    assert power_curve[-1] >= power_curve[0] - 0.05
