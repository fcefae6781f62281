"""Ablation benchmark: min-power vs balanced conductance mapping.

The power side channel exists *because* of the minimum-power mapping the paper
assumes (Section II-B).  This benchmark quantifies the leak under both
mappings: how well the probed column sums correlate with the true weight
column 1-norms, and how much a power-guided single-pixel attack gains over the
random baseline in each case.
"""

import numpy as np

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.mapping import ConductanceMapping
from repro.datasets import load_mnist_like
from repro.experiments.reporting import format_table
from repro.nn.gradients import weight_column_norms
from repro.nn.trainer import train_single_layer
from repro.attacks.oracle import Oracle
from repro.sidechannel.probing import ColumnNormProber

STRENGTH = 8.0


def run_mapping_ablation(seed=0):
    dataset = load_mnist_like(n_train=2000, n_test=400, random_state=seed)
    network, _ = train_single_layer(dataset, output="softmax", epochs=25, random_state=seed)
    true_norms = weight_column_norms(network.weights)

    rows = []
    for scheme in ("min_power", "balanced"):
        accelerator = CrossbarAccelerator(
            network, mapping=ConductanceMapping(scheme=scheme), random_state=seed
        )
        prober = ColumnNormProber(Oracle(accelerator), dataset.n_features)
        leaked = prober.probe_all().column_sums
        if leaked.std() == 0:
            leak_correlation = 0.0
        else:
            leak_correlation = float(np.corrcoef(leaked, true_norms)[0, 1])

        power_attack = SinglePixelAttack(
            SinglePixelStrategy.POWER_ADD, column_norms=leaked, random_state=seed
        )
        random_attack = SinglePixelAttack(SinglePixelStrategy.RANDOM_PIXEL, random_state=seed)
        power_acc = accuracy_under_attack(
            network, power_attack, dataset.test_inputs, dataset.test_targets, STRENGTH
        )
        random_acc = accuracy_under_attack(
            network, random_attack, dataset.test_inputs, dataset.test_targets, STRENGTH
        )
        rows.append([scheme, leak_correlation, random_acc, power_acc, random_acc - power_acc])
    return rows


def test_mapping_ablation(single_round, benchmark):
    """Leak strength and attack advantage under min-power vs balanced mappings."""
    rows = single_round(run_mapping_ablation)
    print()
    print(
        format_table(
            ["mapping", "leak corr", "acc (random px)", "acc (power px)", "advantage"],
            rows,
            title=f"Conductance-mapping ablation (single-pixel attack, strength {STRENGTH})",
        )
    )
    for row in rows:
        benchmark.extra_info[f"{row[0]}/leak_correlation"] = round(row[1], 3)
        benchmark.extra_info[f"{row[0]}/attack_advantage"] = round(row[4], 3)

    min_power, balanced = rows[0], rows[1]
    # The min-power mapping leaks the 1-norms almost perfectly...
    assert min_power[1] > 0.99
    # ...while the balanced mapping hides them.
    assert abs(balanced[1]) < 0.3
    # The attack advantage over random should therefore be larger under min-power.
    assert min_power[4] > balanced[4] - 0.02
