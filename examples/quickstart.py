"""Quickstart: train a victim, map it to an NVM crossbar, and leak its weights' 1-norms.

This walks through the paper's core observation:

1. train the paper's single-layer network on the MNIST-like dataset,
2. deploy it on a simulated NVM crossbar accelerator (ideal, min-power mapping),
3. probe the accelerator's power rail with basis-vector inputs,
4. show that the measured currents reveal the weight matrix's column 1-norms,
   which in turn predict where the model is most sensitive,
5. reproduce the paper's Table I through the registry entry point
   (``run_experiments``) — the same API that drives every experiment
   pipeline, serially or on a process pool.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import sensitivity_norm_correlations
from repro.attacks import Oracle
from repro.crossbar import CrossbarAccelerator
from repro.datasets import load_mnist_like
from repro.experiments import get_experiment, run_experiments
from repro.nn.gradients import weight_column_norms
from repro.nn.trainer import train_single_layer
from repro.sidechannel import ColumnNormProber


def main() -> None:
    print("1) Generating the MNIST-like dataset and training the victim ...")
    dataset = load_mnist_like(n_train=2000, n_test=500, random_state=0)
    network, trainer = train_single_layer(dataset, output="softmax", epochs=25, random_state=0)
    _, test_accuracy = trainer.evaluate(dataset.test_inputs, dataset.test_targets)
    print(f"   victim test accuracy: {test_accuracy:.3f}")

    print("2) Deploying the victim on a simulated NVM crossbar accelerator ...")
    accelerator = CrossbarAccelerator(network, random_state=0)
    fidelity = accelerator.fidelity(dataset.test_inputs[:100])
    print(f"   hardware-vs-software output difference (ideal crossbar): {fidelity:.2e}")

    print("3) Probing the power side channel (one query per input column) ...")
    oracle = Oracle(accelerator, power_noise_std=0.01, random_state=1)
    prober = ColumnNormProber(oracle, dataset.n_features)
    probe = prober.probe_all()
    print(f"   queries spent: {probe.queries_used}")

    print("4) What did the attacker learn?")
    true_norms = weight_column_norms(network.weights)
    leak_correlation = np.corrcoef(probe.column_sums, true_norms)[0, 1]
    print(f"   correlation between leaked currents and true column 1-norms: {leak_correlation:.4f}")

    summary = sensitivity_norm_correlations(
        network, dataset.test_inputs, dataset.test_targets, column_norms=probe.column_sums
    )
    print(
        "   correlation of the leaked 1-norms with the model's mean input "
        f"sensitivity: {summary.correlation_of_mean:.3f}"
    )
    print(
        "   => the power rail alone tells the attacker which pixels the "
        "network cares about most (the paper's Table I / Figure 3 result)."
    )

    print("5) Reproducing Table I through the unified experiment registry ...")
    results = run_experiments(
        ["table1"], "smoke", scenarios=["paper/mnist-softmax"], base_seed=0
    )
    print(get_experiment("table1").format_result(results["table1"]))
    print(
        "   (run any subset at any scale — python -m repro.experiments --help; "
        "pass executor='process' to use every core.)"
    )


if __name__ == "__main__":
    main()
