"""Power-guided single-pixel attacks (the paper's Figure 4 scenario).

The attacker cannot see the network's outputs — only its power consumption.
Probing the crossbar reveals the weight-column 1-norms; perturbing the pixel
with the largest 1-norm degrades accuracy far more than a random pixel,
approaching the white-box single-pixel FGSM bound.

Run with:  python examples/single_pixel_attack_comparison.py
"""

from repro.attacks import (
    Oracle,
    SinglePixelAttack,
    SinglePixelStrategy,
    accuracy_under_attack,
)
from repro.crossbar import CrossbarAccelerator
from repro.datasets import load_mnist_like
from repro.experiments.reporting import format_series
from repro.nn.trainer import train_single_layer
from repro.sidechannel import ColumnNormProber

ATTACK_STRENGTHS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def main() -> None:
    dataset = load_mnist_like(n_train=2000, n_test=500, random_state=0)
    network, trainer = train_single_layer(dataset, output="softmax", epochs=25, random_state=0)
    _, clean_accuracy = trainer.evaluate(dataset.test_inputs, dataset.test_targets)
    print(f"victim clean test accuracy: {clean_accuracy:.3f}")

    # The attacker recovers the column 1-norms through the power side channel.
    accelerator = CrossbarAccelerator(network, random_state=0)
    prober = ColumnNormProber(Oracle(accelerator), dataset.n_features)
    probe = prober.probe_all()
    print(f"power probing used {probe.queries_used} queries\n")

    curves = {}
    for strategy in SinglePixelStrategy:
        attack = SinglePixelAttack(
            strategy,
            column_norms=probe.column_sums,
            network=network,  # only used by the white-box 'Worst' reference
            queries_used=probe.queries_used if strategy.needs_power_information else 0,
            random_state=0,
        )
        curves[strategy.paper_label] = [
            accuracy_under_attack(
                network, attack, dataset.test_inputs, dataset.test_targets, strength
            )
            for strength in ATTACK_STRENGTHS
        ]

    print(
        format_series(
            "strength",
            list(ATTACK_STRENGTHS),
            curves,
            title="Test accuracy vs single-pixel attack strength (MNIST-like, softmax victim)",
        )
    )
    print(
        "\nRP = random pixel, +/-/RD = power-guided (add / subtract / random sign), "
        "Worst = white-box single-pixel FGSM."
    )


if __name__ == "__main__":
    main()
