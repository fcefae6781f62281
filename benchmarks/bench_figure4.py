"""Benchmark regenerating Figure 4 (power-guided single-pixel attacks)."""

from repro.experiments import get_experiment


def test_figure4(single_round, benchmark):
    """Figure 4: test accuracy vs attack strength for the five strategies."""
    experiment = get_experiment("figure4")
    result = single_round(experiment.run, "bench")
    print()
    print(experiment.format_result(result))

    curves_by_config = {
        (entry["dataset"], entry["activation"]): entry["curves"]
        for entry in result.summary["curves"]
    }
    for (dataset, activation), curves in curves_by_config.items():
        for label, curve in curves.items():
            benchmark.extra_info[f"{dataset}/{activation}/{label}/final"] = round(
                float(curve[-1]), 3
            )

    # Paper-shape checks on the MNIST panels at the strongest attack:
    # the white-box worst case is the lowest accuracy, power-guided attacks
    # beat the random-pixel baseline.
    for activation in ("linear", "softmax"):
        curves = curves_by_config[("mnist-like", activation)]
        final = {label: curve[-1] for label, curve in curves.items()}
        assert final["Worst"] <= min(final["+"], final["-"], final["RD"]) + 1e-9
        assert final["+"] < final["RP"]
        assert final["RD"] < final["RP"]
