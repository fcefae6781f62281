"""Benchmark regenerating Table I (sensitivity / 1-norm correlations)."""

from repro.experiments import get_experiment


def test_table1(single_round, benchmark):
    """Table I: correlation between loss sensitivity and weight-column 1-norms."""
    experiment = get_experiment("table1")
    result = single_round(experiment.run, "bench")
    print()
    print(experiment.format_result(result))

    rows = result.summary["rows"]
    for row in rows:
        key = f"{row['dataset']}/{row['activation']}"
        benchmark.extra_info[f"{key}/mean_corr_test"] = round(
            float(row["mean_correlation_test"]), 3
        )
        benchmark.extra_info[f"{key}/corr_of_mean_test"] = round(
            float(row["correlation_of_mean_test"]), 3
        )

    # The paper's qualitative claims must hold in the regenerated table.
    for row in rows:
        assert row["correlation_of_mean_test"] > row["mean_correlation_test"]
        assert row["correlation_of_mean_test"] > 0.5
