"""Statistical analysis used by the paper's tables and figures."""

from repro.analysis.correlation import (
    pearson_correlation,
    per_sample_correlations,
    mean_correlation,
    correlation_of_mean,
    sensitivity_norm_correlations,
    CorrelationSummary,
)
from repro.analysis.sensitivity import (
    sensitivity_norm_maps,
    SensitivityMaps,
)
from repro.analysis.statistics import (
    independent_ttest,
    TTestResult,
)

__all__ = [
    "pearson_correlation",
    "per_sample_correlations",
    "mean_correlation",
    "correlation_of_mean",
    "sensitivity_norm_correlations",
    "CorrelationSummary",
    "sensitivity_norm_maps",
    "SensitivityMaps",
    "independent_ttest",
    "TTestResult",
]
