"""Significance testing for the Figure 5 comparisons.

The paper marks query counts where the power-augmented surrogate attack
differs from the power-free baseline with an asterisk when a Student's t-test
gives p < 0.05 over 10 independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_probability, check_vector


@dataclass(frozen=True)
class TTestResult:
    """Outcome of an independent two-sample t-test.

    Attributes
    ----------
    statistic:
        The t statistic.
    p_value:
        Two-sided p-value.
    significant:
        True when ``p_value < alpha``.
    alpha:
        The significance threshold used.
    mean_difference:
        ``mean(sample_a) - mean(sample_b)``.
    """

    statistic: float
    p_value: float
    significant: bool
    alpha: float
    mean_difference: float

    def marker(self) -> str:
        """The paper's Figure 5 annotation: '*' when significant, blank otherwise."""
        return "*" if self.significant else " "


def independent_ttest(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    *,
    alpha: float = 0.05,
    equal_variance: bool = True,
) -> TTestResult:
    """Student's t-test between two independent samples.

    Parameters
    ----------
    sample_a / sample_b:
        The two groups (e.g. attack efficacy with and without power data,
        one value per independent run).
    alpha:
        Significance threshold (0.05 in the paper).
    equal_variance:
        ``True`` for the classic Student's t-test (the paper's choice),
        ``False`` for Welch's correction.
    """
    sample_a = check_vector(sample_a, "sample_a")
    sample_b = check_vector(sample_b, "sample_b")
    check_probability(alpha, "alpha")
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise ValueError("both samples need at least two observations for a t-test")
    if np.allclose(sample_a, sample_a[0]) and np.allclose(sample_b, sample_b[0]):
        # Degenerate case: both groups constant.  scipy returns NaN; treat a
        # difference in constants as "not testable" rather than significant.
        statistic, p_value = 0.0, 1.0
    else:
        # Imported lazily: figure5 is the only caller, and importing
        # scipy.stats costs more than the rest of the package together.
        from scipy import stats

        statistic, p_value = stats.ttest_ind(sample_a, sample_b, equal_var=equal_variance)
        statistic = float(statistic)
        p_value = float(p_value)
    return TTestResult(
        statistic=statistic,
        p_value=p_value,
        significant=bool(p_value < alpha),
        alpha=alpha,
        mean_difference=float(np.mean(sample_a) - np.mean(sample_b)),
    )
