"""Correlation between loss sensitivity and weight-column 1-norms (Table I).

The paper distinguishes two quantities:

* **Mean Correlation** — the Pearson correlation between a *single sample's*
  sensitivity magnitudes ``|∂L/∂u_j|`` and the column 1-norms, averaged over
  all samples in the set.  This measures how well the power information
  predicts the sensitivity of *individual* inputs.
* **Correlation of Mean** — the Pearson correlation between the sensitivity
  magnitudes *averaged over the whole set* and the column 1-norms.  This
  measures how well the power information captures the average importance of
  each input feature.

Table I reports both, on train and test splits, for the four dataset /
activation configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.gradients import sensitivity_map, weight_column_norms
from repro.nn.losses import Loss
from repro.nn.network import Sequential
from repro.utils.validation import check_matrix, check_vector


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient between two vectors.

    Returns 0 when either vector is constant (the correlation is undefined);
    this matches how degenerate feature columns should be treated in the
    Table I aggregation.
    """
    x = check_vector(x, "x")
    y = check_vector(y, "y", length=len(x))
    x_std = x.std()
    y_std = y.std()
    if x_std == 0.0 or y_std == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def per_sample_correlations(
    sensitivities: np.ndarray, column_norms: np.ndarray
) -> np.ndarray:
    """Correlation of each sample's sensitivity vector with the column norms.

    Parameters
    ----------
    sensitivities:
        ``(B, N)`` per-sample sensitivity magnitudes.
    column_norms:
        ``(N,)`` weight-column 1-norms.

    Returns
    -------
    np.ndarray
        ``(B,)`` per-sample Pearson correlations.
    """
    sensitivities = check_matrix(sensitivities, "sensitivities")
    column_norms = check_vector(column_norms, "column_norms", length=sensitivities.shape[1])
    return np.array(
        [pearson_correlation(row, column_norms) for row in sensitivities]
    )


def mean_correlation(sensitivities: np.ndarray, column_norms: np.ndarray) -> float:
    """Table I's "Mean Correlation": average of the per-sample correlations."""
    return float(per_sample_correlations(sensitivities, column_norms).mean())


def correlation_of_mean(sensitivities: np.ndarray, column_norms: np.ndarray) -> float:
    """Table I's "Correlation of Mean": correlation of the averaged sensitivity."""
    sensitivities = check_matrix(sensitivities, "sensitivities")
    return pearson_correlation(sensitivities.mean(axis=0), np.asarray(column_norms, dtype=float))


@dataclass(frozen=True)
class CorrelationSummary:
    """Both Table I statistics for one (model, data split) pair."""

    mean_correlation: float
    correlation_of_mean: float
    n_samples: int


def sensitivity_norm_correlations(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    loss: Optional[Loss] = None,
    column_norms: Optional[np.ndarray] = None,
) -> CorrelationSummary:
    """Compute both Table I statistics for a network on a dataset split.

    Parameters
    ----------
    network:
        The trained single-layer network.
    inputs / targets:
        The split to evaluate (train or test).
    loss:
        Loss to differentiate (defaults to the network's natural loss).
    column_norms:
        The 1-norm vector to correlate against.  Defaults to the true column
        1-norms of the first layer's weights; pass the values recovered by
        power probing to evaluate the attacker's view instead.
    """
    sensitivities = sensitivity_map(network, inputs, targets, loss=loss)
    if column_norms is None:
        column_norms = weight_column_norms(network.layers[0].weights)
    return CorrelationSummary(
        mean_correlation=mean_correlation(sensitivities, column_norms),
        correlation_of_mean=correlation_of_mean(sensitivities, column_norms),
        n_samples=len(sensitivities),
    )
