"""Estimating column conductance sums from arbitrary power queries.

Basis-vector probing (one query per input) is the simplest way to recover the
column sums ``G_j``, but an attacker who measures the power channel while the
device processes *arbitrary* inputs ``u_q`` observes only
``i_q = Σ_j u_qj G_j``.  Recovering ``G`` then becomes a linear inverse
problem; these estimators solve it with plain least squares, non-negative
least squares (conductance sums are physically non-negative) or ridge
regression for under-determined / noisy query sets.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix, check_non_negative, check_vector


def _validate(queries: np.ndarray, currents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    queries = check_matrix(queries, "queries")
    currents = check_vector(currents, "currents", length=queries.shape[0])
    return queries, currents


def estimate_column_sums_least_squares(
    queries: np.ndarray, currents: np.ndarray
) -> np.ndarray:
    """Ordinary least-squares estimate of ``G`` from ``queries @ G = currents``.

    Parameters
    ----------
    queries:
        ``(Q, N)`` matrix of the input vectors applied while measuring.
    currents:
        ``(Q,)`` measured total currents.

    Returns
    -------
    np.ndarray
        ``(N,)`` estimated column conductance sums (minimum-norm solution when
        the system is under-determined).
    """
    queries, currents = _validate(queries, currents)
    solution, *_ = np.linalg.lstsq(queries, currents, rcond=None)
    return solution


def estimate_column_sums_nonnegative(
    queries: np.ndarray, currents: np.ndarray
) -> np.ndarray:
    """Non-negative least-squares estimate (conductance sums cannot be negative)."""
    # Imported here so scipy stays off the import path of everything else.
    from scipy import optimize

    queries, currents = _validate(queries, currents)
    solution, _ = optimize.nnls(queries, currents)
    return solution


def estimate_column_sums_ridge(
    queries: np.ndarray, currents: np.ndarray, *, regularization: float = 1e-3
) -> np.ndarray:
    """Ridge-regularised estimate, stable for noisy or few queries.

    Solves ``(A^T A + λ I) g = A^T i``.
    """
    queries, currents = _validate(queries, currents)
    check_non_negative(regularization, "regularization")
    n_features = queries.shape[1]
    gram = queries.T @ queries + regularization * np.eye(n_features)
    return np.linalg.solve(gram, queries.T @ currents)


def estimation_error(true_sums: np.ndarray, estimated_sums: np.ndarray) -> float:
    """Relative L2 error between true and estimated column sums."""
    true_sums = check_vector(true_sums, "true_sums")
    estimated_sums = check_vector(estimated_sums, "estimated_sums", length=len(true_sums))
    denom = np.linalg.norm(true_sums)
    if denom == 0:
        return float(np.linalg.norm(estimated_sums))
    return float(np.linalg.norm(true_sums - estimated_sums) / denom)
