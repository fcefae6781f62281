"""Estimating column conductance sums from arbitrary power queries.

Basis-vector probing (one query per input) is the simplest way to recover the
column sums ``G_j``, but an attacker who measures the power channel while the
device processes *arbitrary* inputs ``u_q`` observes only
``i_q = Σ_j u_qj G_j``.  Recovering ``G`` then becomes a linear inverse
problem, solved here by ridge regression, which stays stable for
under-determined or noisy query sets.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix, check_non_negative, check_vector


def estimate_column_sums_ridge(
    queries: np.ndarray, currents: np.ndarray, *, regularization: float = 1e-3
) -> np.ndarray:
    """Ridge-regularised estimate, stable for noisy or few queries.

    Solves ``(A^T A + λ I) g = A^T i``.
    """
    queries = check_matrix(queries, "queries")
    currents = check_vector(currents, "currents", length=queries.shape[0])
    check_non_negative(regularization, "regularization")
    n_features = queries.shape[1]
    gram = queries.T @ queries + regularization * np.eye(n_features)
    return np.linalg.solve(gram, queries.T @ currents)
