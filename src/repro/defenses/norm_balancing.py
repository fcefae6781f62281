"""Training-time defence: equalise the weight-column 1-norms.

The power side channel reveals ``G_j ∝ Σ_i |w_ij|``.  If every column of the
weight matrix has (approximately) the same 1-norm, the attacker learns nothing
useful from probing.  Two mechanisms are provided:

* :class:`ColumnNormRegularizer` — a penalty ``β · Var_j(Σ_i |w_ij|)`` whose
  gradient is added to every training step, steering the model towards
  uniform column norms while it learns.  Pass it to
  :func:`repro.nn.trainer.train_single_layer` (``regularizer=``), which hands
  it to :class:`~repro.nn.trainer.Trainer`.
* :func:`rebalance_column_norms` — a post-training projection that rescales
  each column towards the mean norm, trading accuracy for leak suppression
  without retraining.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.network import Sequential
from repro.utils.validation import check_in_range, check_matrix, check_non_negative


class ColumnNormRegularizer:
    """Penalty on the variance of the weight-column 1-norms.

    The penalty is ``strength * mean_j (n_j - mean(n))^2`` with
    ``n_j = Σ_i |w_ij|``.  Its gradient with respect to ``w_ij`` is
    ``strength * 2 (n_j - mean(n)) (1 - 1/N) sign(w_ij) / N`` (the ``1/N``
    cross terms are kept for exactness).

    Parameters
    ----------
    strength:
        The β weighting of the penalty; 0 disables it.
    """

    def __init__(self, strength: float = 0.1):
        self.strength = check_non_negative(strength, "strength")

    def penalty(self, weights: np.ndarray) -> float:
        """The scalar penalty value for a weight matrix ``(M, N)``."""
        weights = check_matrix(weights, "weights")
        norms = np.abs(weights).sum(axis=0)
        return float(self.strength * np.mean((norms - norms.mean()) ** 2))

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`penalty` with respect to the weights."""
        weights = check_matrix(weights, "weights")
        if self.strength == 0:
            return np.zeros_like(weights)
        norms = np.abs(weights).sum(axis=0)
        n_columns = weights.shape[1]
        centred = norms - norms.mean()
        # d/dw_ij mean_k (n_k - mean)^2
        #   = (2/N) [ (n_j - mean) - mean_k (n_k - mean) ] sign(w_ij)
        # and mean_k (n_k - mean) = 0, so only the direct term survives.
        column_grad = (2.0 / n_columns) * centred
        return self.strength * np.sign(weights) * column_grad[np.newaxis, :]

    def apply_to_training_gradient(
        self, weights: np.ndarray, gradient: np.ndarray
    ) -> np.ndarray:
        """Return ``gradient + d(penalty)/d(weights)`` for use inside a trainer."""
        gradient = np.asarray(gradient, dtype=float)
        return gradient + self.gradient(weights)

    def leakage_variance(self, weights: np.ndarray) -> float:
        """Normalised variance of the column 1-norms (0 = perfectly uniform)."""
        weights = check_matrix(weights, "weights")
        norms = np.abs(weights).sum(axis=0)
        mean = norms.mean()
        if mean == 0:
            return 0.0
        return float(norms.var() / mean**2)


def rebalance_column_norms(
    network: Sequential,
    *,
    blend: float = 1.0,
) -> Tuple[Sequential, np.ndarray]:
    """Post-training projection towards uniform column 1-norms.

    Each column of the first layer's weight matrix is rescaled towards the
    mean column 1-norm ``m`` (which keeps the overall conductance budget):
    ``w_j <- w_j * (m / n_j) ** blend``.  With ``blend=1`` every column ends
    up with exactly the mean 1-norm (maximal leak suppression, largest
    accuracy impact); smaller blends interpolate.

    Parameters
    ----------
    network:
        The trained victim; it is modified **in place** (and also returned).
    blend:
        Interpolation factor in ``[0, 1]``.

    Returns
    -------
    (network, scale_factors):
        The modified network and the per-column scale factors applied.
    """
    check_in_range(blend, "blend", 0.0, 1.0)
    layer = network.layers[0]
    weights = layer.weights
    norms = np.abs(weights).sum(axis=0)
    target_norm = float(norms.mean())

    safe_norms = np.where(norms > 0, norms, 1.0)
    scale = (target_norm / safe_norms) ** blend
    scale = np.where(norms > 0, scale, 1.0)
    layer.weights = weights * scale[np.newaxis, :]
    return network, scale

