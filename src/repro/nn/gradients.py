"""Input gradients, sensitivity maps and weight-column norms.

These functions implement the quantities at the heart of the paper's analysis:

* ``input_gradients`` — the gradient of the loss with respect to the input,
  i.e. the sensitivity from Eq. 7,
  ``dL/du_j = sum_i dL/dy_i * f'(s_i) * w_ij``.
* ``mean_sensitivity`` — the magnitude of that gradient averaged over a set of
  samples (the left panels of Figure 3).
* ``weight_column_norms`` — the column 1-norms of the weight matrix, which is
  exactly what the crossbar's power side channel leaks (the right panels of
  Figure 3 and Eq. 5-6).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.losses import CategoricalCrossEntropy, Loss, get_loss
from repro.nn.network import Sequential


def input_gradients(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    loss: Optional[Loss] = None,
) -> np.ndarray:
    """Gradient of the loss with respect to each input, per sample.

    Parameters
    ----------
    network:
        Any :class:`~repro.nn.network.Sequential` network.
    inputs:
        Batch of inputs, shape ``(B, N)``.
    targets:
        Batch of targets (one-hot), shape ``(B, M)``.
    loss:
        Loss instance or name; defaults to the network's natural loss when the
        network is a :class:`SingleLayerNetwork`, otherwise MSE.

    Returns
    -------
    np.ndarray
        Array of shape ``(B, N)`` whose row b is ``dL(u_b)/du_b`` where the
        loss is evaluated *per sample* (not averaged over the batch), matching
        the paper's per-input sensitivity definition.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(inputs) != len(targets):
        raise ValueError(
            f"inputs and targets disagree on sample count: {len(inputs)} vs {len(targets)}"
        )

    if loss is None:
        default = getattr(network, "default_loss", None)
        loss = default() if callable(default) else get_loss("mse")
    else:
        loss = get_loss(loss)

    outputs = network.forward(inputs, training=True)

    use_fused = (
        isinstance(loss, CategoricalCrossEntropy)
        and network.layers[-1].activation.name == "softmax"
    )
    if use_fused:
        # Per-sample loss (batch factor 1): gradient w.r.t. logits is p - t.
        grad_output = outputs - targets
        grad_inputs = network.backward(grad_output, skip_last_activation=True)
    else:
        # loss.gradient averages over the batch; multiplying by the batch size
        # restores the per-sample normalisation used in the paper.
        grad_output = loss.gradient(outputs, targets) * len(inputs)
        grad_inputs = network.backward(grad_output)
    network.zero_gradients()
    return grad_inputs


def sensitivity_map(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    loss: Optional[Loss] = None,
) -> np.ndarray:
    """Per-sample sensitivity magnitudes ``|dL/du_j|`` of shape ``(B, N)``."""
    return np.abs(input_gradients(network, inputs, targets, loss=loss))


def mean_sensitivity(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    loss: Optional[Loss] = None,
) -> np.ndarray:
    """Mean of ``|dL/du_j|`` over the sample set — the maps in Figure 3.

    Returns an array of shape ``(N,)``.
    """
    return sensitivity_map(network, inputs, targets, loss=loss).mean(axis=0)


def weight_column_norms(weights: np.ndarray) -> np.ndarray:
    """Column 1-norms of a weight matrix ``(M, N)`` — shape ``(N,)``.

    This is the quantity the power side channel reveals:
    ``G_j ∝ sum_i |w_ij|`` (Eq. 5-6 of the paper).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"weights must be a 2-D matrix, got shape {weights.shape}")
    return np.abs(weights).sum(axis=0)
