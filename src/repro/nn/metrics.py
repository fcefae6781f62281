"""Classification metrics."""

from __future__ import annotations

import numpy as np


def _as_labels(values: np.ndarray) -> np.ndarray:
    """Convert one-hot / probability matrices to label vectors; pass labels through."""
    values = np.asarray(values)
    if values.ndim == 2:
        return np.argmax(values, axis=1)
    return values.astype(int)


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of samples whose predicted label matches the target label.

    Both arguments may be label vectors, one-hot matrices, or score matrices.
    """
    pred_labels = _as_labels(predictions)
    true_labels = _as_labels(targets)
    if pred_labels.shape != true_labels.shape:
        raise ValueError(
            "predictions and targets disagree on sample count: "
            f"{pred_labels.shape} vs {true_labels.shape}"
        )
    if pred_labels.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float(np.mean(pred_labels == true_labels))
