"""Loss functions used by the paper's experiments.

Two losses appear in the paper: mean squared error (with a linear output) and
categorical cross-entropy (with a softmax output).  Both return per-batch mean
losses and gradients with respect to the network *output* (post-activation);
the fused softmax/cross-entropy gradient with respect to the pre-activation is
also provided for numerically stable training.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np

_EPS = 1e-12


class Loss(ABC):
    """Base class for losses over batches of shape ``(B, M)``."""

    name: str = "loss"

    @abstractmethod
    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""

    @abstractmethod
    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to ``predictions``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MeanSquaredError(Loss):
    """Mean squared error, averaged over batch and output dimensions."""

    name = "mse"

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions shape {predictions.shape} != targets shape {targets.shape}"
            )
        return float(np.mean((predictions - targets) ** 2))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions shape {predictions.shape} != targets shape {targets.shape}"
            )
        return 2.0 * (predictions - targets) / predictions.size


class CategoricalCrossEntropy(Loss):
    """Categorical cross-entropy over one-hot (or soft) targets.

    ``gradient`` differentiates with respect to the post-softmax probabilities.
    ``fused_softmax_gradient`` gives the standard ``(p - t) / B`` gradient with
    respect to the logits and should be preferred during training.
    """

    name = "categorical_crossentropy"

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions shape {predictions.shape} != targets shape {targets.shape}"
            )
        clipped = np.clip(predictions, _EPS, 1.0)
        batch = predictions.shape[0] if predictions.ndim > 1 else 1
        return float(-np.sum(targets * np.log(clipped)) / batch)

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions shape {predictions.shape} != targets shape {targets.shape}"
            )
        clipped = np.clip(predictions, _EPS, 1.0)
        batch = predictions.shape[0] if predictions.ndim > 1 else 1
        return -(targets / clipped) / batch

    @staticmethod
    def fused_softmax_gradient(
        probabilities: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Gradient w.r.t. the logits when softmax and CE are fused."""
        probabilities = np.asarray(probabilities, dtype=float)
        targets = np.asarray(targets, dtype=float)
        batch = probabilities.shape[0] if probabilities.ndim > 1 else 1
        return (probabilities - targets) / batch


_LOSSES: Dict[str, Type[Loss]] = {
    MeanSquaredError.name: MeanSquaredError,
    CategoricalCrossEntropy.name: CategoricalCrossEntropy,
    "crossentropy": CategoricalCrossEntropy,
    "ce": CategoricalCrossEntropy,
}


def get_loss(name) -> Loss:
    """Look up a loss by name, or pass through a Loss instance."""
    if isinstance(name, Loss):
        return name
    if isinstance(name, type) and issubclass(name, Loss):
        return name()
    key = str(name).lower()
    if key not in _LOSSES:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(set(_LOSSES))}")
    return _LOSSES[key]()
