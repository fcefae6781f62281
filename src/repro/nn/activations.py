"""Activation functions with forward and backward passes.

Each activation exposes ``forward`` and ``backward``.  ``backward`` receives
the upstream gradient and the cached forward output and returns the gradient
with respect to the pre-activation input.  Softmax is handled specially: its
full Jacobian is used unless it is fused with the categorical cross-entropy
loss (the usual, numerically stable route implemented in
:mod:`repro.nn.losses`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np


class Activation(ABC):
    """Base class for elementwise (or rowwise) activation functions."""

    #: registry name, filled in by subclasses
    name: str = "activation"

    @abstractmethod
    def forward(self, pre_activation: np.ndarray) -> np.ndarray:
        """Apply the activation to a batch of pre-activations ``(B, M)``."""

    @abstractmethod
    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` through the activation.

        Parameters
        ----------
        grad_output:
            Gradient of the loss with respect to the activation output.
        output:
            Cached activation output from the forward pass.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear (no-op) activation — the paper's "linear output" configuration."""

    name = "linear"

    def forward(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.asarray(pre_activation, dtype=float)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=float)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.maximum(pre_activation, 0.0)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output * (output > 0.0)


class Softmax(Activation):
    """Row-wise softmax.

    The backward pass applies the full softmax Jacobian so the activation is
    correct even when it is *not* fused with cross-entropy (e.g. when the
    attacker differentiates an MSE loss through a softmax output).
    """

    name = "softmax"

    def forward(self, pre_activation: np.ndarray) -> np.ndarray:
        s = np.asarray(pre_activation, dtype=float)
        shifted = s - s.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        # For each row: J = diag(y) - y y^T, so J^T g = y * (g - <g, y>).
        dot = np.sum(grad_output * output, axis=-1, keepdims=True)
        return output * (grad_output - dot)


_ACTIVATIONS: Dict[str, Type[Activation]] = {
    cls.name: cls for cls in (Identity, ReLU, Softmax)
}
_ACTIVATIONS["identity"] = Identity
_ACTIVATIONS["none"] = Identity


def get_activation(name) -> Activation:
    """Look up an activation by name, or pass through an Activation instance."""
    if isinstance(name, Activation):
        return name
    if isinstance(name, type) and issubclass(name, Activation):
        return name()
    key = str(name).lower()
    if key not in _ACTIVATIONS:
        raise KeyError(
            f"unknown activation {name!r}; available: {sorted(set(_ACTIVATIONS))}"
        )
    return _ACTIVATIONS[key]()
