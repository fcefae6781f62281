"""Network layers.

Only dense (fully-connected) layers are needed to reproduce the paper, which
studies single-layer networks ``y = f(W u)``.  The layer stores its weight
matrix in the paper's orientation, ``W`` of shape ``(outputs, inputs)``, so
that a crossbar mapping of the layer is a direct transcription of Figure 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import XavierUniform, Zeros
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_matrix, check_positive_int


class Dense:
    """Fully-connected layer ``x -> f(W x + b)``.

    Parameters
    ----------
    n_inputs:
        Input dimensionality ``N``.
    n_outputs:
        Output dimensionality ``M``.
    activation:
        Activation name or instance (default linear).
    use_bias:
        Whether to include a bias vector.  The paper's crossbar formulation has
        no bias term, so experiments default to ``False``; the option exists
        for general use.
    random_state:
        Seed or generator for the Glorot-uniform weights (biases start at
        zero).
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        *,
        activation="linear",
        use_bias: bool = False,
        random_state: RandomState = None,
    ):
        self.n_inputs = check_positive_int(n_inputs, "n_inputs")
        self.n_outputs = check_positive_int(n_outputs, "n_outputs")
        self.activation: Activation = get_activation(activation)
        self.use_bias = bool(use_bias)

        rng = as_rng(random_state)
        self.weights = XavierUniform()((self.n_outputs, self.n_inputs), rng)
        self.bias = Zeros()((self.n_outputs,), rng) if self.use_bias else None

        # caches populated by forward(), consumed by backward()
        self._cache_input: Optional[np.ndarray] = None
        self._cache_pre_activation: Optional[np.ndarray] = None
        self._cache_output: Optional[np.ndarray] = None

        # gradients populated by backward(), consumed by optimizers
        self.grad_weights: Optional[np.ndarray] = None
        self.grad_bias: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API

    def set_weights(self, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        """Overwrite the layer parameters."""
        weights = check_matrix(weights, "weights", shape=(self.n_outputs, self.n_inputs))
        self.weights = weights.astype(float).copy()
        if bias is not None:
            bias = np.asarray(bias, dtype=float)
            if bias.shape != (self.n_outputs,):
                raise ValueError(
                    f"bias must have shape ({self.n_outputs},), got {bias.shape}"
                )
            if not self.use_bias:
                raise ValueError("layer was constructed with use_bias=False")
            self.bias = bias.copy()

    # -------------------------------------------------------------- forward

    def pre_activation(self, inputs: np.ndarray) -> np.ndarray:
        """Compute ``s = W x (+ b)`` without the activation."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected inputs with {self.n_inputs} features, got {inputs.shape[1]}"
            )
        pre = inputs @ self.weights.T
        if self.use_bias:
            pre = pre + self.bias
        return pre

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Forward pass for a batch ``(B, N)``; returns ``(B, M)``."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        pre = self.pre_activation(inputs)
        output = self.activation.forward(pre)
        if training:
            self._cache_input = inputs
            self._cache_pre_activation = pre
            self._cache_output = output
        return output

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------- backward

    def backward(
        self, grad_output: np.ndarray, *, skip_activation: bool = False
    ) -> np.ndarray:
        """Back-propagate through the layer.

        Parameters
        ----------
        grad_output:
            Gradient of the loss with respect to the layer output (or with
            respect to the pre-activation when ``skip_activation`` is True —
            used by the fused softmax/cross-entropy path).

        Returns
        -------
        np.ndarray
            Gradient of the loss with respect to the layer input.
        """
        if self._cache_input is None:
            raise RuntimeError("backward() called before forward(training=True)")
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=float))
        if skip_activation:
            grad_pre = grad_output
        else:
            grad_pre = self.activation.backward(grad_output, self._cache_output)
        self.grad_weights = grad_pre.T @ self._cache_input
        if self.use_bias:
            self.grad_bias = grad_pre.sum(axis=0)
        return grad_pre @ self.weights

    def zero_gradients(self) -> None:
        """Clear cached gradients."""
        self.grad_weights = None
        self.grad_bias = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dense(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
            f"activation={self.activation.name!r}, use_bias={self.use_bias})"
        )
