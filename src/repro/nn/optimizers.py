"""The Adam optimizer every model in the repo trains with.

Adam converges reliably for both the victim configurations (MSE and
cross-entropy, across the very different input dimensionalities of the two
datasets) and for the attacker's surrogate, where it converges far enough
for the power term of Eq. 9 to actually shape the solution.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.network import Sequential
from repro.utils.validation import check_positive


#: Adam's moment decay rates and denominator guard (Kingma & Ba, 2015 defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam optimizer (Kingma & Ba, 2015); updates a network in place."""

    def __init__(self, learning_rate: float = 0.001):
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self._moments: Dict[int, Dict[str, np.ndarray]] = {}
        self._step_count = 0

    def _update(self, state: Dict[str, np.ndarray], key: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = BETA1 * state.get(f"m_{key}", 0.0) + (1.0 - BETA1) * grad
        v = BETA2 * state.get(f"v_{key}", 0.0) + (1.0 - BETA2) * grad**2
        state[f"m_{key}"] = m
        state[f"v_{key}"] = v
        m_hat = m / (1.0 - BETA1**self._step_count)
        v_hat = v / (1.0 - BETA2**self._step_count)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)

    def step(self, network: Sequential) -> None:
        """Apply one update using the gradients stored on the network layers."""
        self._step_count += 1
        for index, layer in enumerate(network.layers):
            if layer.grad_weights is None:
                raise RuntimeError("optimizer step requires gradients; call backward first")
            state = self._moments.setdefault(index, {})
            self._update(state, "weights", layer.weights, layer.grad_weights)
            if layer.use_bias and layer.grad_bias is not None:
                self._update(state, "bias", layer.bias, layer.grad_bias)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Adam(learning_rate={self.learning_rate})"
