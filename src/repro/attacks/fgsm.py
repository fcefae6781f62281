"""Fast gradient sign method (FGSM).

This is the white-box gradient attack of Eq. 2: one step in the direction
of increasing loss.  In the paper FGSM is used both as the "Worst" reference
in the single-pixel experiments and as the attack crafted on the surrogate
model in the black-box experiments (with attack strength 0.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.nn.gradients import input_gradients
from repro.nn.losses import Loss
from repro.nn.network import Sequential
from repro.utils.validation import check_non_negative


def fgsm_perturbation(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    strength: float,
    *,
    loss: Optional[Loss] = None,
) -> np.ndarray:
    """The FGSM perturbation ``ε · sgn(∇_u L)`` for a batch of inputs."""
    check_non_negative(strength, "strength")
    gradients = input_gradients(network, inputs, targets, loss=loss)
    return strength * np.sign(gradients)


class FastGradientSignMethod(Attack):
    """One-step FGSM attack: ``u' = u + ε · sgn(∇_u L)``.

    Parameters
    ----------
    network:
        The (white-box or surrogate) model whose gradients guide the attack.
    loss:
        Loss to differentiate; defaults to the network's natural loss.
    clip_range:
        Optional box constraint for the adversarial examples.
    """

    def __init__(
        self,
        network: Sequential,
        *,
        loss: Optional[Loss] = None,
        clip_range: Optional[Tuple[float, float]] = None,
    ):
        super().__init__(clip_range)
        self.network = network
        self.loss = loss

    def attack(self, inputs: np.ndarray, targets: np.ndarray, strength: float) -> AttackResult:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        perturbation = fgsm_perturbation(
            self.network, inputs, targets, strength, loss=self.loss
        )
        adversarial = self._finalize(inputs + perturbation)
        return AttackResult(
            adversarial_inputs=adversarial,
            original_inputs=inputs,
            strength=float(strength),
            metadata={"attack": "fgsm"},
        )
