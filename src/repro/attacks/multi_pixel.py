"""Multi-pixel extension of the power-guided attack.

Section III of the paper notes that attacking the pixels associated with the
top-N column 1-norms becomes *less* effective as N grows when the attacker
must guess each perturbation direction (probability ``(1/2)^N`` of guessing
all of them right).  This module implements that attack so the claim can be
reproduced, plus the oracle-direction variant that serves as its upper bound.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.nn.gradients import input_gradients
from repro.nn.losses import Loss
from repro.nn.network import Sequential
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_non_negative, check_positive_int, check_vector


class MultiPixelAttack(Attack):
    """Perturb the pixels with the top-N column 1-norms.

    Parameters
    ----------
    column_norms:
        Power-derived column 1-norms (or values proportional to them).
    n_pixels:
        How many of the highest-norm pixels to perturb.
    direction:
        ``"random"`` — each chosen pixel gets ±ε with equal probability (the
        realistic power-only attacker, matching the paper's discussion);
        ``"add"`` / ``"subtract"`` — all chosen pixels move the same way;
        ``"oracle"`` — each pixel moves in the direction of the true loss
        gradient (requires ``network``), providing the upper bound.
    network / loss:
        Needed only for the ``"oracle"`` direction.
    random_state:
        Seed for the random directions.
    """

    VALID_DIRECTIONS = ("random", "add", "subtract", "oracle")

    def __init__(
        self,
        column_norms: np.ndarray,
        n_pixels: int = 2,
        *,
        direction: str = "random",
        network: Optional[Sequential] = None,
        loss: Optional[Loss] = None,
        queries_used: int = 0,
        random_state: RandomState = None,
    ):
        self.column_norms = check_vector(column_norms, "column_norms")
        self.n_pixels = check_positive_int(n_pixels, "n_pixels")
        if self.n_pixels > len(self.column_norms):
            raise ValueError(
                f"n_pixels ({self.n_pixels}) exceeds the number of inputs "
                f"({len(self.column_norms)})"
            )
        direction = str(direction).lower()
        if direction not in self.VALID_DIRECTIONS:
            raise ValueError(
                f"direction must be one of {self.VALID_DIRECTIONS}, got {direction!r}"
            )
        if direction == "oracle" and network is None:
            raise ValueError("direction 'oracle' requires the victim network")
        self.direction = direction
        self.network = network
        self.loss = loss
        self.queries_used = int(queries_used)
        self._rng = as_rng(random_state)

    def target_pixels(self) -> np.ndarray:
        """Indices of the ``n_pixels`` largest column 1-norms (descending)."""
        order = np.argsort(self.column_norms)[::-1]
        return order[: self.n_pixels]

    def attack(self, inputs: np.ndarray, targets: np.ndarray, strength: float) -> AttackResult:
        check_non_negative(strength, "strength")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(inputs) != len(targets):
            raise ValueError("inputs and targets disagree on sample count")
        n_samples = len(inputs)
        pixels = self.target_pixels()

        if self.direction == "add":
            signs = np.ones((n_samples, self.n_pixels))
        elif self.direction == "subtract":
            signs = -np.ones((n_samples, self.n_pixels))
        elif self.direction == "oracle":
            gradients = input_gradients(self.network, inputs, targets, loss=self.loss)
            signs = np.sign(gradients[:, pixels])
            signs[signs == 0] = 1.0
        else:  # random
            signs = self._rng.choice([-1.0, 1.0], size=(n_samples, self.n_pixels))

        perturbation = np.zeros_like(inputs)
        perturbation[:, pixels] = signs * strength
        return AttackResult(
            adversarial_inputs=inputs + perturbation,
            original_inputs=inputs,
            strength=float(strength),
            queries_used=self.queries_used,
            metadata={
                "attack": "multi_pixel",
                "n_pixels": self.n_pixels,
                "direction": self.direction,
            },
        )
