"""Attack base classes and result containers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AttackResult:
    """Adversarial examples plus bookkeeping.

    Attributes
    ----------
    adversarial_inputs:
        The perturbed inputs, same shape as the originals.
    original_inputs:
        The unmodified inputs.
    perturbations:
        ``adversarial_inputs - original_inputs``.
    strength:
        The attack strength (ε) used.
    queries_used:
        Power/oracle queries spent crafting the examples (0 for white-box).
    """

    adversarial_inputs: np.ndarray
    original_inputs: np.ndarray
    strength: float
    queries_used: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adversarial_inputs = np.atleast_2d(np.asarray(self.adversarial_inputs, dtype=float))
        self.original_inputs = np.atleast_2d(np.asarray(self.original_inputs, dtype=float))
        if self.adversarial_inputs.shape != self.original_inputs.shape:
            raise ValueError(
                "adversarial and original inputs must have the same shape, got "
                f"{self.adversarial_inputs.shape} and {self.original_inputs.shape}"
            )

    @property
    def perturbations(self) -> np.ndarray:
        """The applied perturbations ``r = u' - u``."""
        return self.adversarial_inputs - self.original_inputs

    @property
    def n_samples(self) -> int:
        """Number of attacked samples."""
        return len(self.adversarial_inputs)


class Attack(ABC):
    """Base class for evasion attacks.

    Adversarial examples are never clipped to the pixel range: the paper's
    single-pixel experiments use attack strengths up to 10 on [0, 1] pixels.
    """

    @abstractmethod
    def attack(
        self, inputs: np.ndarray, targets: np.ndarray, strength: float
    ) -> AttackResult:
        """Craft adversarial examples for a batch of (inputs, targets)."""

    def __call__(
        self, inputs: np.ndarray, targets: np.ndarray, strength: float
    ) -> AttackResult:
        return self.attack(inputs, targets, strength)
