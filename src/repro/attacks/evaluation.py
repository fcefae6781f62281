"""Attack evaluation: victim accuracy under attack."""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.attacks.base import Attack
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.nn.network import Sequential

Victim = Union[Sequential, CrossbarAccelerator]


def accuracy_under_attack(
    victim: Victim,
    attack: Attack,
    inputs: np.ndarray,
    targets: np.ndarray,
    strength: float,
) -> float:
    """Victim accuracy on adversarial examples crafted by ``attack``.

    The attack runs on the clean ``(inputs, targets)`` batch; the resulting
    adversarial inputs are then classified by the victim.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    result = attack.attack(inputs, targets, strength)
    predicted = victim.predict_labels(result.adversarial_inputs)
    true_labels = np.argmax(targets, axis=1)
    return float(np.mean(predicted == true_labels))
