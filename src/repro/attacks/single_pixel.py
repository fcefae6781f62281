"""Power-guided single-pixel attacks (Figure 4 of the paper).

Five strategies are compared in the paper:

``RANDOM_PIXEL`` ("RP")
    A random pixel is perturbed by ±ε with equal probability — the no-
    information baseline.
``POWER_ADD`` ("+")
    The pixel with the largest weight-column 1-norm (recovered through the
    power side channel) has ε **added**.
``POWER_SUBTRACT`` ("−")
    The same pixel has ε **subtracted**.
``POWER_RANDOM`` ("RD")
    The same pixel is perturbed by ±ε with equal probability (the attacker
    knows *where* to attack but not in which direction).
``WORST_CASE`` ("Worst")
    White-box reference: the most sensitive pixel (largest ``|∂L/∂u_j|``) is
    perturbed in the direction of increasing loss — a single-pixel FGSM.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.nn.gradients import input_gradients
from repro.nn.losses import Loss
from repro.nn.network import Sequential
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_non_negative, check_vector


class SinglePixelStrategy(str, Enum):
    """The five single-pixel attack strategies from Figure 4."""

    RANDOM_PIXEL = "random_pixel"
    POWER_ADD = "power_add"
    POWER_SUBTRACT = "power_subtract"
    POWER_RANDOM = "power_random"
    WORST_CASE = "worst_case"

    @property
    def paper_label(self) -> str:
        """The legend label used in the paper's Figure 4."""
        return {
            SinglePixelStrategy.RANDOM_PIXEL: "RP",
            SinglePixelStrategy.POWER_ADD: "+",
            SinglePixelStrategy.POWER_SUBTRACT: "-",
            SinglePixelStrategy.POWER_RANDOM: "RD",
            SinglePixelStrategy.WORST_CASE: "Worst",
        }[self]

    @property
    def needs_power_information(self) -> bool:
        """True for the strategies that require the column 1-norms."""
        return self in (
            SinglePixelStrategy.POWER_ADD,
            SinglePixelStrategy.POWER_SUBTRACT,
            SinglePixelStrategy.POWER_RANDOM,
        )

    @property
    def needs_model_gradients(self) -> bool:
        """True for the white-box worst-case strategy."""
        return self is SinglePixelStrategy.WORST_CASE


class SinglePixelAttack(Attack):
    """Perturb exactly one pixel per image according to a chosen strategy.

    Parameters
    ----------
    strategy:
        A :class:`SinglePixelStrategy` (or its string value).
    column_norms:
        The weight-column 1-norms (or any values proportional to them, e.g.
        the conductance sums recovered by
        :class:`~repro.sidechannel.probing.ColumnNormProber`).  Required by
        the power-guided strategies.
    network:
        The victim network; required by ``WORST_CASE`` (white-box reference).
    loss:
        Loss used for the worst-case gradients (defaults to the network's
        natural loss).
    queries_used:
        Number of power queries spent obtaining ``column_norms``; recorded in
        the attack result for bookkeeping.
    random_state:
        Seed for the random pixel / random sign choices.
    """

    def __init__(
        self,
        strategy: SinglePixelStrategy = SinglePixelStrategy.POWER_ADD,
        *,
        column_norms: Optional[np.ndarray] = None,
        network: Optional[Sequential] = None,
        loss: Optional[Loss] = None,
        queries_used: int = 0,
        random_state: RandomState = None,
    ):
        self.strategy = SinglePixelStrategy(strategy)
        self.column_norms = (
            check_vector(column_norms, "column_norms") if column_norms is not None else None
        )
        self.network = network
        self.loss = loss
        self.queries_used = int(queries_used)
        self._rng = as_rng(random_state)

        if self.strategy.needs_power_information and self.column_norms is None:
            raise ValueError(
                f"strategy {self.strategy.value!r} requires column_norms (power information)"
            )
        if self.strategy.needs_model_gradients and self.network is None:
            raise ValueError("strategy 'worst_case' requires the victim network")

    # ------------------------------------------------------------------ api

    def target_pixel(self) -> int:
        """The pixel index attacked by the power-guided strategies."""
        if self.column_norms is None:
            raise ValueError("no column norms available")
        return int(np.argmax(self.column_norms))

    def attack(self, inputs: np.ndarray, targets: np.ndarray, strength: float) -> AttackResult:
        check_non_negative(strength, "strength")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(inputs) != len(targets):
            raise ValueError("inputs and targets disagree on sample count")
        n_samples, n_features = inputs.shape
        if self.column_norms is not None and len(self.column_norms) != n_features:
            raise ValueError(
                f"column_norms has length {len(self.column_norms)} but inputs have "
                f"{n_features} features"
            )

        perturbation = np.zeros_like(inputs)
        strategy = self.strategy

        if strategy is SinglePixelStrategy.RANDOM_PIXEL:
            pixels = self._rng.integers(0, n_features, size=n_samples)
            signs = self._rng.choice([-1.0, 1.0], size=n_samples)
            perturbation[np.arange(n_samples), pixels] = signs * strength
        elif strategy is SinglePixelStrategy.WORST_CASE:
            gradients = input_gradients(self.network, inputs, targets, loss=self.loss)
            pixels = np.argmax(np.abs(gradients), axis=1)
            signs = np.sign(gradients[np.arange(n_samples), pixels])
            signs[signs == 0] = 1.0
            perturbation[np.arange(n_samples), pixels] = signs * strength
        else:
            pixel = self.target_pixel()
            if strategy is SinglePixelStrategy.POWER_ADD:
                signs = np.ones(n_samples)
            elif strategy is SinglePixelStrategy.POWER_SUBTRACT:
                signs = -np.ones(n_samples)
            else:  # POWER_RANDOM
                signs = self._rng.choice([-1.0, 1.0], size=n_samples)
            perturbation[:, pixel] = signs * strength

        return AttackResult(
            adversarial_inputs=inputs + perturbation,
            original_inputs=inputs,
            strength=float(strength),
            queries_used=self.queries_used,
            metadata={"attack": "single_pixel", "strategy": strategy.value},
        )
