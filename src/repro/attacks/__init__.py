"""Adversarial attacks on crossbar-based single-layer networks.

This package contains the paper's primary contribution: evasion attacks that
exploit the crossbar power side channel.

* :mod:`repro.attacks.fgsm` — white-box FGSM gradient attack (Eq. 2).
* :mod:`repro.attacks.single_pixel` — power-guided single-pixel attacks
  (Figure 4: RP, +, −, RD, Worst).
* :mod:`repro.attacks.multi_pixel` — the top-N extension discussed in
  Section III.
* :mod:`repro.attacks.oracle` — the attacker's view of the victim accelerator
  (label-only or raw outputs, with or without power).
* :mod:`repro.attacks.surrogate` — surrogate training with the power loss
  (Eq. 9) and the surrogate-based black-box FGSM attack (Figure 5).
"""

from repro.attacks.base import Attack, AttackResult
from repro.attacks.fgsm import FastGradientSignMethod, fgsm_perturbation
from repro.attacks.oracle import Oracle, OracleResponse
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.attacks.multi_pixel import MultiPixelAttack
from repro.attacks.surrogate import (
    SurrogateConfig,
    SurrogateTrainer,
    SurrogateAttack,
    SurrogateAttackResult,
)
from repro.attacks.evaluation import accuracy_under_attack

__all__ = [
    "Attack",
    "AttackResult",
    "FastGradientSignMethod",
    "fgsm_perturbation",
    "Oracle",
    "OracleResponse",
    "SinglePixelAttack",
    "SinglePixelStrategy",
    "MultiPixelAttack",
    "SurrogateConfig",
    "SurrogateTrainer",
    "SurrogateAttack",
    "SurrogateAttackResult",
    "accuracy_under_attack",
]
