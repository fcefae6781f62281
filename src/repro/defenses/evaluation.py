"""Quantifying how well a defence closes the power side channel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.oracle import Oracle
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.nn.gradients import weight_column_norms
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential
from repro.sidechannel.probing import ColumnNormProber
from repro.utils.rng import RandomState, as_rng


def _probe_column_sums(power_target, n_features: int):
    """Basis-probe ``power_target`` through a fresh noise-free :class:`Oracle`."""
    return ColumnNormProber(Oracle(power_target), n_features).probe_all().column_sums


def leakage_correlation(
    power_target,
    network: Sequential,
    *,
    leaked_norms: Optional[np.ndarray] = None,
) -> float:
    """Correlation between power-probed column sums and the true 1-norms.

    1.0 means the side channel leaks the weight-column 1-norms perfectly;
    values near 0 mean a successful defence.  Degenerate observations —
    zero-variance leaked sums (e.g. a fully quantised or jammed channel),
    constant-weight victims, or non-finite readings — report 0.0 rather
    than a NaN correlation.

    Parameters
    ----------
    power_target:
        The target to probe through a noise-free
        :class:`~repro.attacks.oracle.Oracle` (an accelerator, a defended
        accelerator, or a software network); any noise on the reading is the
        target's own, such as a defence's dummy current.
    leaked_norms:
        Optional pre-probed column sums.  When given, ``power_target`` is not
        probed again — the caller's own acquisition (a scenario-configured
        prober, a replayed trace) is scored as-is, so the leakage metric and
        any attack mounted from the same probe see identical data.
    """
    if leaked_norms is None:
        n_features = network.layers[0].n_inputs
        leaked = _probe_column_sums(power_target, n_features)
    else:
        leaked = np.asarray(leaked_norms, dtype=float)
    true_norms = weight_column_norms(network.layers[0].weights)
    if leaked.std() == 0 or true_norms.std() == 0:
        return 0.0
    correlation = float(np.corrcoef(leaked, true_norms)[0, 1])
    if not np.isfinite(correlation):
        return 0.0
    return correlation


def single_pixel_attack_advantage(
    victim: Sequential,
    leaked_norms: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    strength: float = 8.0,
    random_state: RandomState = None,
) -> float:
    """Accuracy drop of the power-guided attack relative to the random baseline.

    Positive values mean the leaked information still gives the attacker an
    edge; ~0 means the defence removed the advantage.
    """
    rng = as_rng(random_state)
    power_attack = SinglePixelAttack(
        SinglePixelStrategy.POWER_ADD, column_norms=leaked_norms, random_state=rng
    )
    random_attack = SinglePixelAttack(SinglePixelStrategy.RANDOM_PIXEL, random_state=rng)
    power_acc = accuracy_under_attack(victim, power_attack, inputs, targets, strength)
    random_acc = accuracy_under_attack(victim, random_attack, inputs, targets, strength)
    return float(random_acc - power_acc)


@dataclass(frozen=True)
class DefenseReport:
    """Outcome of evaluating one defence configuration.

    Attributes
    ----------
    name:
        Defence label.
    clean_accuracy:
        Victim accuracy with the defence in place (training-time defences may
        cost accuracy; inference-time defences do not).
    leakage:
        Correlation between probed power and true column 1-norms.
    attack_advantage:
        Accuracy advantage of the power-guided single-pixel attack over the
        random baseline, measured against the defended power observable.
    power_overhead:
        Relative increase in average power caused by the defence (1.0 = none).
    """

    name: str
    clean_accuracy: float
    leakage: float
    attack_advantage: float
    power_overhead: float = 1.0


def evaluate_defense(
    name: str,
    victim: Sequential,
    power_target,
    test_inputs: np.ndarray,
    test_targets: np.ndarray,
    *,
    attack_strength: float = 8.0,
    power_overhead: float = 1.0,
    random_state: RandomState = None,
) -> DefenseReport:
    """Evaluate a (victim, power observable) pair against the power-only attacker.

    Parameters
    ----------
    victim:
        The network whose predictions the attacker is trying to flip.
    power_target:
        The target the attacker's :class:`~repro.attacks.oracle.Oracle`
        probes: an accelerator, possibly wrapped in a defence such as
        :class:`~repro.defenses.noise_injection.PowerNoiseDefense`.
    """
    clean_accuracy = accuracy(victim.predict(test_inputs), test_targets)
    leakage = leakage_correlation(power_target, victim)
    leaked = _probe_column_sums(power_target, victim.layers[0].n_inputs)
    advantage = single_pixel_attack_advantage(
        victim,
        leaked,
        test_inputs,
        test_targets,
        strength=attack_strength,
        random_state=random_state,
    )
    return DefenseReport(
        name=name,
        clean_accuracy=clean_accuracy,
        leakage=leakage,
        attack_advantage=advantage,
        power_overhead=power_overhead,
    )
