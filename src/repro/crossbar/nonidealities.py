"""Configuration of crossbar non-idealities.

The paper's analysis is for an *ideal* crossbar; this module collects the
non-ideal effects named as future work (and common in the crossbar
literature) so they can be switched on individually to study their impact on
the power side channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_probability


@dataclass(frozen=True)
class NonidealityConfig:
    """Which non-ideal effects a :class:`~repro.crossbar.array.CrossbarArray` applies.

    Attributes
    ----------
    stuck_at_off_fraction:
        Fraction of devices stuck at ``g_min`` (cannot be programmed).
    stuck_at_on_fraction:
        Fraction of devices stuck at ``g_max``.
    wire_resistance_ohm:
        Per-unit-cell wire resistance (ohms) of the two-dimensional IR-drop
        model.  ``0`` disables it bitwise.  It models the voltage droop a
        cell at grid position ``(i, j)`` sees along *both* the column wire
        feeding it (``i`` cells deep, loaded by the column's total
        conductance) and the row wire collecting its current (``j`` cells
        long, loaded by the row's total conductance):
        ``1 / (1 + R * (G_col[j] * (i+1) + G_row[i] * (j+1)))``.
        The droop therefore scales with the *physical* array dimensions —
        sharding a layer across smaller tiles shortens the wires and shrinks
        the per-wire load, so the same ``wire_resistance_ohm`` hurts a
        monolithic array far more than a finely sharded one.
    current_measurement_noise:
        Standard deviation of additive noise on the *total current*
        measurement (the power side channel), relative to the measured value.
    """

    stuck_at_off_fraction: float = 0.0
    stuck_at_on_fraction: float = 0.0
    wire_resistance_ohm: float = 0.0
    current_measurement_noise: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.stuck_at_off_fraction, "stuck_at_off_fraction")
        check_probability(self.stuck_at_on_fraction, "stuck_at_on_fraction")
        if self.stuck_at_off_fraction + self.stuck_at_on_fraction > 1.0:
            raise ValueError("stuck-at fractions must sum to at most 1")
        check_non_negative(self.wire_resistance_ohm, "wire_resistance_ohm")
        check_non_negative(self.current_measurement_noise, "current_measurement_noise")

    @property
    def is_ideal(self) -> bool:
        """True when every non-ideal effect is disabled."""
        return (
            self.stuck_at_off_fraction == 0.0
            and self.stuck_at_on_fraction == 0.0
            and self.wire_resistance_ohm == 0.0
            and self.current_measurement_noise == 0.0
        )


#: Shared default: the ideal configuration assumed throughout the paper.
IDEAL_NONIDEALITIES = NonidealityConfig()
