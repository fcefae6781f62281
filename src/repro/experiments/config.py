"""Experiment configuration objects and size presets.

The paper's experiments run on the full MNIST / CIFAR-10 datasets with up to
60 000 queries and 10 repetitions; that is hours of CPU time for the
benchmark harness, so each experiment accepts an :class:`ExperimentScale`
preset:

* ``"smoke"`` — seconds; used by the test suite.
* ``"bench"`` — tens of seconds per experiment; the default for the
  pytest-benchmark harness and the values recorded in EXPERIMENTS.md.
* ``"paper"`` — the paper's sizes (long-running).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Tuple

from repro.utils.validation import check_known_fields, check_positive_int


@dataclass(frozen=True)
class ExperimentScale:
    """Size preset shared by all experiment pipelines.

    Attributes
    ----------
    name:
        Preset identifier.
    n_train / n_test:
        Dataset split sizes.
    n_runs:
        Independent repetitions (seeds) for statistics.
    train_epochs:
        Victim training epochs.
    query_counts:
        Query budgets swept in the Figure 5 experiment.
    attack_strengths:
        Attack strengths swept in the Figure 4 experiment.
    power_loss_weights:
        λ values swept in the Figure 5 experiment.
    surrogate_epochs:
        Training epochs for each surrogate model.
    """

    name: str
    n_train: int
    n_test: int
    n_runs: int
    train_epochs: int
    query_counts: Tuple[int, ...]
    attack_strengths: Tuple[float, ...]
    power_loss_weights: Tuple[float, ...]
    surrogate_epochs: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scale name must be non-empty")
        for field_name in ("n_train", "n_test", "n_runs", "train_epochs", "surrogate_epochs"):
            check_positive_int(getattr(self, field_name), field_name)
        for field_name in ("query_counts", "attack_strengths", "power_loss_weights"):
            values = getattr(self, field_name)
            if not isinstance(values, tuple):
                object.__setattr__(self, field_name, tuple(values))
                values = getattr(self, field_name)
            if len(values) == 0:
                raise ValueError(f"{field_name} must contain at least one value")
        for count in self.query_counts:
            check_positive_int(count, "query_counts entry")
        for strength in self.attack_strengths:
            if strength < 0:
                raise ValueError(f"attack_strengths must be >= 0, got {strength}")
        for weight in self.power_loss_weights:
            if weight < 0:
                raise ValueError(f"power_loss_weights must be >= 0, got {weight}")

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Return a copy with selected fields replaced (and re-validated).

        Unknown field names raise :class:`TypeError` naming the accepted
        fields; invalid values raise :class:`ValueError` through the same
        validation as construction.
        """
        known = {scale_field.name for scale_field in fields(self)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"unknown ExperimentScale fields {unknown}; "
                f"accepted fields: {sorted(known)}"
            )
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {}
        for scale_field in fields(self):
            value = getattr(self, scale_field.name)
            payload[scale_field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentScale":
        """Reconstruct a scale written by :meth:`to_dict`.

        Unknown keys are rejected (same contract as
        ``ServiceConfig.from_dict``): a typo'd field in a serialised scale
        must fail loudly, not be silently dropped.
        """
        check_known_fields(payload, cls)
        kwargs = dict(payload)
        for key in ("query_counts", "attack_strengths", "power_loss_weights"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        n_train=400,
        n_test=100,
        n_runs=2,
        train_epochs=10,
        query_counts=(10, 50),
        attack_strengths=(0.0, 5.0, 10.0),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=60,
    ),
    "bench": ExperimentScale(
        name="bench",
        n_train=2000,
        n_test=400,
        n_runs=3,
        train_epochs=25,
        query_counts=(10, 50, 100, 500, 1000),
        attack_strengths=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        power_loss_weights=(0.0, 0.002, 0.006, 0.01),
        surrogate_epochs=300,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_train=60000,
        n_test=10000,
        n_runs=10,
        train_epochs=50,
        query_counts=(2, 10, 50, 100, 500, 1000, 60000),
        attack_strengths=tuple(float(s) for s in range(0, 11)),
        power_loss_weights=(0.0, 0.002, 0.004, 0.006, 0.008, 0.01),
        surrogate_epochs=500,
    ),
}


def resolve_scale(scale) -> ExperimentScale:
    """Accept a preset name or an :class:`ExperimentScale` instance."""
    if isinstance(scale, ExperimentScale):
        return scale
    key = str(scale).lower()
    if key not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    return SCALES[key]


#: The four dataset / activation configurations evaluated throughout the paper.
PAPER_CONFIGURATIONS: Tuple[Tuple[str, str], ...] = (
    ("mnist-like", "linear"),
    ("mnist-like", "softmax"),
    ("cifar-like", "linear"),
    ("cifar-like", "softmax"),
)


#: Multi-tile placement presets registered as ``sharded-*`` scenarios:
#: ``name -> (row_shards, col_shards, reduction)``.  Kept here as plain data
#: so the shipped tile geometries are configuration, not scenario-module code;
#: :mod:`repro.experiments.scenario` turns each entry into a
#: :class:`~repro.crossbar.mapping.ShardingSpec` preset.
SHARD_PRESET_GEOMETRIES: Dict[str, Tuple[int, int, str]] = {
    "sharded-rows-2": (2, 1, "sequential"),
    "sharded-columns-4": (1, 4, "sequential"),
    "sharded-2x2": (2, 2, "sequential"),
    "sharded-4x4-tree": (4, 4, "tree"),
}


#: Per-unit-cell wire resistance (ohms) of the ``wired-crossbar`` preset —
#: the 2-D IR-drop model of
#: :attr:`~repro.crossbar.nonidealities.NonidealityConfig.wire_resistance_ohm`.
#: Calibrated so a monolithic MNIST-sized tile (10 x 785) suffers heavy
#: droop-induced leakage distortion while finer shard geometries, whose
#: shorter wires carry smaller per-wire loads, recover most of the leakage —
#: the security-vs-geometry design-space axis ``sweep-shard-geometry``
#: reports.
WIRED_CROSSBAR_OHM: float = 1e-3

#: Attacker instrument noise (relative std) of the ``wired-crossbar``
#: preset.  Nonzero so the per-shard prober's rail selection has noise to
#: reject: each rail's noise scales with that rail's own current, which is
#: what makes per-rail probing strictly better than the whole-rail attack on
#: row-sharded victims.
WIRED_CROSSBAR_PROBE_NOISE: float = 0.05


#: Service-fronted presets registered as ``service-*`` scenarios:
#: ``name -> (base scenario preset, max_batch, max_wait_ms)``.  Kept here as
#: plain data so the shipped batching policies are configuration, not
#: scenario-module code; :mod:`repro.experiments.scenario` attaches a
#: :class:`~repro.service.config.ServiceConfig` to each base preset.  The
#: noisy variant exists to exercise coalescing against *stochastic* hardware
#: physics (per-request seed streams keep it bit-identical regardless).
SERVICE_PRESET_CONFIGS: Dict[str, Tuple[str, int, float]] = {
    "service-paper": ("paper/mnist-softmax", 64, 2.0),
    "service-noisy-device": ("noisy-device", 32, 2.0),
}


#: Multi-tenant co-residency presets registered as ``tenant-*`` scenarios:
#: ``name -> (placement, max_batch, noise_budget, sharding geometry)`` with
#: the geometry a ``(row_shards, col_shards, reduction)`` tuple or ``None``
#: (single tile per layer).  Kept here as plain data so the shipped isolation
#: policies are configuration, not scenario-module code;
#: :mod:`repro.experiments.scenario` attaches a
#: :class:`~repro.service.config.ServiceConfig` (and, for the tile-isolated
#: policy, a :class:`~repro.crossbar.mapping.ShardingSpec` modelling the
#: per-tenant tile banks) to the paper base preset.  All four share one
#: ``max_batch`` so the cross-tenant-attack experiment compares placement
#: policies at equal batching capacity:
#:
#: * ``tenant-shared`` — the status-quo coalescer: strangers share rails.
#: * ``tenant-partitioned`` — per-tenant ticks on the shared rail.
#: * ``tenant-tile-isolated`` — per-tenant ticks on per-tenant tile banks
#:   (electrically disjoint rails).
#: * ``tenant-noise-budget`` — shared placement with the per-tick dummy-draw
#:   rail defence armed.
TENANT_PRESET_CONFIGS: Dict[str, Tuple[str, int, float, object]] = {
    "tenant-shared": ("shared", 8, 0.0, None),
    "tenant-partitioned": ("partitioned", 8, 0.0, None),
    "tenant-tile-isolated": ("tile-isolated", 8, 0.0, (1, 2, "sequential")),
    "tenant-noise-budget": ("shared", 8, 4.0, None),
}


#: Networked-front-end presets consumed by
#: :func:`repro.netservice.config.get_netservice_preset`:
#: ``name -> (max_batch, max_wait_ms, tenants)`` with ``tenants`` a tuple of
#: ``(tenant name, weight, query_budget)`` triples.  Kept here as plain data
#: so the shipped tenancy policies are configuration, not netservice-module
#: code, in the same style as the scenario presets above.  ``net-paper`` is
#: the single-tenant default; ``net-two-tenant`` pins the 1:3 weight split
#: the fairness tests assert; ``net-budgeted`` caps a hostile tenant's rows
#: while leaving the victim tenant unbounded (the cross-tenant-leakage
#: study's setting).
NETSERVICE_PRESET_CONFIGS: Dict[
    str, Tuple[int, float, Tuple[Tuple[str, float, object], ...]]
] = {
    "net-paper": (64, 2.0, ()),
    "net-two-tenant": (64, 2.0, (("alice", 1.0, None), ("bob", 3.0, None))),
    "net-budgeted": (32, 2.0, (("attacker", 1.0, 512), ("victim", 2.0, None))),
}


#: Built-in scenario sweeps registered as ``sweep-*`` experiments:
#: ``name -> (base scenario preset, knob path, value grid)``.  Kept here as
#: plain data so the shipped ablation grids are configuration, not
#: sweep-module code; :mod:`repro.experiments.sweep` turns each entry into a
#: registered :class:`~repro.experiments.sweep.SweepExperiment`.  Sharding
#: values are ``(row_shards, col_shards, reduction)`` tuples (``None`` = the
#: single-tile placement); ``None`` in the ADC grid is the ideal continuous
#: instrument.  Grids are ordered from the most degraded setting to the most
#: faithful one, so a healthy leakage curve rises left to right.
#: Cross-tenant isolation sweeps registered as ``sweep-tenant-*``
#: experiments by :mod:`repro.experiments.cross_tenant`: same
#: ``name -> (base scenario preset, knob path, value grid)`` shape as
#: :data:`SWEEP_PRESET_GRIDS`, but each grid point runs the co-resident
#: attack instead of the direct probing pipeline, so the curves report
#: attack advantage against the isolation knob.  Grids are ordered from the
#: most defended setting to the most exposed one, so a leaking curve rises
#: left to right: coarser per-tenant coalescing (larger ``max_batch``)
#: aggregates more victim rows per rail equation, and a larger
#: ``noise_budget`` jams every equation harder.
TENANT_SWEEP_GRIDS: Dict[str, Tuple[str, str, Tuple[object, ...]]] = {
    "sweep-tenant-coalescing": (
        "tenant-partitioned",
        "service.max_batch",
        (32, 16, 8, 4, 2),
    ),
    "sweep-tenant-noise-budget": (
        "tenant-shared",
        "service.noise_budget",
        (16.0, 8.0, 4.0, 2.0, 0.0),
    ),
}


SWEEP_PRESET_GRIDS: Dict[str, Tuple[str, str, Tuple[object, ...]]] = {
    "sweep-adc-bits": (
        "paper/mnist-softmax",
        "adc.bits",
        (1, 2, 4, 8, None),
    ),
    "sweep-read-noise": (
        "paper/mnist-softmax",
        "device.read_noise",
        (0.5, 0.2, 0.1, 0.05, 0.0),
    ),
    "sweep-power-noise-defense": (
        "power-noise-defense",
        "defense.power_noise_std",
        (2.0, 1.0, 0.5, 0.25, 0.0),
    ),
    # Ordered coarsest-to-finest *wire* geometry under the wired-crossbar
    # base: droop falls (and leakage recovers) monotonically left to right —
    # row splits barely shorten the long row wires, column splits shorten
    # them quadratically.
    "sweep-shard-geometry": (
        "wired-crossbar",
        "sharding",
        (None, (2, 1, "sequential"), (2, 2, "sequential"), (1, 4, "sequential"), (4, 4, "tree")),
    ),
}
