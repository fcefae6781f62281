"""Declarative scenario specifications for the unified experiment API.

A :class:`ScenarioSpec` composes everything that defines one *cell* of an
experiment sweep — dataset, victim activation, crossbar hardware (device,
mapping scheme, converters, non-idealities), attacker instrument noise, and
an optional defence — as a frozen, picklable value object.  Every experiment
pipeline takes a list of scenarios and expands them into per-seed jobs, so a
new study (a noisier device, a quantised ADC, a defended victim) is a new
``ScenarioSpec`` rather than a new module.

The four configurations the paper evaluates throughout
(:data:`~repro.experiments.config.PAPER_CONFIGURATIONS`) are exposed as the
``paper/*`` presets; additional named presets cover the non-ideality and
defence studies the ROADMAP calls for.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.devices import IDEAL_DEVICE, PCM_DEVICE, RERAM_DEVICE, NVMDeviceModel
from repro.crossbar.mapping import ConductanceMapping, MappingScheme, ShardingSpec
from repro.crossbar.nonidealities import IDEAL_NONIDEALITIES, NonidealityConfig
from repro.defenses.noise_injection import PowerNoiseDefense
from repro.defenses.norm_balancing import ColumnNormRegularizer, rebalance_column_norms
from repro.experiments.config import (
    ExperimentScale,
    PAPER_CONFIGURATIONS,
    SERVICE_PRESET_CONFIGS,
    SHARD_PRESET_GEOMETRIES,
    TENANT_PRESET_CONFIGS,
    WIRED_CROSSBAR_OHM,
    WIRED_CROSSBAR_PROBE_NOISE,
)
from repro.service.config import ServiceConfig
from repro.sidechannel.probing import ColumnNormProber
from repro.utils.validation import check_known_fields

_DEVICES: Dict[str, NVMDeviceModel] = {
    "ideal": IDEAL_DEVICE,
    "reram": RERAM_DEVICE,
    "pcm": PCM_DEVICE,
}

_ACTIVATIONS = ("linear", "softmax")

#: Defence identifiers accepted by :attr:`ScenarioSpec.defense`.
_DEFENSES = ("norm-regularizer", "rebalance", "power-noise")
#: Defences applied while training the victim (the rest act on the hardware).
_TRAINING_DEFENSES = ("norm-regularizer", "rebalance")

#: Wire-physics knobs a dict-form ``sharding`` value may carry alongside the
#: grid geometry; they are folded into :attr:`ScenarioSpec.nonidealities`.
_SHARDING_WIRE_KNOBS = ("wire_resistance_ohm",)


def _coerce_scenario_sharding(value) -> Tuple[ShardingSpec, Dict[str, float]]:
    """Coerce a scenario ``sharding`` value to ``(spec, wire_overrides)``.

    Accepts a ``(rows, cols[, reduction])`` tuple or a mapping whose keys are
    the :meth:`~repro.crossbar.mapping.ShardingSpec.to_dict` fields plus the
    wire-physics knobs in :data:`_SHARDING_WIRE_KNOBS`.  The wire knobs are
    popped first; :meth:`ShardingSpec.from_dict` then rejects any other
    unknown key, so a typo'd geometry knob fails loudly.
    """
    if isinstance(value, (tuple, list)):
        return ShardingSpec(*value), {}
    if isinstance(value, Mapping):
        payload = dict(value)
        wire = {
            knob: float(payload.pop(knob))
            for knob in _SHARDING_WIRE_KNOBS
            if knob in payload
        }
        return ShardingSpec.from_dict(payload), wire
    raise TypeError(
        f"sharding must be a ShardingSpec, a (rows, cols, reduction) tuple, "
        f"a dict of geometry/wire knobs, or None, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named experiment configuration: dataset x victim x hardware x defence.

    Attributes
    ----------
    name:
        Preset identifier (also recorded in result metadata).
    dataset:
        A :func:`repro.datasets.load_dataset` name (``"mnist-like"`` /
        ``"cifar-like"`` and aliases).
    activation:
        Victim output activation, ``"linear"`` or ``"softmax"``.
    device:
        NVM device model: ``"ideal"``, ``"reram"`` or ``"pcm"``.
    device_read_noise:
        Optional override of the device model's per-read conductance
        fluctuation (relative std).  ``None`` keeps the named device's own
        :attr:`~repro.crossbar.devices.NVMDeviceModel.read_noise`; a value
        replaces it, so read-noise ablations sweep the real device physics
        (every analogue traversal draws a fresh conductance realisation)
        rather than a measurement-stage proxy.
    mapping_scheme:
        Weight-to-conductance mapping, ``"min_power"`` (the paper's
        assumption) or ``"balanced"`` (the hardware-level defence).
    dac_bits / adc_bits:
        Converter resolutions; ``None`` keeps the ideal continuous converters.
    nonidealities:
        Crossbar non-ideal effects (stuck cells, IR drop, rail measurement noise).
    measurement_noise:
        Relative std of the attacker's power-instrument noise.
    probe_adc_bits:
        Resolution of the attacker's acquisition ADC in bits (``None`` = an
        ideal continuous instrument).  This quantises the *power readings*
        the attacker records; the accelerator's own output ADC
        (:attr:`adc_bits`) digitises functional outputs only and never
        touches the analogue supply rail.
    defense:
        ``None`` or one of ``"norm-regularizer"`` (train with the column-norm
        variance penalty), ``"rebalance"`` (post-training projection towards
        uniform column norms) and ``"power-noise"`` (randomised dummy draw at
        inference time).
    defense_strength:
        Defence-specific knob: the regulariser beta, the rebalance blend in
        ``[0, 1]``, or the dummy-current scale.
    sharding:
        Optional :class:`~repro.crossbar.mapping.ShardingSpec` placing every
        layer on a grid of physical tiles (``None`` = one tile per layer).
        Ideal-device sharded execution is equivalent to the single-tile
        placement, so this axis sweeps tile geometry without changing any
        result — until non-idealities or per-tile observables enter.
    service:
        Optional :class:`~repro.service.config.ServiceConfig`: the batching
        policy of the :class:`~repro.service.coalescer.QueryService` that the
        ``service-attack`` and ``cross-tenant-attack`` experiments build in
        front of this scenario's oracle (``None`` there means the default
        policy).  It changes *how* queries reach the hardware — never the
        physics — and serviced responses are bit-identical to direct seeded
        queries.  :meth:`build_oracle` ignores it.
    description:
        One-line human-readable summary for listings.
    """

    name: str
    dataset: str = "mnist-like"
    activation: str = "softmax"
    device: str = "ideal"
    device_read_noise: Optional[float] = None
    mapping_scheme: str = "min_power"
    dac_bits: Optional[int] = None
    adc_bits: Optional[int] = None
    nonidealities: NonidealityConfig = IDEAL_NONIDEALITIES
    measurement_noise: float = 0.0
    probe_adc_bits: Optional[int] = None
    defense: Optional[str] = None
    defense_strength: float = 0.0
    sharding: Optional[ShardingSpec] = None
    service: Optional[ServiceConfig] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        from repro.datasets import available_datasets, canonical_dataset_name

        try:
            canonical = canonical_dataset_name(self.dataset)
        except KeyError:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; available: {available_datasets()}"
            ) from None
        # normalise aliases ("mnist" -> "mnist-like") so scenario dedup,
        # row matching, and result metadata all agree on one name
        object.__setattr__(self, "dataset", canonical)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )
        if self.device not in _DEVICES:
            raise ValueError(
                f"device must be one of {sorted(_DEVICES)}, got {self.device!r}"
            )
        MappingScheme(self.mapping_scheme)  # raises ValueError on bad schemes
        if self.defense is not None and self.defense not in _DEFENSES:
            raise ValueError(
                f"defense must be None or one of {_DEFENSES}, got {self.defense!r}"
            )
        if self.device_read_noise is not None and self.device_read_noise < 0:
            raise ValueError("device_read_noise must be None or >= 0")
        if self.measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")
        if self.probe_adc_bits is not None and (
            not isinstance(self.probe_adc_bits, (int, np.integer))
            or isinstance(self.probe_adc_bits, bool)
            or self.probe_adc_bits < 1
        ):
            raise ValueError(
                f"probe_adc_bits must be None or a positive int, "
                f"got {self.probe_adc_bits!r}"
            )
        if self.defense_strength < 0:
            raise ValueError("defense_strength must be >= 0")
        if self.sharding is not None and not isinstance(self.sharding, ShardingSpec):
            spec, wire_overrides = _coerce_scenario_sharding(self.sharding)
            object.__setattr__(self, "sharding", spec)
            if wire_overrides:
                # Wire physics rides along with the dict form of the
                # geometry; fold it into the nonideality config (which
                # re-validates the values).
                object.__setattr__(
                    self,
                    "nonidealities",
                    replace(self.nonidealities, **wire_overrides),
                )
        if self.service is not None and not isinstance(self.service, ServiceConfig):
            raise TypeError(
                f"service must be a ServiceConfig or None, "
                f"got {type(self.service).__name__}"
            )

    # ------------------------------------------------------------- utilities

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """Return a copy with selected fields replaced (re-validated)."""
        return replace(self, **kwargs)

    @property
    def configuration(self) -> Tuple[str, str]:
        """The (dataset, activation) pair, as used by the paper's tables."""
        return (self.dataset, self.activation)

    @property
    def is_paper_ideal(self) -> bool:
        """True when the hardware/defence stack matches the paper's ideal setup."""
        return (
            self.device == "ideal"
            and self.device_read_noise is None
            and self.mapping_scheme == MappingScheme.MIN_POWER.value
            and self.dac_bits is None
            and self.adc_bits is None
            and self.nonidealities.is_ideal
            and self.measurement_noise == 0.0
            and self.probe_adc_bits is None
            and self.defense is None
            and (self.sharding is None or self.sharding.is_trivial)
            and self.service is None
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (for result metadata)."""
        payload: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, NonidealityConfig):
                value = {f.name: getattr(value, f.name) for f in fields(value)}
            elif isinstance(value, (ShardingSpec, ServiceConfig)):
                value = value.to_dict()
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (nested configs are reconstructed).

        Unknown keys are rejected (same contract as
        :meth:`ServiceConfig.from_dict`): a typo'd knob in a serialised
        scenario must fail loudly, not be silently dropped.
        """
        check_known_fields(payload, cls)
        kwargs = dict(payload)
        nonidealities = kwargs.get("nonidealities")
        if isinstance(nonidealities, dict):
            kwargs["nonidealities"] = NonidealityConfig(**nonidealities)
        # Dict-form sharding (including wire-physics knobs) is coerced by
        # ``__post_init__`` itself, so serialised payloads and literal specs
        # go through one validation path.
        service = kwargs.get("service")
        if isinstance(service, dict):
            kwargs["service"] = ServiceConfig.from_dict(service)
        return cls(**kwargs)

    # -------------------------------------------------------------- builders

    def victim_key(self, scale: ExperimentScale, seed: int) -> Tuple:
        """Everything the victim :meth:`build_victim` trains depends on.

        Hardware, instrument and service knobs are absent, and so is the
        inference-time ``"power-noise"`` defence (it only wraps the
        accelerator): scenarios that differ only in those share one trained
        victim.
        """
        trained = self.defense in _TRAINING_DEFENSES
        return (
            self.dataset,
            self.activation,
            self.defense if trained else None,
            self.defense_strength if trained else 0.0,
            scale.n_train,
            scale.n_test,
            scale.train_epochs,
            seed,
        )

    def build_victim(self, dataset, scale: ExperimentScale, *, random_state: int):
        """Train the victim model this scenario prescribes.

        Returns a :class:`~repro.experiments.runner.TrainedModel`.  Training-
        time defences are applied here; hardware knobs only affect
        :meth:`build_accelerator`.  When ``dataset`` is the thread's
        memoised :func:`~repro.experiments.runner.prepare_dataset` result,
        the last victim with the same :meth:`victim_key` is served instead
        of retrained; its weights are read-only.
        """
        from repro.experiments.runner import memoised_victim

        seeded = isinstance(random_state, numbers.Integral)
        return memoised_victim(
            self.victim_key(scale, int(random_state)) if seeded else None,
            dataset,
            lambda: self._train_victim(dataset, scale, random_state=random_state),
        )

    def _train_victim(self, dataset, scale: ExperimentScale, *, random_state: int):
        from repro.experiments.runner import prepare_model

        regularizer = None
        if self.defense == "norm-regularizer":
            regularizer = ColumnNormRegularizer(self.defense_strength)
        model = prepare_model(
            dataset,
            self.activation,
            scale,
            regularizer=regularizer,
            random_state=random_state,
        )
        if self.defense == "rebalance":
            rebalance_column_norms(model.network, blend=min(self.defense_strength, 1.0))
        return model

    def build_accelerator(self, network, *, random_state: int):
        """Map a trained network onto the crossbar hardware this scenario describes.

        Returns the attack target: a :class:`CrossbarAccelerator`, wrapped in a
        :class:`PowerNoiseDefense` when the inference-time defence is enabled.
        The paper-ideal scenario passes all-``None`` component arguments so the
        accelerator construction is byte-identical to the legacy pipelines.
        """
        device = _DEVICES[self.device]
        if self.device_read_noise is not None:
            device = replace(device, read_noise=self.device_read_noise)
        mapping = None
        if (
            self.device != "ideal"
            or self.device_read_noise is not None
            or self.mapping_scheme != MappingScheme.MIN_POWER.value
        ):
            mapping = ConductanceMapping(
                device=device, scheme=MappingScheme(self.mapping_scheme)
            )
        nonidealities = None if self.nonidealities.is_ideal else self.nonidealities
        dac = DAC(self.dac_bits) if self.dac_bits is not None else None
        adc = ADC(self.adc_bits) if self.adc_bits is not None else None
        accelerator = CrossbarAccelerator(
            network,
            mapping=mapping,
            nonidealities=nonidealities,
            dac=dac,
            adc=adc,
            sharding=self.sharding,
            random_state=random_state,
        )
        if self.defense == "power-noise":
            return PowerNoiseDefense(
                accelerator,
                dummy_current_scale=self.defense_strength,
                random_state=np.random.default_rng([int(random_state) & 0xFFFFFFFF, 0xD3F]),
            )
        return accelerator

    def build_oracle(
        self,
        target,
        *,
        random_state: int,
        output_mode: str = "raw",
        expose_power: bool = True,
        expose_per_tile_power: bool = False,
    ):
        """The attacker's query interface to ``target``.

        An :class:`~repro.attacks.oracle.Oracle` with this scenario's
        instrument noise, for every scenario: :attr:`service` does not
        change it.
        """
        from repro.attacks.oracle import Oracle

        kwargs: Dict[str, object] = {}
        if self.measurement_noise > 0.0:
            kwargs["power_noise_std"] = self.measurement_noise
            kwargs["random_state"] = np.random.default_rng(
                [int(random_state) & 0xFFFFFFFF, 0x0AC]
            )
        return Oracle(
            target,
            output_mode=output_mode,
            expose_power=expose_power,
            expose_per_tile_power=expose_per_tile_power,
            **kwargs,
        )

    def build_prober(self, target, n_features: int, *, random_state: int) -> ColumnNormProber:
        """The attacker's probing stack against ``target``.

        A :class:`~repro.sidechannel.probing.ColumnNormProber` over an
        :class:`~repro.attacks.oracle.Oracle` with this scenario's
        instrument noise (seeded apart from :meth:`build_oracle`'s stream)
        and acquisition ADC.  The paper-ideal scenario builds
        ``Oracle(target)`` with default arguments.
        """
        from repro.attacks.oracle import Oracle

        kwargs: Dict[str, object] = {}
        if self.measurement_noise > 0.0:
            kwargs["power_noise_std"] = self.measurement_noise
            kwargs["random_state"] = np.random.default_rng(
                [int(random_state) & 0xFFFFFFFF, 0xA7C]
            )
        return ColumnNormProber(
            Oracle(target, **kwargs),
            n_features,
            quantization_bits=self.probe_adc_bits,
        )


def _paper_scenario(dataset: str, activation: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"paper/{dataset.split('-')[0]}-{activation}",
        dataset=dataset,
        activation=activation,
        description=f"Paper configuration: ideal crossbar, {dataset}, {activation} output",
    )


#: The paper's four (dataset, activation) cells as scenario presets, in the
#: order the tables report them.
PAPER_SCENARIOS: Tuple[ScenarioSpec, ...] = tuple(
    _paper_scenario(dataset, activation) for dataset, activation in PAPER_CONFIGURATIONS
)


#: All named scenario presets, keyed by :attr:`ScenarioSpec.name`.
SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec for spec in PAPER_SCENARIOS}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a named scenario preset (duplicate names are rejected)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


register_scenario(
    ScenarioSpec(
        name="noisy-device",
        dataset="mnist-like",
        activation="softmax",
        device="reram",
        description="ReRAM device with programming/read noise on an MNIST softmax victim",
    )
)
register_scenario(
    ScenarioSpec(
        name="quantized-adc",
        dataset="mnist-like",
        activation="softmax",
        dac_bits=8,
        adc_bits=6,
        description="8-bit DAC / 6-bit ADC converters between the digital and analogue domains",
    )
)
register_scenario(
    ScenarioSpec(
        name="norm-balanced-defense",
        dataset="mnist-like",
        activation="softmax",
        defense="norm-regularizer",
        defense_strength=0.05,
        description="Victim trained with the column-norm variance penalty (training-time defence)",
    )
)
register_scenario(
    ScenarioSpec(
        name="high-read-noise",
        dataset="mnist-like",
        activation="softmax",
        nonidealities=NonidealityConfig(current_measurement_noise=0.10),
        measurement_noise=0.05,
        description="10% current-measurement noise on the rail plus 5% attacker instrument noise",
    )
)
register_scenario(
    ScenarioSpec(
        name="power-noise-defense",
        dataset="mnist-like",
        activation="softmax",
        defense="power-noise",
        defense_strength=0.5,
        description="Randomised dummy current draw at inference time (inference-time defence)",
    )
)
register_scenario(
    ScenarioSpec(
        name="wired-crossbar",
        dataset="mnist-like",
        activation="softmax",
        nonidealities=NonidealityConfig(wire_resistance_ohm=WIRED_CROSSBAR_OHM),
        measurement_noise=WIRED_CROSSBAR_PROBE_NOISE,
        description=(
            "Finite row/column wire resistance (2-D IR drop) plus attacker "
            "instrument noise — the base of the security-vs-geometry sweep"
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="balanced-mapping",
        dataset="mnist-like",
        activation="softmax",
        mapping_scheme="balanced",
        description="Balanced conductance mapping (hardware-level defence against the side channel)",
    )
)
# Multi-tile placement presets: same victim and ideal hardware as the paper
# configuration, with each layer sharded across a grid of physical tiles so
# Table 1 / Figure 5 style experiments can sweep tile geometry.  The grid
# shapes live in config.SHARD_PRESET_GEOMETRIES.
for _name, (_rows, _cols, _reduction) in SHARD_PRESET_GEOMETRIES.items():
    register_scenario(
        ScenarioSpec(
            name=_name,
            dataset="mnist-like",
            activation="softmax",
            sharding=ShardingSpec(
                row_shards=_rows, col_shards=_cols, reduction=_reduction
            ),
            description=(
                f"Layers sharded across a {_rows}x{_cols} physical tile grid "
                f"({_reduction} partial-sum reduction)"
            ),
        )
    )


# Service-fronted presets: the same physics as their base preset, with
# attacker queries driven through the async coalescing query service.  The
# batching policies live in config.SERVICE_PRESET_CONFIGS.
for _name, (_base, _max_batch, _max_wait_ms) in SERVICE_PRESET_CONFIGS.items():
    _base_spec = SCENARIOS[_base]
    register_scenario(
        _base_spec.with_overrides(
            name=_name,
            service=ServiceConfig(max_batch=_max_batch, max_wait_ms=_max_wait_ms),
            description=(
                f"{_base_spec.description or _base} with queries coalesced by "
                f"the async service (max_batch={_max_batch}, "
                f"max_wait_ms={_max_wait_ms:g})"
            ),
        )
    )


# Multi-tenant co-residency presets: the paper's MNIST softmax victim served
# through the coalescing service under each tick-placement / isolation
# policy.  These are what the cross-tenant-attack experiment compares; the
# policy data lives in config.TENANT_PRESET_CONFIGS.
for _name, (_placement, _max_batch, _noise_budget, _geometry) in (
    TENANT_PRESET_CONFIGS.items()
):
    _base_spec = SCENARIOS["paper/mnist-softmax"]
    register_scenario(
        _base_spec.with_overrides(
            name=_name,
            service=ServiceConfig(
                max_batch=_max_batch,
                # A generous hold keeps one drain round spanning a whole
                # two-tenant burst; dispatch-early still fires the moment
                # the offered load is fully coalesced, so idle latency is
                # unaffected.
                max_wait_ms=20.0,
                placement=_placement,
                noise_budget=_noise_budget,
            ),
            sharding=(
                None
                if _geometry is None
                else ShardingSpec(
                    row_shards=_geometry[0],
                    col_shards=_geometry[1],
                    reduction=_geometry[2],
                )
            ),
            description=(
                f"Multi-tenant coalescing with {_placement!r} tick placement"
                + (f", noise budget {_noise_budget:g}" if _noise_budget else "")
                + (
                    f", layers sharded {_geometry[0]}x{_geometry[1]} into "
                    "per-tenant tile banks"
                    if _geometry is not None
                    else ""
                )
            ),
        )
    )


def get_scenario(name) -> ScenarioSpec:
    """Look up a scenario preset by name (instances pass through)."""
    if isinstance(name, ScenarioSpec):
        return name
    key = str(name)
    if key not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {list_scenarios()}")
    return SCENARIOS[key]


def list_scenarios() -> List[str]:
    """Names of all registered scenario presets (paper presets first)."""
    paper = [spec.name for spec in PAPER_SCENARIOS]
    extra = sorted(name for name in SCENARIOS if name not in paper)
    return paper + extra


def resolve_scenarios(scenarios=None) -> Tuple[ScenarioSpec, ...]:
    """Normalise a scenario selection to a tuple of :class:`ScenarioSpec`.

    ``None`` selects the four paper configurations; otherwise each entry may
    be a preset name or a :class:`ScenarioSpec` instance.
    """
    if scenarios is None:
        return PAPER_SCENARIOS
    if isinstance(scenarios, (str, ScenarioSpec)):
        scenarios = [scenarios]
    return tuple(get_scenario(entry) for entry in scenarios)
