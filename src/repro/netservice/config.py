"""Configuration of the networked multi-tenant query service.

:class:`NetServiceConfig` is a frozen, picklable, JSON-round-trippable value
object in the house style of
:class:`~repro.experiments.scenario.ScenarioSpec` /
:class:`~repro.service.config.ServiceConfig`; it nests the latter as the
coalescing policy of the embedded
:class:`~repro.service.coalescer.QueryService` and adds the network-layer
knobs: tenancy (weights, per-tenant query budgets), per-connection
backpressure, frame-size ceilings, and the client's retry/backoff policy —
one object configures both sides of the wire, so presets stay coherent.

``from_dict`` is strict: unknown keys raise, matching ``ScenarioSpec``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.config import ServiceConfig
from repro.utils.validation import (
    check_known_fields,
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's scheduling weight and query budget.

    Attributes
    ----------
    name:
        Tenant identifier carried on every request frame.
    weight:
        Weighted-fair-scheduling share: under saturating load from several
        tenants, rows served per tenant converge to the ratio of the
        weights.  Must be > 0.
    query_budget:
        Optional cap on total *rows* this tenant may be served (the
        network-layer analogue of ``Oracle(query_budget=...)``).  Requests
        that would exceed it fail with a ``budget-exceeded`` error and
        charge nothing; ``None`` = unbounded.
    """

    name: str
    weight: float = 1.0
    query_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"tenant name must be a non-empty string, got {self.name!r}")
        check_positive(self.weight, "weight")
        if self.query_budget is not None:
            check_positive_int(self.query_budget, "query_budget")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TenantConfig":
        check_known_fields(payload, cls)
        return cls(**dict(payload))


@dataclass(frozen=True)
class NetServiceConfig:
    """Policy of one :class:`~repro.netservice.server.NetworkQueryService`.

    Attributes
    ----------
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (the started
        server reports the real one).
    service:
        Coalescing policy of the embedded in-process
        :class:`~repro.service.coalescer.QueryService` (max_batch,
        max_wait_ms, backpressure bound, seed-derivation base).
    tenants:
        Pre-declared :class:`TenantConfig` entries.  Tenants not listed are
        admitted on first contact with weight 1 and no query budget, so
        single-tenant setups need no tenancy boilerplate.
    max_inflight_per_connection:
        Per-connection backpressure bound: at most this many pipelined
        requests are admitted per TCP connection; further frames are simply
        not read until responses drain, so the kernel socket buffers (and
        ultimately the client) absorb the excess.
    scheduler_window:
        Maximum requests the weighted-fair scheduler keeps dispatched into
        the coalescer concurrently.  Large values maximise coalescing;
        ``1`` serialises dispatch into strict weighted-fair order (useful
        for fairness analysis and tests).
    max_frame_bytes:
        Ceiling on one frame's size in either direction.
    request_timeout_s:
        Client-side cap on waiting for one response before the attempt is
        considered lost (retryable).
    max_retries:
        Client-side retry budget for retryable errors, *per request*.
    backoff_base_s / backoff_max_s:
        Exponential-backoff schedule: attempt ``k`` sleeps
        ``min(backoff_max_s, backoff_base_s * 2**(k-1))`` scaled by uniform
        jitter in ``[0.5, 1.0]``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    tenants: Tuple[TenantConfig, ...] = ()
    max_inflight_per_connection: int = 32
    scheduler_window: int = 256
    max_frame_bytes: int = 64 * 1024 * 1024
    request_timeout_s: float = 30.0
    max_retries: int = 5
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        if not isinstance(self.port, int) or isinstance(self.port, bool) or not (
            0 <= self.port <= 65535
        ):
            raise ValueError(f"port must be an int in [0, 65535], got {self.port!r}")
        if not isinstance(self.service, ServiceConfig):
            raise TypeError(
                f"service must be a ServiceConfig, got {type(self.service).__name__}"
            )
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in {names}")
        for tenant in self.tenants:
            if not isinstance(tenant, TenantConfig):
                raise TypeError(
                    f"tenants entries must be TenantConfig, got {type(tenant).__name__}"
                )
        check_positive_int(self.max_inflight_per_connection, "max_inflight_per_connection")
        check_positive_int(self.scheduler_window, "scheduler_window")
        check_positive_int(self.max_frame_bytes, "max_frame_bytes")
        check_positive(self.request_timeout_s, "request_timeout_s")
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool):
            raise TypeError(f"max_retries must be an int, got {self.max_retries!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        check_non_negative(self.backoff_base_s, "backoff_base_s")
        check_non_negative(self.backoff_max_s, "backoff_max_s")

    # ------------------------------------------------------------- utilities

    def tenant_policy(self, name: str) -> TenantConfig:
        """The declared :class:`TenantConfig` for ``name``, or the default one
        (weight 1, no query budget)."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return TenantConfig(name=name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["service"] = self.service.to_dict()
        payload["tenants"] = [tenant.to_dict() for tenant in self.tenants]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NetServiceConfig":
        """Strict inverse of :meth:`to_dict`; unknown keys raise."""
        check_known_fields(payload, cls)
        kwargs = dict(payload)
        if isinstance(kwargs.get("service"), Mapping):
            kwargs["service"] = ServiceConfig.from_dict(kwargs["service"])
        if "tenants" in kwargs:
            kwargs["tenants"] = tuple(
                entry if isinstance(entry, TenantConfig) else TenantConfig.from_dict(entry)
                for entry in kwargs["tenants"]
            )
        return cls(**kwargs)


def get_netservice_preset(name: str) -> NetServiceConfig:
    """Build a named :class:`NetServiceConfig` preset.

    The preset data lives in
    :data:`repro.experiments.config.NETSERVICE_PRESET_CONFIGS` as plain
    tuples (configuration, not code), mirroring how the ``service-*`` /
    ``sharded-*`` scenario presets are shipped.
    """
    from repro.experiments.config import NETSERVICE_PRESET_CONFIGS

    if name not in NETSERVICE_PRESET_CONFIGS:
        raise KeyError(
            f"unknown netservice preset {name!r}; available: "
            f"{sorted(NETSERVICE_PRESET_CONFIGS)}"
        )
    max_batch, max_wait_ms, tenants = NETSERVICE_PRESET_CONFIGS[name]
    return NetServiceConfig(
        service=ServiceConfig(max_batch=max_batch, max_wait_ms=max_wait_ms),
        tenants=tuple(
            TenantConfig(name=tenant, weight=weight, query_budget=budget)
            for tenant, weight, budget in tenants
        ),
    )
