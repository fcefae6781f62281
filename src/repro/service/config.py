"""Configuration for the async coalescing query service.

:class:`ServiceConfig` is a frozen, picklable, JSON-round-trippable value
object — the same design as :class:`~repro.experiments.scenario.ScenarioSpec`
— so it can ride inside scenario presets and experiment jobs unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping

from repro.utils.validation import (
    check_known_fields,
    check_non_negative,
    check_positive_int,
)

#: Tick-placement policies understood by the coalescer.
#:
#: * ``"shared"`` — status quo: requests coalesce in arrival order,
#:   regardless of which tenant submitted them (batch-mates share rails).
#: * ``"partitioned"`` — never mix tenants in a tick: each dispatch round
#:   groups the drained requests by tenant and dispatches one tick per
#:   tenant, so a fused traversal only ever carries one tenant's rows.  The
#:   ``max_batch`` row budget applies per tenant group, so same-tenant rows
#:   still coalesce into full ticks under interleaved arrivals.
#: * ``"tile-isolated"`` — partitioned placement *plus* per-tenant tile
#:   banks: each single-tenant tick is attributed to the submitting
#:   tenant's physical tile bank, so its rail observables
#:   (:class:`~repro.service.coalescer.TickTrace`) are invisible to
#:   co-resident tenants on other banks.
PLACEMENT_POLICIES = ("shared", "partitioned", "tile-isolated")


@dataclass(frozen=True)
class ServiceConfig:
    """Batching policy of one :class:`~repro.service.coalescer.QueryService`.

    Attributes
    ----------
    max_batch:
        Row budget per fused traversal.  Each coalescing round collects
        requests into groups (one group under ``shared`` placement, one per
        tenant otherwise), and a group dispatches as its own tick as soon as
        its rows reach this count.  A single oversized request still runs as
        one fused call (it is never split).
    max_wait_ms:
        Upper bound on how long a round holds its first request open for
        company.  A round ends when a scheduler pass brings no new
        submissions (the offered load is fully coalesced), when the queue
        runs dry after this bound, or when a filled group leaves no group
        open; its open groups then dispatch under-full.  The bound is
        therefore only reached under genuinely trickling arrivals — e.g.
        cross-thread submitters.  ``0`` dispatches whatever is queued
        immediately (pure greedy coalescing).
    max_pending:
        Bound of the request queue; :meth:`QueryService.submit` applies
        backpressure (awaits) while the queue is full.
    base_seed:
        Root of the per-request noise-seed derivation
        (:func:`~repro.utils.rng.derive_request_seeds`).  Two services with
        the same ``base_seed`` assign identical seeds to identical request
        sequence numbers, which is what the service-vs-direct equivalence
        tests replay.
    placement:
        Tick-placement policy (:data:`PLACEMENT_POLICIES`): whether requests
        from different tenants may share a fused traversal.  Placement
        decides *which rows ride together* — never the physics — so every
        policy preserves the per-request bit-identity contract.
    noise_budget:
        Scale of the per-tick dummy current draw added to the **rail ledger**
        (:attr:`~repro.service.coalescer.QueryService.tick_trace`) — the
        noise-budget isolation defence.  The dummy draw jams what a
        co-resident attacker probing the shared supply rail can learn from a
        tick total; it is keyed on the tick's first row seed, so ledgers are
        reproducible, and it never touches the responses returned to
        tenants (bit-identity is unaffected).  ``0`` records the clean rail.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_pending: int = 256
    base_seed: int = 0
    placement: str = "shared"
    noise_budget: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch, "max_batch")
        check_non_negative(self.max_wait_ms, "max_wait_ms")
        check_positive_int(self.max_pending, "max_pending")
        if not isinstance(self.base_seed, int) or isinstance(self.base_seed, bool):
            raise ValueError(f"base_seed must be an int, got {self.base_seed!r}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}"
            )
        check_non_negative(self.noise_budget, "noise_budget")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceConfig":
        """Reconstruct a :class:`ServiceConfig` written by :meth:`to_dict`.

        Unknown keys are rejected rather than silently dropped — a typo'd
        field in a scenario preset or a hand-edited result file must fail
        loudly, matching :class:`~repro.experiments.scenario.ScenarioSpec`
        strictness.  Missing keys keep their defaults, so older payloads
        stay loadable.
        """
        check_known_fields(payload, cls)
        kwargs: Dict[str, Any] = {}
        if "max_batch" in payload:
            kwargs["max_batch"] = int(payload["max_batch"])
        if "max_wait_ms" in payload:
            kwargs["max_wait_ms"] = float(payload["max_wait_ms"])
        if "max_pending" in payload:
            kwargs["max_pending"] = int(payload["max_pending"])
        if "base_seed" in payload:
            kwargs["base_seed"] = int(payload["base_seed"])
        if "placement" in payload:
            kwargs["placement"] = str(payload["placement"])
        if "noise_budget" in payload:
            kwargs["noise_budget"] = float(payload["noise_budget"])
        return cls(**kwargs)
