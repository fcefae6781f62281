"""Async coalescing query service in front of the victim oracle.

The paper trades attack efficacy against query budget, and the engine
benchmarks show per-call overhead amortising strongly with batch size — so
serving many concurrent attacker queries efficiently means *coalescing* them
into fused traversals.  This package provides:

* :class:`~repro.service.coalescer.QueryService` — the asyncio request queue:
  concurrent ``submit(inputs)`` calls (each one ``enqueue`` step, then an
  await of the request's future) are coalesced per tick (``max_batch``
  rows / ``max_wait_ms`` hold time, bounded-queue backpressure) into one
  fused ``Oracle.query`` traversal, and per-request response slices are
  scattered back to the awaiting futures.  Every response carries the
  supply-current reading (``power``) the side-channel attacks use.
* :class:`~repro.service.facade.BatchingOracle` — a synchronous drop-in
  :class:`~repro.attacks.oracle.Oracle` front-end for existing attacks,
  running the service on a private event-loop thread.
* :class:`~repro.service.config.ServiceConfig` — the frozen batching policy,
  embeddable in :class:`~repro.experiments.scenario.ScenarioSpec` presets.

Coalescing is only correct because the measurement path is
batch-composition-invariant under per-request derived RNG streams: every
noise draw is keyed on a per-row seed derived from the request's sequence
number, so responses are bit-identical whether a request ran alone,
coalesced, or through the synchronous path (see
:meth:`QueryService.seeds_for`).
"""

from repro.service.config import PLACEMENT_POLICIES, ServiceConfig
from repro.service.coalescer import QueryService, ServiceStats, TickTrace
from repro.service.errors import ServiceClosedError
from repro.service.facade import BatchingOracle

__all__ = [
    "BatchingOracle",
    "PLACEMENT_POLICIES",
    "QueryService",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceStats",
    "TickTrace",
]
