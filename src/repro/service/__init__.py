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
  Synchronous callers reach it over
  :func:`~repro.netservice.server.serve_in_thread` and
  :class:`~repro.netservice.client.NetClient`.
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

__all__ = [
    "PLACEMENT_POLICIES",
    "QueryService",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceStats",
    "TickTrace",
]
