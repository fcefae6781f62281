"""The asyncio coalescing query service.

:class:`QueryService` sits in front of an :class:`~repro.attacks.oracle.Oracle`
and turns many small concurrent :meth:`~QueryService.submit` calls into few
large fused traversals: pending requests are coalesced per *tick* (up to
``max_batch`` rows, holding the first request at most ``max_wait_ms`` for
company), dispatched as **one** ``Oracle.query`` call, and the per-request
slices of the fused :class:`~repro.attacks.oracle.OracleResponse` are
scattered back to the awaiting futures.

Correctness rests on per-request derived RNG streams: every submitted request
receives a sequence number, from which one ``uint64`` seed per input row is
derived (the values of :func:`~repro.utils.rng.derive_request_seeds`, kept as
Python ints per request and assembled into one array per tick) and passed
down the measurement path as ``seeds``.  Each row's noise — conductance read
noise, defence draws, the oracle's power-measurement noise — is then a pure
function of the row's seed, so a response is **bit-identical** whether the
request ran alone, coalesced with strangers, or bypassed the service entirely
via ``oracle.query(inputs, seeds=service.seeds_for(request_id, n_rows))``.

Error semantics are those of a shared bus: if the fused traversal fails (bad
input width, an exhausted query budget), the whole tick fails and every
coalesced request receives the exception; nothing is charged against the
budget (the oracle charges only after a successful traversal).

Multi-tenant placement: requests may carry a *tenant* identity
(:meth:`QueryService.submit_traced`), and the
:attr:`~repro.service.config.ServiceConfig.placement` policy decides whether
rows from different tenants may share a fused traversal.  Each dispatched
tick also appends a :class:`TickTrace` to :attr:`QueryService.tick_trace` —
the *physical* rail observable (total supply current of the whole fused
batch, optionally jammed by the ``noise_budget`` dummy draw) that a
co-resident attacker probing the shared power rail would record.  The ledger
keeps the newest :data:`TICK_LEDGER_TICKS` ticks.  It is a side channel by
construction: it never feeds back into any response, so tenant-facing
results stay bit-identical under every policy.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.config import ServiceConfig
from repro.service.errors import ServiceClosedError
from repro.utils.results import compact_repr
from repro.utils.rng import (
    derive_request_seeds,
    mix_base_seed,
    request_row_seeds,
    sample_stream,
)

#: Stream-path domain tag for the rail ledger's dummy-draw (noise-budget)
#: defence.  Distinct from the oracle (2) and defence (4) domains, so the
#: ledger noise never collides with any response-path draw.
_RAIL_DOMAIN = 7

#: Ticks :attr:`QueryService.tick_trace` keeps, newest last.  A long-lived
#: server dispatches ticks without end; the largest in-process co-residency
#: round (cross-tenant at paper scale on a CIFAR scenario) dispatches about
#: 3,100, well inside the bound.
TICK_LEDGER_TICKS = 8192


@dataclass
class ServiceStats:
    """Coalescing effectiveness counters, updated per dispatched tick.

    ``n_dropped_requests`` counts submitted requests whose future was
    already resolved when their tick dispatched (client timeout or
    cancellation): their rows never reach the oracle, so without the
    counter a cancelled batch-mate would silently skew every
    fairness/coalescing assertion built on these stats.
    """

    n_requests: int = 0
    n_rows: int = 0
    n_ticks: int = 0
    n_failed_ticks: int = 0
    n_dropped_requests: int = 0
    max_tick_rows: int = 0

    @property
    def mean_tick_rows(self) -> float:
        """Average fused-batch size (rows per traversal)."""
        return self.n_rows / self.n_ticks if self.n_ticks else 0.0

    @property
    def coalescing_factor(self) -> float:
        """Requests amortised per traversal (1.0 = no coalescing happened)."""
        return self.n_requests / self.n_ticks if self.n_ticks else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "n_ticks": self.n_ticks,
            "n_failed_ticks": self.n_failed_ticks,
            "n_dropped_requests": self.n_dropped_requests,
            "max_tick_rows": self.max_tick_rows,
            "mean_tick_rows": self.mean_tick_rows,
            "coalescing_factor": self.coalescing_factor,
        }


@dataclass(frozen=True, repr=False)
class TickTrace:
    """The physical rail observable of one dispatched tick.

    What a co-resident attacker with a probe on the supply rail records
    while the fused traversal runs: the tick's identity, which tenants'
    rows it carried (and how many), and the aggregate currents.  The trace
    is *not* part of any response — it models the analogue side channel the
    coalescing service creates when strangers share a traversal.

    Attributes
    ----------
    tick_id:
        1-based tick index (the same value ``on_dispatch`` observers see).
    tenants:
        Tenant names with rows in this tick, in batch order (anonymous
        submissions appear as ``None``).
    tenant_rows:
        Rows contributed per tenant, keyed like :attr:`tenants`.
    rows:
        Total fused rows.
    rail_power:
        Tick total supply current — the sum of every batch-mate's per-row
        total current, plus the ``noise_budget`` dummy draw when the
        isolation defence is armed.  ``None`` when the oracle exposes no
        power observable.
    per_tile_power:
        ``(n_tiles,)`` summed per-rail currents over the tick's rows (plus
        per-rail dummy draws), when the oracle exposes per-tile power.
    tile_labels:
        Physical tile labels for :attr:`per_tile_power` columns.
    bank:
        Physical tile bank the tick ran on.  ``None`` = the shared bank
        (every co-resident tenant's probe sees the tick); a tenant name
        under ``tile-isolated`` placement, where each tenant's ticks run on
        its own bank with an electrically disjoint supply rail.
    """

    tick_id: int
    tenants: Tuple[Optional[str], ...]
    tenant_rows: Dict[Optional[str], int]
    rows: int
    rail_power: Optional[float]
    per_tile_power: Optional[np.ndarray] = None
    tile_labels: Optional[Tuple[str, ...]] = None
    bank: Optional[str] = None

    __repr__ = compact_repr

    def visible_to(self, tenant: Optional[str]) -> bool:
        """Whether ``tenant``'s physical probe can observe this tick's rail."""
        return self.bank is None or self.bank == tenant


@dataclass(repr=False)
class _Pending:
    """One submitted request waiting for its tick."""

    inputs: np.ndarray
    #: One seed per row: Python ints from the service, or any sequence of
    #: ``uint64`` values; :meth:`QueryService._dispatch` builds the tick's
    #: seed array from them.
    seeds: Sequence[int]
    future: asyncio.Future
    #: Optional observer called with the (1-based) tick index the request was
    #: served in — the hook the networked front-end uses for per-tenant
    #: coalescing statistics.  Called only on a successful dispatch.
    on_dispatch: Optional[Any] = None
    #: Tenant identity used by the placement policy and the rail ledger
    #: (``None`` = anonymous in-process submitter).
    tenant: Optional[str] = None

    def __repr__(self) -> str:
        # Deliberately compact: asyncio renders pending items into task/
        # future reprs on shutdown, and stringifying request arrays there
        # is pure overhead.
        return f"_Pending(rows={len(self.inputs)})"


class QueryService:
    """Coalesces concurrent attacker queries into fused oracle traversals.

    Parameters
    ----------
    oracle:
        The served :class:`~repro.attacks.oracle.Oracle` (anything with its
        ``query(inputs, *, seeds=)`` method).
    config:
        The :class:`~repro.service.config.ServiceConfig` batching policy.

    Usage::

        async with QueryService(oracle) as service:
            responses = await asyncio.gather(
                *(service.submit(x) for x in request_inputs)
            )

    Every ``submit`` resolves to exactly the response the same inputs would
    have produced alone — see the module docstring for why.
    """

    def __init__(self, oracle, config: Optional[ServiceConfig] = None):
        if not hasattr(oracle, "query"):
            raise TypeError(
                f"cannot serve {type(oracle).__name__}: expected an Oracle-like "
                "target (.query)"
            )
        self.oracle = oracle
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        #: Per-tick physical rail observables (:class:`TickTrace`), in
        #: dispatch order — what a co-resident attacker's rail probe records.
        #: Bounded: the oldest tick is evicted past :data:`TICK_LEDGER_TICKS`.
        self.tick_trace: Deque[TickTrace] = deque(maxlen=TICK_LEDGER_TICKS)
        self._queue: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None
        self._request_counter = 0
        #: Enqueues inside ``Queue.put`` (blocked on backpressure or about
        #: to return); :meth:`stop` waits for them before cancelling.
        self._n_putting = 0
        self._stopping = False
        self._base_mix = mix_base_seed(self.config.base_seed)

    # ------------------------------------------------------------ lifecycle

    @property
    def started(self) -> bool:
        """Whether the dispatch worker is running."""
        return self._worker is not None and not self._worker.done()

    async def start(self) -> "QueryService":
        """Spawn the dispatch worker on the running event loop (idempotent)."""
        if not self.started:
            self._queue = asyncio.Queue(maxsize=self.config.max_pending)
            self._worker = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Serve every queued request, then cancel the worker.

        While ``stop`` runs, :meth:`enqueue` raises
        :class:`~repro.service.errors.ServiceClosedError` (before taking a
        sequence number).  ``stop`` waits until the queue is empty and no
        enqueue is blocked on backpressure, then cancels the worker; the
        cancelled round dispatches the groups it holds.  Every request
        queued before ``stop`` is therefore served in ordinary ticks, and
        none is stranded.  A later submit starts a fresh worker.

        ``stop`` also completes when called from a task that caught its own
        cancellation (the ``serve`` CLI's Ctrl-C path); only a cancellation
        of ``stop`` itself interrupts it.
        """
        if self._worker is None:
            return
        self._stopping = True
        try:
            while (self._n_putting or not self._queue.empty()) and not self._worker.done():
                await asyncio.sleep(0)
            self._worker.cancel()
            # wait() does not re-raise the worker's CancelledError, so it
            # cannot be mistaken for a cancellation of the caller.
            await asyncio.wait({self._worker})
            if not self._worker.cancelled():
                self._worker.result()  # surface a crashed worker
            self._worker = None
        finally:
            self._stopping = False

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------- requests

    def seeds_for(self, request_id: int, n_rows: int) -> np.ndarray:
        """The per-row noise seeds request ``request_id`` is served with.

        Exposed so the synchronous reference path —
        ``oracle.query(inputs, seeds=service.seeds_for(i, len(inputs)))`` —
        can reproduce any serviced response bit-for-bit.
        """
        return derive_request_seeds(self.config.base_seed, request_id, n_rows)

    async def submit(self, inputs: np.ndarray):
        """Enqueue one request and await its slice of a fused traversal.

        Returns the request's :class:`~repro.attacks.oracle.OracleResponse`
        slice of its tick.  Applies backpressure (awaits) while ``max_pending`` requests are
        already queued.
        """
        _, response = await self.submit_traced(inputs)
        return response

    async def enqueue(
        self, inputs: np.ndarray, *, on_dispatch=None, tenant: Optional[str] = None
    ) -> Tuple[int, asyncio.Future]:
        """Queue one request; return ``(request_id, future)`` once it is queued.

        The one enqueue path behind :meth:`submit` and :meth:`submit_traced`.
        It awaits only the ``max_pending`` backpressure, never the response,
        so a single coroutine can queue many requests and await their
        futures afterwards without a task per request.  The future resolves
        to the request's slice of its tick (or that tick's exception).
        ``on_dispatch`` and ``tenant`` are as for :meth:`submit_traced`.
        Raises :class:`~repro.service.errors.ServiceClosedError` while
        :meth:`stop` runs, and :class:`ValueError` for an empty request or
        one with a NaN or infinite value.
        """
        if self._stopping:
            raise ServiceClosedError("the service is stopping")
        if not self.started:
            await self.start()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if len(inputs) == 0:
            raise ValueError("cannot submit an empty request")
        # Rejected alone, before a sequence number is taken: fused into a
        # tick, a non-finite row would poison every batch-mate's rail power.
        # ``x . x`` is finite exactly when every entry is, unless finite
        # entries overflow it; only then is each entry checked.
        if not math.isfinite(np.vdot(inputs, inputs)) and not np.isfinite(inputs).all():
            raise ValueError("inputs contains NaN or infinite values")
        request_id = self._request_counter
        self._request_counter += 1
        seeds = request_row_seeds(self._base_mix, request_id, len(inputs))
        future = asyncio.get_running_loop().create_future()
        self._n_putting += 1
        try:
            await self._queue.put(_Pending(inputs, seeds, future, on_dispatch, tenant))
        finally:
            self._n_putting -= 1
        return request_id, future

    async def submit_traced(
        self, inputs: np.ndarray, *, on_dispatch=None, tenant: Optional[str] = None
    ):
        """Like :meth:`submit`, returning ``(request_id, response)``.

        The sequence number is what the response's noise seeds were derived
        from (:meth:`seeds_for`), so a caller that needs to *replay* the
        request later — e.g. the networked front-end, whose clients verify
        wire responses against direct seeded queries — must observe it.
        ``on_dispatch``, when given, is called with the 1-based index of the
        tick that served the request (successful dispatches only).
        ``tenant`` names the submitting tenant for the placement policy and
        the rail ledger; it never affects the response itself (seeds depend
        only on the sequence number, so tenancy preserves bit-identity).
        """
        request_id, future = await self.enqueue(
            inputs, on_dispatch=on_dispatch, tenant=tenant
        )
        return request_id, await future

    # ------------------------------------------------------------- dispatch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._round(loop)

    async def _round(self, loop) -> None:
        """One coalescing round; the same loop serves every placement.

        Requests join groups: one group under ``shared`` placement, one per
        tenant under ``partitioned`` / ``tile-isolated``.  A group dispatches
        as its own tick as soon as its rows reach ``max_batch``, while the
        other groups keep coalescing, so a tenant flooding the service peels
        off its own full ticks instead of forcing another tenant's rows out
        in small ones.  The queue is drained greedily; when it runs dry the
        round gives the scheduler one pass so every ready submitter can
        enqueue.  The round ends when (a) that pass brings nothing new (the
        offered load is fully coalesced), (b) the queue runs dry after
        ``max_wait_ms`` (trickling arrivals, e.g. cross-thread submitters),
        or (c) a fill leaves no group open.  Open groups then dispatch
        under-full, in first-arrival order — also when the round is
        cancelled, so :meth:`stop` never strands a held-open tick.
        """
        max_batch = self.config.max_batch
        by_tenant = self.config.placement != "shared"
        groups: Dict[Optional[str], List[_Pending]] = {}
        group_rows: Dict[Optional[str], int] = {}
        pending = await self._queue.get()
        deadline = loop.time() + self.config.max_wait_ms / 1000.0
        try:
            while True:
                key = pending.tenant if by_tenant else None
                rows = group_rows.get(key, 0) + len(pending.inputs)
                if rows >= max_batch:
                    tick = groups.pop(key, [])
                    group_rows.pop(key, None)
                    tick.append(pending)
                    self._dispatch(tick)
                    if not groups:
                        return
                else:
                    groups.setdefault(key, []).append(pending)
                    group_rows[key] = rows
                while True:
                    try:
                        pending = self._queue.get_nowait()
                        break
                    except asyncio.QueueEmpty:
                        if loop.time() >= deadline:
                            return
                        await asyncio.sleep(0)
                        if self._queue.empty():
                            return
        finally:
            for tick in groups.values():
                self._dispatch(tick)

    def _dispatch(self, tick: List[_Pending]) -> None:
        """One fused traversal for the tick; scatter slices to the futures."""
        live = []
        for pending in tick:
            if pending.future.done():
                # Client timeout/cancel raced the dispatch: the rows never
                # reach the oracle, and the drop must be visible in the
                # stats (a cancelled batch-mate would otherwise silently
                # skew fairness and coalescing metrics).
                self.stats.n_dropped_requests += 1
            else:
                live.append(pending)
        if not live:
            return
        try:
            # Batch assembly is part of the failure envelope: a request with
            # mismatched width must fail its tick, not kill the worker.
            inputs = np.concatenate([pending.inputs for pending in live])
            seeds = np.fromiter(
                chain.from_iterable(pending.seeds for pending in live),
                dtype=np.uint64,
                count=len(inputs),
            )
            fused = self.oracle.query(inputs, seeds=seeds)
        except Exception as exc:  # shared-bus semantics: the tick fails whole
            self.stats.n_failed_ticks += 1
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        self.stats.n_ticks += 1
        self.stats.n_requests += len(live)
        self.stats.n_rows += len(inputs)
        self.stats.max_tick_rows = max(self.stats.max_tick_rows, len(inputs))
        self._record_tick(live, fused, len(inputs))
        # Imported here, not at module level: importing the service must not
        # load the crossbar engine.
        from repro.attacks.oracle import OracleResponse

        power, per_tile_power = fused.power, fused.per_tile_power
        offset = 0
        for pending in live:
            end = offset + len(pending.inputs)
            if not pending.future.done():
                pending.future.set_result(
                    OracleResponse(
                        queries=fused.queries[offset:end],
                        outputs=fused.outputs[offset:end],
                        labels=fused.labels[offset:end],
                        power=None if power is None else power[offset:end],
                        output_mode=fused.output_mode,
                        per_tile_power=(
                            None
                            if per_tile_power is None
                            else per_tile_power[offset:end]
                        ),
                        # Each caller owns its response, metadata included.
                        metadata=dict(fused.metadata),
                    )
                )
            if pending.on_dispatch is not None:
                pending.on_dispatch(self.stats.n_ticks)
            offset = end

    def _record_tick(self, live: List[_Pending], fused, rows: int) -> None:
        """Append the tick's physical rail observable to :attr:`tick_trace`.

        The rail power is the *sum over every batch-mate's rows* — the
        analogue supply current of the whole fused traversal, which is what
        a probe on the shared rail integrates — optionally jammed by the
        ``noise_budget`` dummy draw.  The draw is keyed on the tick's first
        row seed under a dedicated stream domain, so ledgers replay
        bit-identically without perturbing any response-path noise.
        """
        tenants: List[Optional[str]] = []
        tenant_rows: Dict[Optional[str], int] = {}
        for pending in live:
            if pending.tenant not in tenant_rows:
                tenants.append(pending.tenant)
                tenant_rows[pending.tenant] = 0
            tenant_rows[pending.tenant] += len(pending.inputs)
        rail_power = None if fused.power is None else float(np.sum(fused.power))
        per_tile_power = (
            None
            if fused.per_tile_power is None
            else np.sum(fused.per_tile_power, axis=0)
        )
        labels = fused.metadata.get("tile_labels")
        if self.config.noise_budget > 0.0:
            stream = sample_stream(int(live[0].seeds[0]), _RAIL_DOMAIN, 0)
            if rail_power is not None:
                rail_power += self.config.noise_budget * float(stream.normal())
            if per_tile_power is not None:
                per_tile_power = per_tile_power + self.config.noise_budget * (
                    stream.normal(size=per_tile_power.shape)
                )
        bank = None
        if self.config.placement == "tile-isolated" and len(tenants) == 1:
            bank = tenants[0]
        self.tick_trace.append(
            TickTrace(
                tick_id=self.stats.n_ticks,
                tenants=tuple(tenants),
                tenant_rows=tenant_rows,
                rows=rows,
                rail_power=rail_power,
                per_tile_power=per_tile_power,
                tile_labels=None if labels is None else tuple(labels),
                bank=bank,
            )
        )

    @property
    def queries_used(self) -> int:
        """Queries charged by the served oracle so far."""
        return self.oracle.queries_used
