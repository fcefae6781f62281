"""The networked multi-tenant front-end over the coalescing query service.

:class:`NetworkQueryService` listens on TCP and feeds request frames from
many independent client processes into one in-process
:class:`~repro.service.coalescer.QueryService`, so every connected tenant
shares the same simulated accelerator — and the same fused traversals.

The pipeline, per query frame::

    read_frame -> admission (tenant lookup, idempotency dedup)
               -> per-tenant FIFO queue
               -> weighted-fair scheduler (budget charge)
               -> QueryService.enqueue  (coalesced into shared ticks)
               -> tick done-callback (stats, idempotency cache, refund)
                  writes the response frame (request_id + base_seed for
                  bit-exact replay) to every frame waiting on the query

Admission and the callback are synchronous: a query holds no task and no
future of its own between its frame and its tick, only the coalescer's
future.  Hello, ping and stats frames, and retries of served keys, are
answered inline.

Design points, each carrying one acceptance criterion:

* **Bit-identity over the wire** — the embedded ``QueryService`` derives
  per-request seeds exactly as in-process; responses carry the assigned
  ``request_id`` and the service ``base_seed``, so any client (or test) can
  replay ``oracle.query(inputs, seeds=derive_request_seeds(base_seed,
  request_id, n_rows))`` and compare bit for bit.
* **Fairness** — a virtual-time weighted-fair scheduler dequeues across
  per-tenant FIFOs: tenant ``t``'s virtual time advances by
  ``rows / weight_t`` per dispatched request and the scheduler always picks
  the smallest virtual time, so under saturation rows served converge to
  the weight ratio (``scheduler_window=1`` makes the order strict, which is
  what the fairness tests pin down).
* **Budgets + idempotency** — per-tenant ``query_budget`` is charged at
  dispatch and refunded on failure; completed responses are cached per
  idempotency key, so a client retry after a lost response is answered from
  cache and never charged twice.
* **Backpressure** — at most ``max_inflight_per_connection`` pipelined
  frames are admitted per connection, and a connection whose replies pile
  up unread (its transport above the write high-water mark) is not read
  again until they drain; either way the server simply stops reading the
  socket and the kernel buffers push back to the client.
* **Graceful drain** — ``stop()`` stops accepting, fails every queued
  request with a typed ``service-closed`` error (never a hang), lets
  in-flight ticks finish, and only then closes transports.
"""

from __future__ import annotations

import asyncio
import math
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.netservice.config import NetServiceConfig, TenantConfig
from repro.netservice.errors import (
    ProtocolError,
    QueryBudgetExceeded,
    ServiceClosedError,
    ServiceUnavailableError,
)
from repro.netservice.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)
from repro.service.coalescer import QueryService

#: Tenant name used when a request frame does not carry one.
DEFAULT_TENANT = "default"

#: Completed responses remembered per tenant for idempotent retries.
_IDEMPOTENCY_CACHE_SIZE = 1024


@dataclass
class TenantServiceStats:
    """Per-tenant service counters (the cross-tenant experiment's hook).

    ``coalescing_factor`` is the tenant's requests amortised per *distinct*
    fused tick the tenant participated in — batch-mates from other tenants
    shared those traversals, which is exactly the co-residency the
    cross-tenant leakage study needs to measure.
    """

    tenant: str
    weight: float
    query_budget: Optional[int] = None
    n_received: int = 0
    n_requests: int = 0
    n_deduped: int = 0
    rows_served: int = 0
    rows_charged: int = 0
    n_ticks: int = 0
    #: 1-based id of the last tick counted (0: none yet).
    last_tick_id: int = 0

    def record_tick(self, tick_id: int) -> None:
        """Count a fused tick the tenant joined (its ``on_dispatch`` hook).

        Called once per dispatched request; ticks dispatch in increasing
        id order, so a repeat of the last id is a batch-mate of the same
        tick and counts once.
        """
        if tick_id != self.last_tick_id:
            self.last_tick_id = tick_id
            self.n_ticks += 1

    @property
    def coalescing_factor(self) -> float:
        """Requests amortised per distinct fused tick the tenant joined.

        Only *dispatched* requests count: idempotency dedup hits
        (``n_deduped``) are answered from cache or an in-flight future and
        never join a tick, so including them would inflate the factor
        exactly when clients retry.  A tenant that has received requests
        but has no successful tick yet (every dispatch failed, or all are
        still queued) reports ``nan`` — "no traversal to amortise over" —
        rather than a misleading ``0.0``; a ``stats`` wire response carries
        it as ``null``.
        """
        if self.n_ticks:
            return self.n_requests / self.n_ticks
        if self.n_received:
            return float("nan")
        return 0.0

    @property
    def budget_remaining(self) -> Optional[int]:
        if self.query_budget is None:
            return None
        return max(0, self.query_budget - self.rows_charged)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "weight": self.weight,
            "query_budget": self.query_budget,
            "n_received": self.n_received,
            "n_requests": self.n_requests,
            "n_deduped": self.n_deduped,
            "rows_served": self.rows_served,
            "rows_charged": self.rows_charged,
            "n_ticks": self.n_ticks,
            "coalescing_factor": self.coalescing_factor,
            "budget_remaining": self.budget_remaining,
        }


@dataclass(repr=False, slots=True)
class _QueuedRequest:
    """One admitted query, from its frame until its reply is written."""

    key: str
    inputs: np.ndarray
    rows: int
    #: ``(connection, request header)`` of every frame the query's reply
    #: answers: the admitting frame, then each retry of its key that
    #: arrived while it was in flight.
    waiters: list

    def __repr__(self) -> str:  # keep shutdown repr cheap, as in _Pending
        return f"_QueuedRequest(key={self.key!r}, rows={self.rows})"


class _TenantState:
    """Scheduler-side state of one tenant."""

    def __init__(self, policy: TenantConfig):
        self.policy = policy
        self.stats = TenantServiceStats(
            tenant=policy.name,
            weight=policy.weight,
            query_budget=policy.query_budget,
        )
        self.queue: deque = deque()
        self.vtime = 0.0
        #: idempotency key -> completed (header, arrays) response
        self.completed: "OrderedDict[str, Tuple[dict, dict]]" = OrderedDict()
        #: idempotency key -> the in-flight request
        self.inflight: Dict[str, _QueuedRequest] = {}

    def remember(self, key: str, response: Tuple[dict, dict]) -> None:
        self.completed[key] = response
        while len(self.completed) > _IDEMPOTENCY_CACHE_SIZE:
            self.completed.popitem(last=False)


class _Connection:
    """Per-connection plumbing: one writer, bounded pipelining.

    Replies are written whole by callbacks on the loop thread, so frames
    never interleave; ``inflight`` counts the frames awaiting a reply.
    """

    def __init__(self, writer: asyncio.StreamWriter, max_inflight: int):
        self.writer = writer
        self.inflight = asyncio.Semaphore(max_inflight)


def _draining() -> ServiceUnavailableError:
    """The typed error of a query the drain turned away uncharged."""
    return ServiceUnavailableError(
        "server is draining for shutdown; the request was not charged — "
        "retry against the restarted service"
    )


def _json_safe_metadata(metadata: dict) -> dict:
    """The JSON-encodable subset of an OracleResponse's metadata."""
    safe: Dict[str, Any] = {}
    for key, value in metadata.items():
        if isinstance(value, tuple):
            value = list(value)
        if isinstance(value, (str, int, float, bool, list, type(None))):
            safe[key] = value
    return safe


def _finite_or_null(counters: dict) -> dict:
    """Wire form of a stats dict: frames carry no NaN, so an undefined
    ratio (``coalescing_factor`` before a tenant's first tick) is null."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in counters.items()
    }


class NetworkQueryService:
    """TCP front-end serving one oracle to many client processes.

    Parameters
    ----------
    oracle:
        The served :class:`~repro.attacks.oracle.Oracle`.  Its target's
        ``n_inputs`` is the row width the server admits: a query of another
        row width or shape fails alone at dispatch instead of failing the
        tick it shares.
    config:
        The :class:`~repro.netservice.config.NetServiceConfig` policy.

    Usage::

        async with NetworkQueryService(oracle, config) as server:
            print("serving on", server.address)
            await server.wait_stopped()   # or do other work

    Synchronous callers (tests, benchmarks, the CLI demo) should use
    :func:`serve_in_thread` instead.
    """

    def __init__(self, oracle, config: Optional[NetServiceConfig] = None):
        self.config = config if config is not None else NetServiceConfig()
        self.service = QueryService(oracle, self.config.service)
        #: Row width the served target accepts.
        self._n_inputs = int(oracle.target.n_inputs)
        self._tenants: Dict[str, _TenantState] = {}
        for tenant in self.config.tenants:
            self._tenants[tenant.name] = _TenantState(tenant)
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._work = asyncio.Event()
        self._sched_gate = asyncio.Event()
        self._sched_gate.set()
        self._window: Optional[asyncio.Semaphore] = None
        self._vclock = 0.0
        self._closing = False
        self._started = False
        self._connections: Set[_Connection] = set()
        #: Query frames whose reply is not yet written; ``_answered`` is set
        #: whenever this is zero (what :meth:`stop` waits for).
        self._unanswered = 0
        self._answered = asyncio.Event()
        self._answered.set()
        self._stopped_event = asyncio.Event()
        #: Recent (tenant, rows) dispatch order — what the fairness tests
        #: and the demo inspect.
        self.dispatch_log: deque = deque(maxlen=4096)
        #: Fault-injection hook: abort the connection instead of writing the
        #: next N successful query responses (simulates a response lost to a
        #: network failure *after* the work was done — the idempotent-retry
        #: path's worst case).
        self.drop_next_responses = 0

    # ------------------------------------------------------------ lifecycle

    @property
    def started(self) -> bool:
        return self._started

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> "NetworkQueryService":
        """Bind the listen socket and start the scheduler (idempotent)."""
        if self._started:
            return self
        self._closing = False
        self._stopped_event.clear()
        await self.service.start()
        self._window = asyncio.Semaphore(self.config.scheduler_window)
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started = True
        return self

    async def stop(self) -> None:
        """Graceful drain: typed errors for queued work, never a hang."""
        if not self._started:
            return
        self._closing = True
        self._server.close()
        # Scheduler first, so nothing new enters the coalescer mid-drain.
        self._scheduler_task.cancel()
        try:
            await self._scheduler_task
        except asyncio.CancelledError:
            pass
        # Everything still queued gets the typed drain error.
        for state in self._tenants.values():
            while state.queue:
                request = state.queue.popleft()
                state.inflight.pop(request.key, None)
                self._reply(request, error=_draining())
        # In-flight ticks finish (the coalescer never strands a tick) and
        # their done-callbacks settle the dispatched queries ...
        await self.service.stop()
        # ... and every admitted query's reply (drain errors included) is
        # written before the transports close.
        await self._answered.wait()
        # Transports close *before* wait_closed(): on 3.12+ wait_closed()
        # blocks until every connection handler returns, and the handlers
        # are blocked in read_frame() until their transport dies.
        for conn in list(self._connections):
            conn.writer.close()
        await self._server.wait_closed()
        self._started = False
        self._stopped_event.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes (for serve-forever callers)."""
        await self._stopped_event.wait()

    async def __aenter__(self) -> "NetworkQueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------- tenancy + stats

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(self.config.tenant_policy(name))
            # Late joiners start at the current virtual clock so an idle
            # tenant cannot bank unbounded credit against active ones.
            state.vtime = self._vclock
            self._tenants[name] = state
        return state

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant counters, keyed by tenant name."""
        return {
            name: state.stats.to_dict() for name, state in self._tenants.items()
        }

    def pause_scheduling(self) -> None:
        """Hold the scheduler (admitted requests queue up; used by tests)."""
        self._sched_gate.clear()

    def resume_scheduling(self) -> None:
        self._sched_gate.set()

    # ------------------------------------------------------------ scheduler

    def _next_tenant(self) -> Optional[_TenantState]:
        backlogged = [
            state for state in self._tenants.values() if state.queue
        ]
        if not backlogged:
            return None
        return min(backlogged, key=lambda state: (state.vtime, state.policy.name))

    async def _scheduler(self) -> None:
        while True:
            await self._work.wait()
            await self._sched_gate.wait()
            # Window bound: limits how far dispatch runs ahead of completion
            # (window=1 degenerates to strict weighted-fair order).  Acquired
            # *before* any request is popped: if stop() cancels the scheduler
            # while it blocks here, every request is still in its tenant
            # queue and gets the typed drain error — nothing is stranded.
            # The tenant is picked after the wait, once per query.
            await self._window.acquire()
            state = self._next_tenant()
            if state is None:  # no backlog (or drained while waiting)
                self._window.release()
                self._work.clear()
                continue
            request = state.queue.popleft()
            self._vclock = max(self._vclock, state.vtime)
            state.vtime += request.rows / state.policy.weight
            self.dispatch_log.append((state.policy.name, request.rows))
            charged = False
            try:
                self._check_dispatch(state, request)
                state.stats.rows_charged += request.rows
                charged = True
                # Awaits only the coalescer's max_pending backpressure.  The
                # tenant identity rides into the coalescer with the request,
                # so the tick-placement policy and the rail ledger see *who*
                # submitted every row — not just that some row arrived.
                request_id, future = await self.service.enqueue(
                    request.inputs,
                    on_dispatch=state.stats.record_tick,
                    tenant=state.policy.name,
                )
            except asyncio.CancelledError:
                # stop() cancelled us before the request was queued.
                self._settle(state, request, error=_draining(), refund=charged)
                raise
            except Exception as exc:
                self._settle(state, request, error=exc, refund=charged)
                continue
            future.add_done_callback(
                partial(self._complete, state, request, request_id)
            )

    def _check_dispatch(self, state: _TenantState, request: _QueuedRequest) -> None:
        """Raise for a query that must fail alone, before it is charged."""
        if self._closing:
            raise _draining()
        shape = request.inputs.shape
        if request.inputs.ndim != 2 or shape[1] != self._n_inputs:
            # Fails here, alone: fused into a tick, the mismatch would fail
            # every other tenant's batch-mates with it.
            raise ValueError(
                f"expected (rows, {self._n_inputs}) inputs, got shape {shape}"
            )
        budget = state.policy.query_budget
        if budget is not None and state.stats.rows_charged + request.rows > budget:
            raise QueryBudgetExceeded(
                f"tenant {state.policy.name!r}: request of {request.rows} "
                f"rows would exceed the query budget of {budget} "
                f"(already charged {state.stats.rows_charged})"
            )

    def _complete(
        self,
        state: _TenantState,
        request: _QueuedRequest,
        request_id: int,
        future: asyncio.Future,
    ) -> None:
        """Done-callback of a dispatched query's coalescer future."""
        try:
            response = self._encode_result(request_id, future.result())
        except Exception as exc:
            self._settle(state, request, error=exc, refund=True)
            return
        state.stats.n_requests += 1
        state.stats.rows_served += request.rows
        state.remember(request.key, response)
        self._settle(state, request, response=response)

    def _settle(
        self,
        state: _TenantState,
        request: _QueuedRequest,
        *,
        response: Optional[Tuple[dict, dict]] = None,
        error: Optional[BaseException] = None,
        refund: bool = False,
    ) -> None:
        """Answer a popped query and give its dispatch window slot back."""
        if refund:
            # Failed work charges nothing (shared-bus semantics end to end).
            state.stats.rows_charged -= request.rows
        state.inflight.pop(request.key, None)
        self._window.release()
        self._reply(request, response=response, error=error)

    def _reply(
        self,
        request: _QueuedRequest,
        *,
        response: Optional[Tuple[dict, dict]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Write a settled query's reply to every frame waiting on it."""
        for conn, frame in request.waiters:
            self._answer(conn, frame, response=response, error=error)
        self._unanswered -= len(request.waiters)
        if not self._unanswered:
            self._answered.set()

    # ------------------------------------------------------------- requests

    def _encode_result(self, request_id: int, result) -> Tuple[dict, dict]:
        header: Dict[str, Any] = {
            "type": "response",
            "status": "ok",
            "request_id": int(request_id),
            "base_seed": int(self.config.service.base_seed),
            "output_mode": result.output_mode,
            "metadata": _json_safe_metadata(result.metadata),
        }
        arrays: Dict[str, np.ndarray] = {
            "outputs": result.outputs,
            "labels": np.asarray(result.labels, dtype=np.int64),
        }
        if result.power is not None:
            arrays["power"] = result.power
        if result.per_tile_power is not None:
            arrays["per_tile_power"] = result.per_tile_power
        return header, arrays

    def _admit_query(
        self, conn: _Connection, header: dict, arrays: dict
    ) -> Optional[Tuple[dict, dict]]:
        """Admit one query frame from ``conn``.

        Raises for a frame that is refused outright.  A retry of a served
        key returns the response from the idempotency cache, to answer
        inline.  Otherwise returns ``None``: the frame is answered when its
        query settles, and a retry of an in-flight key waits on that query.
        """
        if self._closing:
            raise ServiceUnavailableError(
                "server is draining for shutdown; retry against the "
                "restarted service"
            )
        tenant_name = header.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant_name, str) or not tenant_name:
            raise ProtocolError(f"invalid tenant {tenant_name!r}")
        key = header.get("key")
        if not isinstance(key, str) or not key:
            raise ProtocolError(
                "query frames must carry a string idempotency 'key'"
            )
        inputs = arrays.get("inputs")
        if inputs is None:
            raise ProtocolError("query frames must carry an 'inputs' array")
        # Converted once: QueryService.enqueue passes a 2-D float array
        # through unchanged.
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim < 2:
            inputs = inputs.reshape(1, -1)
        if inputs.size == 0:
            raise ProtocolError("cannot serve an empty query")

        state = self._tenant(tenant_name)
        cached = state.completed.get(key)
        if cached is not None:
            # A retried request the server already served: answer from the
            # idempotency cache — the tenant is never charged twice.
            state.stats.n_deduped += 1
            return cached
        self._unanswered += 1
        self._answered.clear()
        request = state.inflight.get(key)
        if request is not None:
            state.stats.n_deduped += 1  # answered with the in-flight original
            request.waiters.append((conn, header))
            return None
        state.stats.n_received += 1
        request = _QueuedRequest(key, inputs, len(inputs), [(conn, header)])
        state.inflight[key] = request
        state.queue.append(request)
        self._work.set()
        return None

    def _hello_header(self) -> dict:
        return {
            "type": "response",
            "status": "ok",
            "server": "repro.netservice",
            "protocol": PROTOCOL_VERSION,
            "base_seed": int(self.config.service.base_seed),
            "output_mode": self.service.oracle.output_mode,
            "n_outputs": int(self.service.oracle.n_outputs),
        }

    @staticmethod
    def _error_header(exc: BaseException) -> dict:
        if isinstance(exc, QueryBudgetExceeded):
            code = "budget-exceeded"
        elif isinstance(exc, (ServiceUnavailableError, ServiceClosedError)):
            code = "service-closed"
        elif isinstance(exc, ProtocolError):
            code = "protocol"
        else:
            code = "remote-error"
        return {
            "type": "response",
            "status": "error",
            "code": code,
            "error_type": type(exc).__name__,
            "message": str(exc),
        }

    # ---------------------------------------------------------- connections

    def _write(self, conn: _Connection, request: dict, header: dict, arrays=None) -> None:
        """Write one reply frame to ``request``'s connection (never blocks)."""
        if "cid" in request:
            header["cid"] = request["cid"]
        try:
            frame = encode_frame(header, arrays)
        except Exception as exc:
            # A response we cannot serialise (non-wire dtype, JSON-hostile
            # metadata): the client must still get *an* answer, or it burns
            # its whole retry budget re-hitting the same cached response.
            fallback = self._error_header(exc)
            fallback["code"] = "remote-error"
            if "cid" in header:
                fallback["cid"] = header["cid"]
            frame = encode_frame(fallback, None)
        if not conn.writer.transport.is_closing():
            conn.writer.write(frame)  # a vanished client's retry re-asks

    def _serve(self, conn: _Connection, header: dict, arrays: dict) -> None:
        """Answer one frame inline, or admit a query to answer on settling."""
        request_type = header.get("type")
        try:
            if request_type == "query":
                cached = self._admit_query(conn, header, arrays)
                if cached is not None:
                    self._answer(conn, header, response=cached)
                return
            if request_type == "hello":
                response_header = self._hello_header()
            elif request_type == "ping":
                response_header = {"type": "response", "status": "ok"}
            elif request_type == "stats":
                response_header = {
                    "type": "response",
                    "status": "ok",
                    "tenants": {
                        name: _finite_or_null(counters)
                        for name, counters in self.stats().items()
                    },
                    "service": self.service.stats.to_dict(),
                }
            else:
                raise ProtocolError(f"unknown request type {request_type!r}")
        except Exception as exc:
            response_header = self._error_header(exc)
        self._write(conn, header, response_header)
        conn.inflight.release()

    def _answer(
        self,
        conn: _Connection,
        request: dict,
        *,
        response: Optional[Tuple[dict, dict]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Write one query frame's reply: its response, or its error."""
        if error is None:
            header, arrays = response
            # cached responses are shared: never mutate them in place
            header = dict(header)
        else:
            header, arrays = self._error_header(error), None
        if self.drop_next_responses > 0 and header["status"] == "ok":
            # Fault injection: the work happened, the response is lost.
            self.drop_next_responses -= 1
            conn.writer.transport.abort()
        else:
            self._write(conn, request, header, arrays)
        conn.inflight.release()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, self.config.max_inflight_per_connection)
        self._connections.add(conn)
        try:
            while True:
                try:
                    header, arrays = await read_frame(
                        reader, max_frame_bytes=self.config.max_frame_bytes
                    )
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # client went away (or we are closing transports)
                except ProtocolError as exc:
                    # A corrupted stream cannot be resynchronised: report
                    # once, then drop the connection.
                    self._write(conn, {}, self._error_header(exc))
                    break
                # Backpressure: stop reading while the pipeline is full ...
                await conn.inflight.acquire()
                self._serve(conn, header, arrays)
                # ... or while replies sit unread above the high-water mark.
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# --------------------------------------------------------------- sync shim


class ServerHandle:
    """A running :class:`NetworkQueryService` on a private event-loop thread.

    The synchronous front end for tests, benchmarks and the CLI demo:
    ``address`` is connectable immediately, ``close()`` drains gracefully
    (idempotent and thread-safe).  All interaction with the server object
    hops through its loop, so cross-thread use is safe.
    """

    def __init__(self, oracle, config: Optional[NetServiceConfig] = None):
        self.loop = asyncio.new_event_loop()
        self.server = NetworkQueryService(oracle, config)
        self._closed = False
        self._close_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="repro-netservice", daemon=True
        )
        self._thread.start()
        self.call(self.server.start())

    def call(self, coro):
        """Run ``coro`` on the server's loop and block for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stats(self) -> Dict[str, Dict[str, Any]]:
        async def snapshot():
            return self.server.stats()

        return self.call(snapshot())

    def service_stats(self) -> Dict[str, Any]:
        async def snapshot():
            return self.server.service.stats.to_dict()

        return self.call(snapshot())

    def pause_scheduling(self) -> None:
        self.loop.call_soon_threadsafe(self.server.pause_scheduling)

    def resume_scheduling(self) -> None:
        self.loop.call_soon_threadsafe(self.server.resume_scheduling)

    def drop_responses(self, n: int) -> None:
        """Arm the lost-response fault injection for the next ``n`` queries."""

        def arm():
            self.server.drop_next_responses += n

        self.loop.call_soon_threadsafe(arm)

    def close(self) -> None:
        """Drain and stop the server, then its loop and thread (idempotent)."""
        # Race-safe: the first caller drains and tears down, every later
        # (or concurrent) caller returns once teardown is done.
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            if not self._thread.is_alive():
                return
            self.call(self.server.stop())
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join()
            self.loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_in_thread(
    oracle, config: Optional[NetServiceConfig] = None
) -> ServerHandle:
    """Start a :class:`NetworkQueryService` on a background thread."""
    return ServerHandle(oracle, config)
