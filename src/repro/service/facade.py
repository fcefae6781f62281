"""The synchronous facade over the async coalescing query service.

Existing attacks and experiments are plain synchronous code built against
``Oracle.query``.  :class:`BatchingOracle` gives them the coalescing service
without any async plumbing: it owns a private event-loop thread running a
:class:`~repro.service.coalescer.QueryService`, and its blocking ``query``
submits into that loop.  Calls from *multiple* threads coalesce into shared
fused traversals; a single-threaded caller pays at most ``max_wait_ms`` extra
latency per query and still gets bit-identical results (per-request seed
derivation does not depend on coalescing).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

import numpy as np

from repro.service.config import ServiceConfig
from repro.service.coalescer import QueryService, ServiceStats
from repro.service.errors import ServiceClosedError


class LoopRuntime:
    """A daemon thread running one event loop with one started service.

    ``service`` is anything with ``start()`` / ``stop()`` coroutines — a
    :class:`QueryService` here, a
    :class:`~repro.netservice.server.NetworkQueryService` behind
    :class:`~repro.netservice.server.ServerHandle`.  :meth:`call` runs a
    coroutine on the loop and blocks for its result.
    """

    def __init__(self, service, name: str):
        self.loop = asyncio.new_event_loop()
        self.service = service
        self._closed = False
        self._close_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()
        self.call(service.start())

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the service, then the loop and its thread (idempotent)."""
        # Race-safe: the first caller drains and tears down, every later
        # (or concurrent) caller returns once teardown is done.
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            if not self._thread.is_alive():
                return
            self.call(self.service.stop())
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join()
            self.loop.close()


class BatchingOracle:
    """Drop-in synchronous :class:`~repro.attacks.oracle.Oracle` front-end.

    Exposes the oracle surface existing attacks consume (``query``,
    ``queries_used``, ``n_outputs``, ``output_mode``, ``predict_labels``,
    ``accuracy``) while routing every ``query`` through the coalescing
    service, so concurrent attacker threads share fused traversals.
    Responses are bit-identical to ``oracle.query(inputs,
    seeds=service.seeds_for(request_id, len(inputs)))`` for hardware targets.
    """

    def __init__(self, oracle, config: Optional[ServiceConfig] = None):
        self.oracle = oracle
        self.config = config if config is not None else ServiceConfig()
        self._runtime = LoopRuntime(
            QueryService(oracle, self.config), name="repro-query-service"
        )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called; queries then raise
        :class:`~repro.service.errors.ServiceClosedError`."""
        return self._runtime.closed

    @property
    def service(self) -> QueryService:
        """The underlying (already started) coalescing service."""
        return self._runtime.service

    @property
    def stats(self) -> ServiceStats:
        """Coalescing counters of the underlying service."""
        return self._runtime.service.stats

    def close(self) -> None:
        """Stop the service and its event-loop thread (idempotent)."""
        self._runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def query(self, inputs: np.ndarray):
        """Submit one request and block for its coalesced response."""
        if self._runtime.closed:
            raise ServiceClosedError(
                "this facade has been closed; build a new BatchingOracle to "
                "submit further queries"
            )
        return self._runtime.call(self.service.submit(inputs))

    # -------------------------------------------------- oracle passthroughs

    @property
    def queries_used(self) -> int:
        return self.oracle.queries_used

    @property
    def queries_remaining(self):
        return self.oracle.queries_remaining

    def reset_counter(self) -> None:
        self.oracle.reset_counter()

    @property
    def n_outputs(self) -> int:
        return self.oracle.n_outputs

    @property
    def output_mode(self) -> str:
        return self.oracle.output_mode

    def predict_labels(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluation helper; not routed through the service, not counted."""
        return self.oracle.predict_labels(inputs)

    def accuracy(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Evaluation helper; not routed through the service, not counted."""
        return self.oracle.accuracy(inputs, targets)
