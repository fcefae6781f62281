"""Synchronous client of the networked query service.

:class:`NetClient` is the synchronous front end of the coalescing service:
a plain blocking ``query`` call, one logical request per call, like
:meth:`~repro.attacks.oracle.Oracle.query`, while the server coalesces rows
from every connected client into shared fused traversals.  Threads of one
process that want coalesced queries each hold a client of one
:func:`~repro.netservice.server.serve_in_thread` server.

Fault tolerance is the client's whole job:

* every logical request carries a fresh **idempotency key**, generated once
  and reused verbatim across retries, so a retry after a lost response is
  answered from the server's cache and never double-charged;
* **retryable** failures (connection loss, timeouts, a draining server —
  see :mod:`repro.netservice.errors`) reconnect and resend under
  exponential backoff with jitter, up to ``config.max_retries`` times;
* **terminal** failures (:class:`QueryBudgetExceeded`, protocol or remote
  errors) raise immediately — retrying an identical request cannot help.

Responses embed the server-assigned ``request_id`` and the service
``base_seed`` in their metadata, so callers (and the bit-identity tests)
can replay any wire response against a direct seeded oracle query.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.netservice.config import NetServiceConfig
from repro.netservice.errors import (
    ConnectionLostError,
    NetServiceError,
    ProtocolError,
    QueryBudgetExceeded,
    RemoteServiceError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceUnavailableError,
)
from repro.netservice.protocol import read_frame_sync, send_frame_sync


def _error_from_header(header: Dict[str, Any]) -> NetServiceError:
    """Reconstruct the typed exception an error frame describes."""
    code = header.get("code", "remote-error")
    message = str(header.get("message", "remote error"))
    if code == "budget-exceeded":
        return QueryBudgetExceeded(message)
    if code == "service-closed":
        return ServiceUnavailableError(message)
    if code == "protocol":
        return ProtocolError(message)
    return RemoteServiceError(
        message, remote_type=str(header.get("error_type", "Exception"))
    )


class NetClient:
    """Blocking client for one :class:`~repro.netservice.server.NetworkQueryService`.

    Parameters
    ----------
    address:
        The server's ``(host, port)`` — e.g. ``ServerHandle.address``.
    tenant:
        Tenant identifier stamped on every request; scheduling weight and
        query budget are the server's per-tenant policy for this name.
    config:
        Client-side knobs (``request_timeout_s``, ``max_retries``,
        ``backoff_base_s`` / ``backoff_max_s``, ``max_frame_bytes``).
        Defaults match the server defaults.  The backoff jitter is seeded
        from the OS.

    Usage::

        with NetClient(server.address, tenant="alice") as client:
            response = client.query(queries)       # OracleResponse
    """

    def __init__(
        self,
        address: Tuple[str, int],
        tenant: str = "default",
        config: Optional[NetServiceConfig] = None,
    ):
        host, port = address
        self.address = (str(host), int(port))
        if not tenant or not isinstance(tenant, str):
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        self.tenant = tenant
        self.config = config if config is not None else NetServiceConfig()
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._closed = False
        self._hello: Optional[Dict[str, Any]] = None
        #: Retries that actually happened (observable in fault tests).
        self.n_retries = 0

    # ----------------------------------------------------------- connection

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                self.address, timeout=self.config.request_timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            try:
                send_frame_sync(sock, {"type": "hello"})
                header, _ = read_frame_sync(
                    sock, max_frame_bytes=self.config.max_frame_bytes
                )
            except Exception:
                self._drop_connection()
                raise
            if header.get("status") == "error":
                self._drop_connection()
                raise _error_from_header(header)
            self._hello = header
        return self._sock

    def _handshake(self) -> Dict[str, Any]:
        if self._hello is None:
            self._roundtrip({"type": "ping"})  # connects + hellos, with retry
        return dict(self._hello or {})

    # -------------------------------------------------------------- retries

    def _backoff_sleep(self, attempt: int) -> None:
        delay = min(
            self.config.backoff_max_s,
            self.config.backoff_base_s * (2 ** max(0, attempt - 1)),
        )
        time.sleep(delay * self._rng.uniform(0.5, 1.0))

    def _roundtrip(
        self,
        header: Dict[str, Any],
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Send one frame, return the response; retry retryable failures.

        The caller builds the header *once* (idempotency key included), so
        every resend is byte-identical and dedupable server-side.
        """
        if self._closed:
            raise ServiceClosedError(
                "this NetClient has been closed; build a new one to submit "
                "further queries"
            )
        attempt = 0
        while True:
            try:
                sock = self._ensure_connection()
                send_frame_sync(sock, header, arrays)
                response_header, response_arrays = read_frame_sync(
                    sock, max_frame_bytes=self.config.max_frame_bytes
                )
                if response_header.get("status") == "error":
                    # Retryable error frames join the backoff loop below.
                    raise _error_from_header(response_header)
                return response_header, response_arrays
            except socket.timeout as exc:
                self._drop_connection()
                failure: NetServiceError = RequestTimeoutError(
                    f"no response within {self.config.request_timeout_s}s "
                    f"from {self.address}: {exc}"
                )
            except NetServiceError as exc:
                if not exc.retryable:
                    raise
                self._drop_connection()
                failure = exc
            except (ConnectionError, OSError) as exc:
                self._drop_connection()
                failure = ConnectionLostError(
                    f"connection to {self.address} failed: {exc}"
                )
            attempt += 1
            if attempt > self.config.max_retries:
                raise failure
            self.n_retries += 1
            self._backoff_sleep(attempt)

    # -------------------------------------------------------------- queries

    def query(self, inputs: np.ndarray):
        """Submit one oracle request; blocks for its coalesced response.

        Returns an :class:`~repro.attacks.oracle.OracleResponse` whose
        ``metadata`` additionally carries the server-assigned
        ``request_id`` and the service ``base_seed`` (the replay handle).
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        # The idempotency key is generated once; every retry resends it.
        header, arrays = self._roundtrip(
            {"type": "query", "tenant": self.tenant, "key": uuid.uuid4().hex},
            {"inputs": inputs},
        )
        from repro.attacks.oracle import OracleResponse

        metadata = dict(header.get("metadata", {}))
        metadata["request_id"] = int(header["request_id"])
        metadata["base_seed"] = int(header["base_seed"])
        return OracleResponse(
            queries=inputs,
            outputs=arrays["outputs"],
            labels=arrays["labels"],
            power=arrays.get("power"),
            output_mode=str(header.get("output_mode", "raw")),
            per_tile_power=arrays.get("per_tile_power"),
            metadata=metadata,
        )

    # ------------------------------------------------------------ metadata

    @property
    def base_seed(self) -> int:
        """The server service's seed-derivation base (the replay handle)."""
        return int(self._handshake()["base_seed"])

    @property
    def output_mode(self) -> str:
        return str(self._handshake().get("output_mode", "raw"))

    @property
    def n_outputs(self) -> int:
        return int(self._handshake()["n_outputs"])

    def stats(self) -> Dict[str, Any]:
        """Server-side stats: per-tenant counters + service coalescing stats.

        A tenant's undefined ``coalescing_factor`` (no successful tick yet)
        reads as ``None``: frames carry no NaN.
        """
        header, _ = self._roundtrip({"type": "stats"})
        return {"tenants": header.get("tenants", {}), "service": header.get("service", {})}

    def ping(self) -> bool:
        header, _ = self._roundtrip({"type": "ping"})
        return header.get("status") == "ok"

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the connection (idempotent); later calls raise
        :class:`~repro.service.errors.ServiceClosedError`."""
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
