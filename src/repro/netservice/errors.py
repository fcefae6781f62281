"""Error taxonomy of the networked query service.

Every failure a :class:`~repro.netservice.client.NetClient` can surface is
classified as **retryable** (a transient transport condition: reconnect,
back off, resend the same idempotency key) or **terminal** (retrying the
identical request can never succeed).  The client's retry loop keys off the
``retryable`` class attribute, so new error types slot into the policy
without touching the loop.

Retryable
    :class:`ConnectionLostError`, :class:`RequestTimeoutError`,
    :class:`ServiceUnavailableError` (the server answered, but is draining
    for shutdown/restart).

Terminal
    :class:`ProtocolError` (malformed/oversized frames — a software bug or a
    version mismatch), :class:`RemoteServiceError` (the server-side traversal
    raised; carries the remote exception type),
    :class:`~repro.attacks.oracle.QueryBudgetExceeded` (the tenant's
    query budget is spent — re-raised as the same type a direct
    :class:`~repro.attacks.oracle.Oracle` raises, so attack code handles
    both identically), and
    :class:`~repro.service.errors.ServiceClosedError` (the *local* handle
    was closed — shared with the in-process
    :class:`~repro.service.coalescer.QueryService`).
"""

from __future__ import annotations

from repro.service.errors import ServiceClosedError  # noqa: F401  (re-export)
from repro.attacks.oracle import QueryBudgetExceeded  # noqa: F401  (re-export)


class NetServiceError(Exception):
    """Base class of all networked-service errors.

    ``retryable`` states whether resending the same request (same
    idempotency key) over a fresh connection can succeed.
    """

    retryable = False


class ProtocolError(NetServiceError):
    """A malformed, unexpected, or oversized frame. Terminal."""


class RemoteServiceError(NetServiceError):
    """The server-side traversal failed; carries the remote exception type.

    Terminal: the same request replays into the same deterministic failure
    (bad input width, an incompatible observable, ...).
    """

    def __init__(self, message: str, *, remote_type: str = "Exception"):
        super().__init__(message)
        self.remote_type = remote_type


class ConnectionLostError(NetServiceError, ConnectionError):
    """The transport dropped before a response arrived. Retryable."""

    retryable = True


class RequestTimeoutError(NetServiceError, TimeoutError):
    """No response within the configured request timeout. Retryable."""

    retryable = True


class ServiceUnavailableError(NetServiceError):
    """The server is draining for shutdown/restart. Retryable.

    The request was *not* charged; a retry against the restarted server (or
    a replica) is safe and is what the client's backoff loop does.
    """

    retryable = True
