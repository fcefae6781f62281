"""Networked multi-tenant front-end over the coalescing query service.

One :class:`~repro.netservice.server.NetworkQueryService` puts a single
simulated accelerator behind TCP so many client *processes* — tenants —
share its fused traversals, with weighted-fair scheduling, per-tenant query
budgets, and bit-identical responses (each reply carries the seed-derivation
handle needed to replay it against a direct oracle query).
:class:`~repro.netservice.client.NetClient` is the blocking client with
idempotent retries.  Pure stdlib: asyncio streams server-side, blocking
sockets client-side, one length-prefixed JSON+binary frame layout
(:mod:`repro.netservice.protocol`) between them.

Run ``python -m repro.netservice demo`` for an end-to-end tour.
"""

from repro.netservice.client import NetClient
from repro.netservice.config import NetServiceConfig, TenantConfig, get_netservice_preset
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
from repro.netservice.server import (
    NetworkQueryService,
    ServerHandle,
    TenantServiceStats,
    serve_in_thread,
)

__all__ = [
    "ConnectionLostError",
    "NetClient",
    "NetServiceConfig",
    "NetServiceError",
    "NetworkQueryService",
    "ProtocolError",
    "QueryBudgetExceeded",
    "RemoteServiceError",
    "RequestTimeoutError",
    "ServerHandle",
    "ServiceClosedError",
    "ServiceUnavailableError",
    "TenantConfig",
    "TenantServiceStats",
    "get_netservice_preset",
    "serve_in_thread",
]
