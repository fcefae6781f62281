"""Typed errors shared by the in-process service and the networked front-end.

Kept in their own module so both :mod:`repro.service` (the in-process
coalescing service) and :mod:`repro.netservice` (the TCP front-end) can raise
the *same* exception types without importing each other's machinery.
"""

from __future__ import annotations


class ServiceClosedError(RuntimeError):
    """A request was issued against a service or client that has been closed.

    Raised by :class:`~repro.netservice.client.NetClient` when ``query`` is
    called after its ``close()``.  There it is a *terminal* error: the
    caller holds a dead handle, and no retry against the same handle can
    succeed.

    :meth:`~repro.service.coalescer.QueryService.enqueue` (and so ``submit``
    / ``submit_traced``) also raises it while
    :meth:`~repro.service.coalescer.QueryService.stop` runs, before the
    request takes a sequence number.  A :class:`QueryService` itself can be
    submitted to again once ``stop()`` has returned.
    """
