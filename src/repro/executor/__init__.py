"""Pluggable execution backends for experiment job grids.

Public surface::

    from repro.executor import (
        Executor, SerialExecutor, PoolExecutor, QueueExecutor,
        CancelToken, ExecutorEvent, resolve_executor,
    )

    result = experiment.run("bench", executor=QueueExecutor(n_workers=4))

See :mod:`repro.executor.base` for the API contract (ordered, bit-identical
results under every backend) and :mod:`repro.executor.queue` for the
distributed work-queue (leases, idempotency keys, heartbeats, resumable
JSONL journal).
"""

from repro.executor.base import (
    EXECUTOR_NAMES,
    CancelToken,
    Executor,
    ExecutorEvent,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.executor.chunking import Chunk, chunk_jobs, grid_fingerprint
from repro.executor.errors import (
    ExecutionCancelled,
    ExecutorError,
    JobFailedError,
    JournalMismatchError,
    QueueAuthError,
    QueueProtocolError,
    WorkerConnectionLost,
)
from repro.executor.journal import JournalWriter, read_journal
from repro.executor.queue import QueueExecutor

__all__ = [
    "EXECUTOR_NAMES",
    "CancelToken",
    "Chunk",
    "ExecutionCancelled",
    "Executor",
    "ExecutorError",
    "ExecutorEvent",
    "JobFailedError",
    "JournalMismatchError",
    "JournalWriter",
    "PoolExecutor",
    "QueueAuthError",
    "QueueExecutor",
    "QueueProtocolError",
    "SerialExecutor",
    "WorkerConnectionLost",
    "chunk_jobs",
    "grid_fingerprint",
    "read_journal",
    "resolve_executor",
]
