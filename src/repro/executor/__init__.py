"""Execution backends for experiment job grids, on one host.

Public surface::

    from repro.executor import (
        Executor, SerialExecutor, PoolExecutor, resolve_executor,
    )

    result = experiment.run("bench", executor=PoolExecutor(mode="process"))

See :mod:`repro.executor.base` for the API contract (ordered, bit-identical
results under every backend).
"""

from repro.executor.base import (
    EXECUTOR_NAMES,
    Executor,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
    "resolve_executor",
]
