"""The first-class :class:`Executor` API for experiment job grids.

Every experiment expands into an ordered list of frozen, seeded
:class:`~repro.experiments.base.Job` values; an :class:`Executor` is *how*
that list turns into the ordered list of
:class:`~repro.utils.results.RunResult`.  The correctness contract shared by
every implementation:

* **Order** — results come back in job order, regardless of completion order.
* **Bit-identity** — because every job is seeded up front and executed by the
  same picklable ``run_job`` callable, any executor produces results
  bit-identical to :class:`SerialExecutor`.

Two implementations ship, both on one host:

* :class:`SerialExecutor` — in-process loop (the debugging reference).
* :class:`PoolExecutor` — a :mod:`concurrent.futures` process or thread
  pool, submitting the grid in chunks.

Why there is no multi-host executor is recorded in
``docs/adr/0001-one-host-executor.md``.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple


class Executor(ABC):
    """Protocol every execution backend implements.

    ``submit_jobs`` is the single entry point: it receives the full ordered
    job grid and returns the ordered results.  ``run_job`` is the
    experiment's picklable per-job callable (:meth:`Experiment.run_job
    <repro.experiments.base.Experiment.run_job>`).
    """

    #: Short identifier used by CLIs and result metadata.
    name: str = ""

    @abstractmethod
    def submit_jobs(self, jobs: Sequence, *, run_job: Callable) -> List:
        """Execute every job and return the results in job order."""


class SerialExecutor(Executor):
    """In-process, single-threaded execution — the bit-identity reference."""

    name = "serial"

    def submit_jobs(self, jobs, *, run_job):
        from repro.experiments.base import _run_annotated

        return [_run_annotated(run_job, job) for job in jobs]


def _call_star(payload: Tuple[Callable, tuple]):
    """Top-level helper so worker invocations survive process-pool pickling."""
    fn, args = payload
    return fn(*args)


class PoolExecutor(Executor):
    """One host's :mod:`concurrent.futures` worker pool.

    Parameters
    ----------
    mode:
        ``"process"`` (default) uses a :class:`ProcessPoolExecutor`,
        ``"thread"`` a :class:`ThreadPoolExecutor`.  Serial execution is
        :class:`SerialExecutor`.
    max_workers:
        Worker-pool size, at least 1; ``None`` uses the CPU count.

    Every job is seeded up front and results are collected in submission
    order, so a pooled grid is bit-identical to the serial one.  Process
    mode falls back to serial execution (with a :class:`RuntimeWarning`)
    when the callable or a representative (first) argument tuple cannot be
    pickled — e.g. a ``run_job`` closing over local state.  The probe is
    O(1) in the grid size, so a heterogeneous ``args_list`` whose *later*
    entries are unpicklable surfaces as an error from the pool.

    Scheduling: process mode submits jobs in **chunks** — one contiguous
    block per worker — instead of one pickled round-trip per job.  Sweep
    jobs are short (tens of milliseconds) and numerous, so per-job IPC
    dominated the pool's wall clock (measured ~1.5x *slower* than serial for
    51 short jobs on a small machine); chunking amortises the pickling and
    queue traffic over ``len(jobs) / n_workers`` calls while preserving
    result order.  The pool is also never wider than the job list.
    """

    MODES = ("process", "thread")

    def __init__(self, *, mode: str = "process", max_workers: Optional[int] = None):
        mode = str(mode).lower()
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be at least 1 (None uses the CPU count), "
                f"got {max_workers!r}"
            )
        self.mode = mode
        #: The pool's mode, which is also its :func:`resolve_executor` name.
        self.name = mode
        self.max_workers = max_workers

    def submit_jobs(self, jobs, *, run_job):
        from repro.experiments.base import _run_annotated

        return self.map(_run_annotated, [(run_job, job) for job in jobs])

    def map(self, fn: Callable, args_list: Sequence[tuple]) -> List:
        """Apply ``fn(*args)`` to every argument tuple, preserving order."""
        args_list = [tuple(args) for args in args_list]
        if self.mode == "process" and not self._picklable(fn, args_list):
            warnings.warn(
                "PoolExecutor: callable or arguments are not picklable; "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(*args) for args in args_list]
        if len(args_list) <= 1:
            return [fn(*args) for args in args_list]
        payloads = [(fn, args) for args in args_list]
        workers = self.resolve_workers(len(args_list))
        if self.mode == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_call_star, payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(_call_star, payloads, chunksize=self.chunksize(len(args_list)))
            )

    def resolve_workers(self, n_jobs: int) -> int:
        """The actual pool width for ``n_jobs`` (never wider than the jobs)."""
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, n_jobs))

    def chunksize(self, n_jobs: int) -> int:
        """Process-mode chunk size: one contiguous block per worker."""
        return max(1, math.ceil(n_jobs / self.resolve_workers(n_jobs)))

    @staticmethod
    def _picklable(fn: Callable, args_list: Sequence[tuple]) -> bool:
        """Probe process-pool compatibility cheaply.

        Only ``fn`` and a single representative argument tuple are pickled —
        serialising the whole ``args_list`` would cost O(total payload) per
        grid just to answer a yes/no question, and every job of a grid
        shares the same callable and argument types.
        """
        sample = args_list[0] if args_list else ()
        try:
            pickle.dumps((fn, sample))
        except Exception:
            return False
        return True


#: Spellings accepted by :func:`resolve_executor` (CLI ``--executor`` values).
EXECUTOR_NAMES = ("serial", "process", "thread")


def resolve_executor(spec, **kwargs) -> Executor:
    """Build an :class:`Executor` from a name, instance, or ``None``.

    ``None``/``"serial"`` give the serial reference; ``"process"`` /
    ``"thread"`` a :class:`PoolExecutor` of that mode.  ``kwargs`` are
    forwarded to the constructed executor; instances pass through
    (``kwargs`` then must be empty).
    """
    if isinstance(spec, Executor):
        if kwargs:
            raise ValueError(
                f"cannot apply options {sorted(kwargs)} to an existing "
                f"{type(spec).__name__} instance"
            )
        return spec
    key = "serial" if spec is None else str(spec).lower()
    if key == "serial":
        return SerialExecutor(**kwargs)
    if key in ("process", "thread"):
        return PoolExecutor(mode=key, **kwargs)
    raise ValueError(f"unknown executor {spec!r}; available: {EXECUTOR_NAMES}")
