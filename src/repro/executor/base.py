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
* **Hooks** — ``on_progress`` receives :class:`ExecutorEvent` notifications
  and ``cancel`` (a :class:`CancelToken`) aborts between units of work with
  :class:`~repro.executor.errors.ExecutionCancelled`.

Three implementations ship:

* :class:`SerialExecutor` — in-process loop (the debugging reference).
* :class:`PoolExecutor` — one host's :mod:`concurrent.futures`
  process/thread pool, submitting the grid in chunks.
* :class:`~repro.executor.queue.QueueExecutor` — a TCP work-queue
  coordinator leasing job chunks to local or remote worker processes, with
  retries, heartbeat-based lease recovery and a resumable JSONL journal.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.executor.errors import ExecutionCancelled

#: Signature of the ``on_progress`` hook.
ProgressHook = Callable[["ExecutorEvent"], None]


@dataclass(frozen=True)
class ExecutorEvent:
    """One progress notification from a running executor.

    Attributes
    ----------
    kind:
        ``"start"``, ``"job"``, ``"chunk"``, ``"requeue"``, ``"resume"`` or
        ``"done"``.
    completed / total:
        Units of work finished so far / in the whole grid.  ``job`` events
        count jobs; ``chunk``/``requeue``/``resume`` events count chunks.
    detail:
        Human-readable context (job label, chunk key, worker id, ...).
    """

    kind: str
    completed: int
    total: int
    detail: str = ""


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Executors poll :meth:`is_set` between units of work and raise
    :class:`~repro.executor.errors.ExecutionCancelled`; they never interrupt
    a job mid-flight (jobs are short and side-effect free).
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    def is_set(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()

    def raise_if_cancelled(self, context: str = "") -> None:
        """Raise :class:`ExecutionCancelled` when the flag is set."""
        if self.is_set():
            suffix = f" ({context})" if context else ""
            raise ExecutionCancelled(f"execution cancelled{suffix}")


def emit(hook: Optional[ProgressHook], event: ExecutorEvent) -> None:
    """Deliver one event to an optional progress hook (None = no-op)."""
    if hook is not None:
        hook(event)


class Executor(ABC):
    """Protocol every execution backend implements.

    ``submit_jobs`` is the single entry point: it receives the full ordered
    job grid and returns the ordered results.  ``run_job`` is the
    experiment's picklable per-job callable; ``None`` resolves each job's
    experiment by name through the registry (sufficient for every built-in
    experiment, and for any registered experiment on the local process).
    """

    #: Short identifier used by CLIs and result metadata.
    name: str = ""

    @abstractmethod
    def submit_jobs(
        self,
        jobs: Sequence,
        *,
        run_job: Optional[Callable] = None,
        on_progress: Optional[ProgressHook] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List:
        """Execute every job and return the results in job order."""


def _job_runner(run_job: Optional[Callable]) -> Callable:
    """The per-job callable an executor actually invokes.

    Wraps the experiment's ``run_job`` with the metadata annotation exactly
    like the historical ``execute_jobs`` serial path, or falls back to the
    registry-resolving trampoline.
    """
    from repro.experiments.base import _execute_job, _run_annotated

    if run_job is None:
        return _execute_job
    return lambda job: _run_annotated(run_job, job)


class SerialExecutor(Executor):
    """In-process, single-threaded execution — the bit-identity reference."""

    name = "serial"

    def submit_jobs(self, jobs, *, run_job=None, on_progress=None, cancel=None):
        call = _job_runner(run_job)
        total = len(jobs)
        emit(on_progress, ExecutorEvent("start", 0, total))
        results = []
        for index, job in enumerate(jobs):
            if cancel is not None:
                cancel.raise_if_cancelled(f"after {index}/{total} jobs")
            results.append(call(job))
            emit(
                on_progress,
                ExecutorEvent("job", index + 1, total, detail=getattr(job, "label", "")),
            )
        emit(on_progress, ExecutorEvent("done", total, total))
        return results


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
        Worker-pool size; ``None`` uses the CPU count.

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

    Per-job progress is not available from a pool ``map``; hooks receive
    ``start`` and ``done`` events only.
    """

    name = "pool"
    MODES = ("process", "thread")

    def __init__(self, *, mode: str = "process", max_workers: Optional[int] = None):
        mode = str(mode).lower()
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers

    def submit_jobs(self, jobs, *, run_job=None, on_progress=None, cancel=None):
        from repro.experiments.base import _execute_job, _run_annotated

        if cancel is not None:
            cancel.raise_if_cancelled("before pool submission")
        total = len(jobs)
        emit(on_progress, ExecutorEvent("start", 0, total))
        if run_job is None:
            results = self.map(_execute_job, [(job,) for job in jobs])
        else:
            results = self.map(_run_annotated, [(run_job, job) for job in jobs])
        emit(on_progress, ExecutorEvent("done", total, total))
        return results

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
EXECUTOR_NAMES = ("serial", "process", "thread", "pool", "queue")


def resolve_executor(spec, **kwargs) -> Executor:
    """Build an :class:`Executor` from a name, instance, or ``None``.

    ``None``/``"serial"`` give the serial reference; ``"process"`` /
    ``"thread"`` / ``"pool"`` a :class:`PoolExecutor` of that mode; and
    ``"queue"`` a :class:`~repro.executor.queue.QueueExecutor`.  ``kwargs``
    are forwarded to the constructed executor; instances pass through
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
    if key == "pool":
        return PoolExecutor(**kwargs)
    if key == "queue":
        from repro.executor.queue import QueueExecutor

        return QueueExecutor(**kwargs)
    raise ValueError(f"unknown executor {spec!r}; available: {EXECUTOR_NAMES}")
