"""The TCP work-queue backend: coordinator + :class:`QueueExecutor`.

The coordinator owns the job grid.  It chunks the grid
(:mod:`repro.executor.chunking`), listens on a TCP port, and *leases* chunks
to whichever workers connect — local subprocesses it spawned itself, or
remote processes started with ``python -m repro.executor worker --connect
host:port``.  The protections that make this safe under worker failure:

* **Idempotency** — every chunk has a deterministic key; the first result
  frame per key wins, later duplicates (a retried lease racing its original
  holder) are counted and dropped, never double-assembled.
* **Lease expiry** — each lease carries a heartbeat deadline; a worker that
  stops heartbeating (killed, wedged, partitioned) has its chunk re-queued
  by the reaper thread.  A dropped connection re-queues immediately.
* **Journal** — completed chunks append to a JSONL journal
  (:mod:`repro.executor.journal`); ``resume=`` replays completed chunks
  from a previous (possibly truncated) journal without re-running them.

Determinism: results are slotted by chunk index and flattened in grid
order, so the assembled result list is bit-identical to
:class:`~repro.executor.base.SerialExecutor` no matter which worker ran
what, in what order, or how many leases were retried.
"""

from __future__ import annotations

import ipaddress
import os
import secrets
import socket
import subprocess
import sys
import threading
import time
import warnings
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.executor.base import (
    Executor,
    ExecutorEvent,
    emit,
)
from repro.executor.chunking import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    chunk_jobs,
    grid_fingerprint,
)
from repro.executor.errors import (
    ExecutionCancelled,
    ExecutorError,
    JobFailedError,
    QueueAuthError,
    QueueProtocolError,
    WorkerConnectionLost,
)
from repro.executor.journal import JournalWriter, read_journal
from repro.executor.protocol import (
    AUTH_ENV_VAR,
    DEFAULT_MAX_FRAME_BYTES,
    normalize_auth_key,
    recv_message,
    send_message,
    server_authenticate,
)

#: Default heartbeat interval leased to workers.
DEFAULT_HEARTBEAT_S = 0.5
#: Lease expires after this many missed heartbeat intervals.
LEASE_TIMEOUT_FACTOR = 6.0
#: Delay a worker is told to wait before re-asking when no work is pending.
WAIT_DELAY_S = 0.05


def _is_loopback_host(host: str) -> bool:
    """True when ``host`` can only be reached from this machine."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


class _Lease:
    """One outstanding chunk lease (chunk, holder, heartbeat deadline)."""

    __slots__ = ("chunk", "worker", "deadline")

    def __init__(self, chunk: Chunk, worker: str, deadline: float) -> None:
        self.chunk = chunk
        self.worker = worker
        self.deadline = deadline


class _CoordinatorState:
    """Shared mutable state guarded by one lock."""

    def __init__(self, chunks: Sequence[Chunk]) -> None:
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.chunks = list(chunks)
        self.pending = deque(chunk.index for chunk in chunks)
        self.leases: Dict[str, _Lease] = {}
        self.completed: Dict[str, List] = {}
        self.failure: Optional[BaseException] = None
        self.stats = {
            "chunks_total": len(chunks),
            "chunks_executed": 0,
            "chunks_resumed": 0,
            "chunks_requeued": 0,
            "duplicate_results": 0,
            "workers_spawned": 0,
            "workers_respawned": 0,
            "worker_connections": 0,
        }

    def fail(self, exc: BaseException) -> None:
        with self.lock:
            if self.failure is None:
                self.failure = exc
        self.done.set()


class QueueExecutor(Executor):
    """Distributed execution over a local TCP work-queue coordinator.

    Parameters
    ----------
    n_workers:
        Local worker subprocesses to spawn (``0`` with ``serve_only`` mode
        relies entirely on externally attached workers).
    chunk_size:
        Jobs per lease (see :data:`~repro.executor.chunking.DEFAULT_CHUNK_SIZE`).
    host / port:
        Bind address of the coordinator; ``port=0`` picks a free port.
    auth_key:
        Shared secret for the mutual HMAC handshake every connection must
        pass before any pickle frame is parsed (see
        :mod:`repro.executor.protocol`).  ``None`` falls back to the
        ``REPRO_QUEUE_AUTH`` environment variable, then — for loopback
        binds only — to a fresh random key private to this run (spawned
        local workers inherit it via the environment).  Binding a
        non-loopback address without an explicit key is refused: it would
        expose a pickle endpoint guarded only by an unguessable-but-unshared
        secret, locking every remote worker out while still advertising the
        port.
    journal:
        Path to write the JSONL progress journal to (optional).
    resume:
        Path of a previous run's journal; completed chunks are replayed
        bit-identically instead of re-run.  May equal ``journal`` (the file
        is read before it is rewritten).
    heartbeat_s / lease_timeout_s:
        Worker heartbeat interval, and how long a silent lease survives
        before the reaper re-queues it (default ``6 x heartbeat_s``).
    worker_args:
        Extra CLI args for the *initially* spawned workers — either one list
        applied to all, or a per-worker list of lists.  Used by the fault
        injection tests (``--fail-after-jobs``); respawned replacements
        always start with clean args, so an injected fault cannot recur
        forever.
    respawn:
        Replace local workers that die before the run completes.
    spawn_timeout_s:
        How long :meth:`submit_jobs` waits for the grid to finish before
        declaring the run stuck.  ``None`` (the default) waits
        indefinitely — set a ceiling whenever workers may never attach
        (e.g. ``n_workers=0`` with remote workers that could fail to
        start).
    """

    name = "queue"

    def __init__(
        self,
        *,
        n_workers: int = 2,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_key: Optional[str] = None,
        journal=None,
        resume=None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        lease_timeout_s: Optional[float] = None,
        worker_args=None,
        respawn: bool = True,
        spawn_timeout_s: Optional[float] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self.host = host
        self.port = port
        if auth_key is None:
            auth_key = os.environ.get(AUTH_ENV_VAR) or None
        if auth_key is None:
            if not _is_loopback_host(host):
                raise ValueError(
                    f"refusing to bind coordinator to non-loopback {host!r} "
                    "without an explicit auth key: the work-queue wire "
                    "carries pickles, so every connection must pass the "
                    "shared-key handshake — pass auth_key= (or set "
                    f"{AUTH_ENV_VAR}) and give remote workers the same key"
                )
            auth_key = secrets.token_hex(32)
        normalize_auth_key(auth_key)  # fail fast on empty/invalid keys
        self.auth_key = auth_key
        if not _is_loopback_host(host):
            warnings.warn(
                f"QueueExecutor is binding non-loopback {host!r}: the "
                "work-queue protocol carries pickles and must only be "
                "reachable by trusted workers holding the shared auth key; "
                "prefer loopback plus SSH tunnels on shared networks",
                RuntimeWarning,
                stacklevel=2,
            )
        self.journal = journal
        self.resume = resume
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = (
            LEASE_TIMEOUT_FACTOR * heartbeat_s if lease_timeout_s is None else lease_timeout_s
        )
        self.worker_args = worker_args
        self.respawn = respawn
        self.spawn_timeout_s = spawn_timeout_s
        self.max_frame_bytes = max_frame_bytes
        #: Stats of the most recent :meth:`submit_jobs` call.
        self.stats: Dict[str, int] = {}
        #: Bound address of the most recent run's coordinator.
        self.address = None

    # ------------------------------------------------------------- plumbing

    def _worker_command(self, address, extra_args: Sequence[str]) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro.executor",
            "worker",
            "--connect",
            f"{address[0]}:{address[1]}",
            "--heartbeat",
            str(self.heartbeat_s),
        ] + list(extra_args)

    def _worker_env(self) -> Dict[str, str]:
        """Child env with this repro checkout importable (repro may not be
        installed — the test suite runs it straight off ``src/``)."""
        import repro

        src_root = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        paths = existing.split(os.pathsep) if existing else []
        if src_root not in paths:
            env["PYTHONPATH"] = os.pathsep.join([src_root] + paths)
        env[AUTH_ENV_VAR] = self.auth_key
        return env

    def _initial_args(self, worker_index: int) -> List[str]:
        args = self.worker_args
        if args is None:
            return []
        if args and isinstance(args[0], (list, tuple)):
            return list(args[worker_index]) if worker_index < len(args) else []
        return list(args)

    # ------------------------------------------------------- connection side

    def _serve_connection(self, conn: socket.socket, state, run_job, journal_writer, on_progress):
        """Handle one worker connection until it drops or the run ends."""
        conn_id = f"conn-{id(conn) & 0xFFFF:04x}"
        held: Optional[str] = None  # chunk key currently leased to this conn
        try:
            conn.settimeout(max(1.0, 2 * self.lease_timeout_s))
            # No pickle frame is parsed before the peer proves it holds the
            # run's shared key; a failed challenge just drops the connection.
            server_authenticate(conn, self.auth_key)
            while True:
                message = recv_message(conn, max_frame_bytes=self.max_frame_bytes)
                kind = message.get("type")
                if kind == "hello":
                    with state.lock:
                        state.stats["worker_connections"] += 1
                    conn_id = str(message.get("worker", conn_id))
                    send_message(conn, {"type": "welcome", "heartbeat_s": self.heartbeat_s})
                elif kind == "request":
                    held = self._handle_request(conn, conn_id, state, run_job)
                    if held is None and state.done.is_set():
                        return
                elif kind == "heartbeat":
                    self._handle_heartbeat(state, message.get("key"))
                elif kind == "result":
                    held = None
                    self._handle_result(state, message, journal_writer, on_progress)
                elif kind == "error":
                    held = None
                    state.fail(
                        JobFailedError(
                            f"job failed on worker {conn_id}:\n{message.get('traceback', '')}"
                        )
                    )
                    return
                else:
                    raise QueueProtocolError(f"unexpected message type {kind!r}")
        except (
            WorkerConnectionLost,
            QueueAuthError,
            QueueProtocolError,
            socket.timeout,
            OSError,
        ):
            pass
        finally:
            if held is not None:
                self._requeue(
                    state, held, reason=f"{conn_id} disconnected", holder=conn_id
                )
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, conn, conn_id, state, run_job) -> Optional[str]:
        """Reply to a lease request; returns the leased key (if any)."""
        # Snapshot before taking the lock: submit_jobs' finally block clears
        # self._jobs after the run, and a straggler server thread must see
        # either the full list or a clean "finished" answer, never a slice
        # of None.
        jobs = self._jobs
        with state.lock:
            if jobs is None or state.done.is_set() or state.failure is not None:
                chunk = None
                finished = True
            elif state.pending:
                index = state.pending.popleft()
                chunk = state.chunks[index]
                state.leases[chunk.key] = _Lease(
                    chunk, conn_id, time.monotonic() + self.lease_timeout_s
                )
                finished = False
            else:
                chunk = None
                finished = False
        if chunk is not None:
            send_message(
                conn,
                {
                    "type": "lease",
                    "key": chunk.key,
                    "index": chunk.index,
                    "jobs": list(jobs[chunk.start : chunk.stop]),
                    "run_job": run_job,
                    "heartbeat_s": self.heartbeat_s,
                },
            )
            return chunk.key
        if finished:
            send_message(conn, {"type": "shutdown"})
        else:
            send_message(conn, {"type": "wait", "delay_s": WAIT_DELAY_S})
        return None

    def _handle_heartbeat(self, state, key) -> None:
        with state.lock:
            lease = state.leases.get(key)
            if lease is not None:
                lease.deadline = time.monotonic() + self.lease_timeout_s

    def _handle_result(self, state, message, journal_writer, on_progress) -> None:
        key = str(message.get("key"))
        results = message.get("results")
        with state.lock:
            lease = state.leases.pop(key, None)
            chunk = lease.chunk if lease is not None else self._chunk_by_key.get(key)
            if chunk is None:
                raise QueueProtocolError(f"result for unknown chunk key {key!r}")
            if key in state.completed:
                # A requeued lease's original holder finished after all:
                # idempotency key says this chunk is already counted.
                state.stats["duplicate_results"] += 1
                return
            if not isinstance(results, list) or len(results) != chunk.n_jobs:
                # Put the chunk back before dropping the connection — a
                # half-delivered chunk must re-run, not vanish.
                state.pending.appendleft(chunk.index)
                state.stats["chunks_requeued"] += 1
                raise QueueProtocolError(
                    f"chunk {key!r} returned {len(results) if isinstance(results, list) else '?'} "
                    f"results, expected {chunk.n_jobs}"
                )
            state.completed[key] = results
            state.stats["chunks_executed"] += 1
            if journal_writer is not None:
                journal_writer.record_chunk(chunk, results)
            n_done = len(state.completed)
            n_total = len(state.chunks)
            if n_done == n_total:
                state.done.set()
        emit(
            on_progress,
            ExecutorEvent("chunk", n_done, n_total, detail=f"chunk {chunk.index} ({key})"),
        )

    def _requeue(
        self,
        state,
        key: str,
        *,
        reason: str,
        holder: Optional[str] = None,
        expired_only: bool = False,
    ) -> None:
        """Put a leased chunk back on the queue (guardedly).

        ``holder`` restricts the requeue to the lease's current owner —
        without it, a slow disconnect cleanup could kick a chunk that has
        already been re-leased to a healthy worker, triple-running it.
        ``expired_only`` makes the reaper re-check the deadline under the
        lock, so a lease renewed between snapshot and requeue survives.
        """
        with state.lock:
            lease = state.leases.get(key)
            if lease is None or key in state.completed:
                return
            if holder is not None and lease.worker != holder:
                return
            if expired_only and lease.deadline >= time.monotonic():
                return
            state.leases.pop(key)
            state.pending.appendleft(lease.chunk.index)
            state.stats["chunks_requeued"] += 1
            n_done = len(state.completed)
            n_total = len(state.chunks)
        emit(
            self._on_progress,
            ExecutorEvent(
                "requeue", n_done, n_total, detail=f"chunk {lease.chunk.index}: {reason}"
            ),
        )

    def _reap_expired(self, state) -> None:
        """Re-queue every lease whose heartbeat deadline has passed."""
        now = time.monotonic()
        with state.lock:
            expired = [
                (key, lease.worker)
                for key, lease in state.leases.items()
                if lease.deadline < now
            ]
        for key, worker in expired:
            self._requeue(
                state,
                key,
                reason="lease expired (missed heartbeats)",
                holder=worker,
                expired_only=True,
            )

    # --------------------------------------------------------------- driver

    def submit_jobs(self, jobs, *, run_job=None, on_progress=None, cancel=None):
        jobs = list(jobs)
        if not jobs:
            return []
        chunks = chunk_jobs(jobs, self.chunk_size)
        fingerprint = grid_fingerprint(jobs, self.chunk_size)
        state = _CoordinatorState(chunks)
        self._jobs = jobs
        self._chunk_by_key = {chunk.key: chunk for chunk in chunks}
        self._on_progress = on_progress

        resumed = self._load_resume(state, chunks, fingerprint)
        journal_writer = None
        if self.journal is not None:
            journal_writer = JournalWriter(
                self.journal,
                fingerprint=fingerprint,
                total_jobs=len(jobs),
                chunk_size=self.chunk_size,
                chunk_keys=[chunk.key for chunk in chunks],
            )
            # Re-record resumed chunks so the new journal is complete on its
            # own (a second resume never needs the older file).
            for chunk in chunks:
                if chunk.key in resumed:
                    journal_writer.record_chunk(chunk, resumed[chunk.key])

        emit(on_progress, ExecutorEvent("start", len(state.completed), len(chunks)))
        if len(state.completed) == len(chunks):
            state.done.set()

        listener = threading.Thread(target=lambda: None)
        server = None
        workers: List[subprocess.Popen] = []
        threads: List[threading.Thread] = []
        try:
            if not state.done.is_set():
                server = socket.create_server((self.host, self.port))
                server.settimeout(0.1)
                self.address = server.getsockname()

                listener = threading.Thread(
                    target=self._accept_loop,
                    args=(server, state, run_job, journal_writer, on_progress, threads),
                    daemon=True,
                )
                listener.start()
                reaper = threading.Thread(
                    target=self._reaper_loop, args=(state,), daemon=True
                )
                reaper.start()

                workers = self._spawn_workers(state)
                self._wait(state, workers, cancel)
            return self._collect(state, chunks, jobs)
        finally:
            state.done.set()
            if server is not None:
                try:
                    server.close()
                except OSError:
                    pass
            if listener.is_alive():
                listener.join(timeout=2.0)
            for thread in threads:
                thread.join(timeout=2.0)
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            if journal_writer is not None:
                journal_writer.close()
            self.stats = dict(state.stats)
            self._jobs = None
            self._chunk_by_key = {}
            self._on_progress = None

    def _load_resume(self, state, chunks, fingerprint):
        """Replay completed chunks from a previous journal (if any)."""
        resumed = {}
        if self.resume is None:
            return resumed
        journal = read_journal(self.resume, expect_fingerprint=fingerprint)
        with state.lock:
            for chunk in chunks:
                results = journal.completed.get(chunk.key)
                if results is None:
                    continue
                state.completed[chunk.key] = results
                state.stats["chunks_resumed"] += 1
                resumed[chunk.key] = results
            state.pending = deque(
                chunk.index for chunk in chunks if chunk.key not in state.completed
            )
        for chunk in chunks:
            if chunk.key in resumed:
                emit(
                    self._on_progress,
                    ExecutorEvent(
                        "resume",
                        len(resumed),
                        len(chunks),
                        detail=f"chunk {chunk.index} replayed from journal",
                    ),
                )
        return resumed

    def _accept_loop(self, server, state, run_job, journal_writer, on_progress, threads):
        while not state.done.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, state, run_job, journal_writer, on_progress),
                daemon=True,
            )
            thread.start()
            threads.append(thread)

    def _reaper_loop(self, state):
        interval = max(0.05, self.heartbeat_s / 2)
        while not state.done.wait(interval):
            self._reap_expired(state)

    def _spawn_workers(self, state) -> List[subprocess.Popen]:
        workers = []
        env = self._worker_env() if self.n_workers else None
        for index in range(self.n_workers):
            command = self._worker_command(self.address, self._initial_args(index))
            workers.append(subprocess.Popen(command, env=env))
            state.stats["workers_spawned"] += 1
        return workers

    def _wait(self, state, workers, cancel) -> None:
        """Block until the grid completes, respawning dead local workers."""
        deadline = None
        if self.spawn_timeout_s is not None:
            deadline = time.monotonic() + self.spawn_timeout_s
        while not state.done.wait(0.1):
            if cancel is not None and cancel.is_set():
                state.fail(ExecutionCancelled("queue run cancelled"))
                return
            if deadline is not None and time.monotonic() > deadline:
                state.fail(
                    ExecutorError(
                        f"queue run did not complete within spawn_timeout_s="
                        f"{self.spawn_timeout_s}"
                    )
                )
                return
            for index, proc in enumerate(workers):
                if proc.poll() is not None and self.respawn:
                    # Replacements always get clean args: an injected fault
                    # (--fail-after-jobs) must not follow the respawn.
                    command = self._worker_command(self.address, [])
                    workers[index] = subprocess.Popen(command, env=self._worker_env())
                    state.stats["workers_respawned"] += 1

    def _collect(self, state, chunks, jobs):
        with state.lock:
            failure = state.failure
            completed = dict(state.completed)
        if failure is not None:
            raise failure
        missing = [chunk.index for chunk in chunks if chunk.key not in completed]
        if missing:
            raise ExecutorError(f"queue run ended with incomplete chunks {missing}")
        results = []
        for chunk in chunks:
            results.extend(completed[chunk.key])
        emit(self._on_progress, ExecutorEvent("done", len(chunks), len(chunks)))
        if len(results) != len(jobs):
            raise ExecutorError(
                f"assembled {len(results)} results for {len(jobs)} jobs"
            )
        return results
