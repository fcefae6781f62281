"""Tests for the Executor API and the distributed work-queue backend.

The load-bearing guarantee is *bit-identity*: every registered experiment
must produce an :class:`~repro.experiments.base.ExperimentResult` that is
bitwise identical under the serial reference, the process pool, and the TCP
work queue — including when a worker is killed mid-grid, and when a run is
resumed from a truncated journal.
"""

import json
import pickle
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.executor import (
    EXECUTOR_NAMES,
    CancelToken,
    ExecutionCancelled,
    JournalMismatchError,
    JournalWriter,
    PoolExecutor,
    QueueAuthError,
    QueueExecutor,
    QueueProtocolError,
    SerialExecutor,
    WorkerConnectionLost,
    chunk_jobs,
    grid_fingerprint,
    read_journal,
    resolve_executor,
)
from repro.executor.journal import result_from_wire, result_to_wire
from repro.executor import protocol as queue_protocol
from repro.experiments import ExperimentScale
from repro.experiments.registry import get_experiment, list_experiments, run_experiments
from repro.experiments.scenario import ScenarioSpec, resolve_scenarios
from repro.experiments.sweep import SweepSpec
from repro.utils.results import RunResult

pytestmark = pytest.mark.executor

#: Generous ceiling for queue runs in tests — the grids below finish in
#: seconds; hitting this means the coordinator wedged, not that CI is slow.
QUEUE_TIMEOUT_S = 300.0


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale(
        name="tiny",
        n_train=120,
        n_test=40,
        n_runs=2,
        train_epochs=2,
        query_counts=(8,),
        attack_strengths=(0.0, 4.0),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=4,
    )


def _scenarios_for(name):
    """One cheap scenario selection per experiment (sweeps expand it)."""
    return ["paper/mnist-linear"]


def assert_results_identical(result_a, result_b):
    """Bitwise comparison of two ExperimentResults (metrics + arrays)."""
    assert len(result_a.sweep) == len(result_b.sweep)
    for run_a, run_b in zip(result_a.sweep, result_b.sweep):
        assert run_a.name == run_b.name
        assert run_a.metrics == run_b.metrics
        assert set(run_a.arrays) == set(run_b.arrays)
        for key in run_a.arrays:
            assert run_a.arrays[key].dtype == run_b.arrays[key].dtype
            assert np.array_equal(run_a.arrays[key], run_b.arrays[key])
        assert run_a.metadata == run_b.metadata


def _figure3_jobs(scale, scenarios=("paper/mnist-linear", "noisy-device")):
    experiment = get_experiment("figure3")
    return experiment, experiment.build_jobs(
        scale, resolve_scenarios(list(scenarios)), base_seed=0
    )


# ----------------------------------------------------------------- chunking


class TestChunking:
    def test_chunks_cover_grid_and_keys_are_deterministic(self, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        chunks_a = chunk_jobs(jobs, 1)
        chunks_b = chunk_jobs(list(jobs), 1)
        assert [c.key for c in chunks_a] == [c.key for c in chunks_b]
        assert [(c.start, c.stop) for c in chunks_a] == [(0, 1), (1, 2)]
        assert all(c.n_jobs == 1 for c in chunks_a)
        assert len({c.key for c in chunks_a}) == len(chunks_a)

    def test_chunk_keys_depend_on_job_identity(self, tiny_scale):
        experiment, jobs = _figure3_jobs(tiny_scale)
        other = experiment.build_jobs(
            tiny_scale,
            resolve_scenarios(["paper/mnist-linear", "noisy-device"]),
            base_seed=7,
        )
        keys = [c.key for c in chunk_jobs(jobs, 1)]
        other_keys = [c.key for c in chunk_jobs(other, 1)]
        assert keys != other_keys

    def test_fingerprint_depends_on_geometry(self, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        assert grid_fingerprint(jobs, 1) != grid_fingerprint(jobs, 2)
        assert grid_fingerprint(jobs, 1) == grid_fingerprint(list(jobs), 1)

    def test_chunk_size_validated(self, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_jobs(jobs, 0)


# ------------------------------------------------------------------ journal


def _sample_result(seed=0):
    result = RunResult(
        name=f"sample/{seed}",
        metadata={"shape": (3, 2), "np_scalar": np.float64(0.5), "seed": seed},
    )
    result.add_metric("accuracy", 0.25 + seed)
    rng = np.random.default_rng(seed)
    result.add_array("float32_map", rng.normal(size=(3, 2)).astype(np.float32))
    result.add_array("int_counts", np.arange(4, dtype=np.int64) + seed)
    return result


class TestJournal:
    def test_wire_form_is_lossless(self):
        original = _sample_result()
        restored = result_from_wire(json.loads(json.dumps(result_to_wire(original))))
        assert restored.name == original.name
        assert restored.metrics == original.metrics
        for key in original.arrays:
            assert restored.arrays[key].dtype == original.arrays[key].dtype
            assert np.array_equal(restored.arrays[key], original.arrays[key])
        # tuples and numpy scalars survive (a plain JSON round-trip would not)
        assert restored.metadata == original.metadata
        assert isinstance(restored.metadata["shape"], tuple)

    def _write_journal(self, path, jobs, chunk_size=1):
        chunks = chunk_jobs(jobs, chunk_size)
        fingerprint = grid_fingerprint(jobs, chunk_size)
        with JournalWriter(
            path,
            fingerprint=fingerprint,
            total_jobs=len(jobs),
            chunk_size=chunk_size,
            chunk_keys=[c.key for c in chunks],
        ) as writer:
            for index, chunk in enumerate(chunks):
                writer.record_chunk(chunk, [_sample_result(index)])
        return chunks, fingerprint

    def test_writer_reader_roundtrip(self, tmp_path, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        path = tmp_path / "run.jsonl"
        chunks, fingerprint = self._write_journal(path, jobs)
        state = read_journal(path, expect_fingerprint=fingerprint)
        assert state.n_completed == len(chunks)
        assert state.chunk_keys == [c.key for c in chunks]
        restored = state.completed[chunks[1].key][0]
        assert restored.metrics == _sample_result(1).metrics

    def test_truncated_trailing_line_is_tolerated(self, tmp_path, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        path = tmp_path / "run.jsonl"
        chunks, fingerprint = self._write_journal(path, jobs)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [lines[2][:40]]) + "\n")
        state = read_journal(path, expect_fingerprint=fingerprint)
        assert state.n_completed == 1
        assert chunks[0].key in state.completed

    def test_corruption_before_trailing_line_raises(self, tmp_path, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        path = tmp_path / "run.jsonl"
        self._write_journal(path, jobs)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1][:40], lines[2]]) + "\n")
        with pytest.raises(JournalMismatchError, match="corrupt"):
            read_journal(path)

    def test_fingerprint_mismatch_raises(self, tmp_path, tiny_scale):
        _, jobs = _figure3_jobs(tiny_scale)
        path = tmp_path / "run.jsonl"
        self._write_journal(path, jobs)
        with pytest.raises(JournalMismatchError, match="fingerprint"):
            read_journal(path, expect_fingerprint="0" * 64)

    def test_empty_journal_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JournalMismatchError, match="empty"):
            read_journal(path)


# --------------------------------------------------------------- resolution


class TestResolveExecutor:
    def test_names_resolve_to_executors(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        for name in ("process", "thread", "pool"):
            executor = resolve_executor(name)
            assert isinstance(executor, PoolExecutor)
        assert isinstance(resolve_executor("queue", n_workers=0), QueueExecutor)
        assert set(EXECUTOR_NAMES) == {"serial", "process", "thread", "pool", "queue"}

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("mapreduce")

    def test_instance_passthrough_rejects_options(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor
        with pytest.raises(ValueError, match="existing"):
            resolve_executor(executor, max_workers=2)



class TestSerialExecutor:
    def test_progress_events_and_order(self, tiny_scale):
        experiment, jobs = _figure3_jobs(tiny_scale)
        events = []
        results = SerialExecutor().submit_jobs(
            jobs, run_job=experiment.run_job, on_progress=events.append
        )
        assert len(results) == len(jobs)
        assert [e.kind for e in events] == ["start", "job", "job", "done"]
        assert events[-1].completed == events[-1].total == len(jobs)

    def test_cancel_raises(self, tiny_scale):
        experiment, jobs = _figure3_jobs(tiny_scale)
        token = CancelToken()
        token.cancel()
        with pytest.raises(ExecutionCancelled):
            SerialExecutor().submit_jobs(jobs, run_job=experiment.run_job, cancel=token)
        with pytest.raises(ExecutionCancelled):
            PoolExecutor(mode="thread").submit_jobs(
                jobs, run_job=experiment.run_job, cancel=token
            )


# ----------------------------------------------------- backend equivalence


class TestBackendEquivalence:
    """serial == pool == queue, bit for bit, for every registered experiment."""

    @pytest.mark.parametrize("name", sorted(list_experiments()))
    def test_queue_with_injected_kill_matches_serial(self, name, tiny_scale):
        """Every registered experiment (including the sweeps) survives a
        worker killed mid-grid with bitwise-identical results."""
        experiment = get_experiment(name)
        scenarios = _scenarios_for(name)
        serial = experiment.run(tiny_scale, scenarios=scenarios)

        executor = QueueExecutor(
            n_workers=2,
            chunk_size=1,
            worker_args=[["--fail-after-jobs", "1"], []],
            spawn_timeout_s=QUEUE_TIMEOUT_S,
        )
        distributed = experiment.run(tiny_scale, scenarios=scenarios, executor=executor)

        assert_results_identical(serial, distributed)
        stats = executor.stats
        assert stats["chunks_executed"] + stats["chunks_resumed"] == stats["chunks_total"]
        assert stats["workers_spawned"] == 2

    def test_pool_matches_serial(self, tiny_scale):
        experiment = get_experiment("table1")
        scenarios = ["paper/mnist-linear", "noisy-device"]
        serial = experiment.run(tiny_scale, scenarios=scenarios)
        pooled = experiment.run(tiny_scale, scenarios=scenarios, executor="process")
        assert_results_identical(serial, pooled)

    def test_empty_grid_returns_empty(self):
        assert QueueExecutor(n_workers=0).submit_jobs([]) == []


# ------------------------------------------------- fault injection / resume


class TestFaultInjectionAndResume:
    def test_worker_kill_mid_chunk_requeues_lease(self, tiny_scale, tmp_path):
        """A worker dying mid-chunk loses its lease, the chunk re-runs on a
        healthy worker, and nothing is double-counted."""
        experiment = get_experiment("sweep-adc-bits")
        scenarios = ["paper/mnist-linear"]
        serial = experiment.run(tiny_scale, scenarios=scenarios)

        journal = tmp_path / "run.jsonl"
        executor = QueueExecutor(
            n_workers=2,
            chunk_size=3,  # --fail-after-jobs 2 dies mid-chunk
            worker_args=[["--fail-after-jobs", "2"], []],
            journal=journal,
            spawn_timeout_s=QUEUE_TIMEOUT_S,
        )
        distributed = experiment.run(tiny_scale, scenarios=scenarios, executor=executor)

        assert_results_identical(serial, distributed)
        stats = executor.stats
        assert stats["chunks_requeued"] >= 1
        assert stats["workers_respawned"] >= 1
        assert stats["chunks_executed"] == stats["chunks_total"]
        # ... and the journal is complete despite the mid-run death
        state = read_journal(journal)
        assert state.n_completed == stats["chunks_total"]

    def test_resume_from_truncated_journal_skips_completed(self, tiny_scale, tmp_path):
        experiment = get_experiment("sweep-adc-bits")
        scenarios = ["paper/mnist-linear"]
        serial = experiment.run(tiny_scale, scenarios=scenarios)

        full = tmp_path / "full.jsonl"
        first = QueueExecutor(
            n_workers=2, chunk_size=3, journal=full, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        experiment.run(tiny_scale, scenarios=scenarios, executor=first)
        n_chunks = first.stats["chunks_total"]
        assert n_chunks >= 3

        # Simulate a coordinator crash: keep the header, two complete chunk
        # records, and one torn trailing line.
        lines = full.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:3] + [lines[3][:50]]) + "\n")

        resumed_journal = tmp_path / "resumed.jsonl"
        second = QueueExecutor(
            n_workers=2,
            chunk_size=3,
            journal=resumed_journal,
            resume=truncated,
            spawn_timeout_s=QUEUE_TIMEOUT_S,
        )
        resumed = experiment.run(tiny_scale, scenarios=scenarios, executor=second)

        assert_results_identical(serial, resumed)
        stats = second.stats
        assert stats["chunks_resumed"] == 2
        assert stats["chunks_executed"] == n_chunks - 2
        # the new journal is self-contained: a further resume needs only it
        assert read_journal(resumed_journal).n_completed == n_chunks

    def test_fully_resumed_run_spawns_no_workers(self, tiny_scale, tmp_path):
        experiment, jobs = _figure3_jobs(tiny_scale)
        journal = tmp_path / "run.jsonl"
        first = QueueExecutor(
            n_workers=2, chunk_size=1, journal=journal, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        baseline = first.submit_jobs(jobs, run_job=experiment.run_job)
        second = QueueExecutor(
            n_workers=2, chunk_size=1, resume=journal, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        replayed = second.submit_jobs(jobs, run_job=experiment.run_job)
        assert second.stats["chunks_resumed"] == second.stats["chunks_total"]
        assert second.stats["workers_spawned"] == 0
        for fresh, cached in zip(baseline, replayed):
            assert fresh.metrics == cached.metrics
            for key in fresh.arrays:
                assert np.array_equal(fresh.arrays[key], cached.arrays[key])

    def test_resume_rejects_foreign_journal(self, tiny_scale, tmp_path):
        experiment, jobs = _figure3_jobs(tiny_scale)
        journal = tmp_path / "run.jsonl"
        first = QueueExecutor(
            n_workers=2, chunk_size=1, journal=journal, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        first.submit_jobs(jobs, run_job=experiment.run_job)
        other_jobs = experiment.build_jobs(
            tiny_scale,
            resolve_scenarios(["paper/mnist-linear", "noisy-device"]),
            base_seed=123,
        )
        second = QueueExecutor(n_workers=0, chunk_size=1, resume=journal)
        with pytest.raises(JournalMismatchError, match="fingerprint"):
            second.submit_jobs(other_jobs, run_job=experiment.run_job)

    def test_job_failure_is_terminal_with_remote_traceback(self, tiny_scale):
        import dataclasses

        _, jobs = _figure3_jobs(tiny_scale)
        # An unregistered experiment name makes the registry trampoline blow
        # up *on the worker*; the traceback must surface at the coordinator.
        broken = list(jobs) + [dataclasses.replace(jobs[0], experiment="no-such")]

        from repro.executor.errors import JobFailedError

        executor = QueueExecutor(
            n_workers=1, chunk_size=1, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        with pytest.raises(JobFailedError, match="no-such"):
            executor.submit_jobs(broken, run_job=None)


# ------------------------------------------------------------ authentication


class TestAuth:
    """No pickle frame crosses the wire before the mutual HMAC handshake."""

    def _handshake(self, server_key, client_key):
        from repro.executor.protocol import client_authenticate, server_authenticate

        server_sock, client_sock = socket.socketpair()
        server_sock.settimeout(5.0)
        client_sock.settimeout(5.0)
        outcome = {}

        def serve():
            try:
                server_authenticate(server_sock, server_key)
                outcome["server"] = "ok"
            except Exception as exc:
                outcome["server"] = exc
            finally:
                server_sock.close()  # unblocks a client the server rejected

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            client_authenticate(client_sock, client_key)
            outcome["client"] = "ok"
        except Exception as exc:
            outcome["client"] = exc
        thread.join(timeout=5.0)
        client_sock.close()
        return outcome

    def test_matching_keys_pass_both_directions(self):
        outcome = self._handshake("shared-secret", "shared-secret")
        assert outcome == {"server": "ok", "client": "ok"}

    def test_wrong_key_is_rejected(self):
        from repro.executor import QueueAuthError

        outcome = self._handshake("right-key", "wrong-key")
        assert isinstance(outcome["server"], QueueAuthError)
        assert outcome["client"] != "ok"

    def test_worker_rejects_coordinator_that_cannot_prove_key(self):
        """A rogue coordinator that replays the challenge format but cannot
        produce the key-derived proof must not receive obedience."""
        from repro.executor import QueueAuthError
        from repro.executor.protocol import AUTH_MAGIC, PROTOCOL_VERSION

        rogue_sock, worker_sock = socket.socketpair()
        rogue_sock.settimeout(5.0)
        worker_sock.settimeout(5.0)

        def rogue():
            try:
                rogue_sock.sendall(AUTH_MAGIC + bytes([PROTOCOL_VERSION]) + b"\x00" * 32)
                rogue_sock.recv(1024)  # the worker's answer, useless without the key
                rogue_sock.sendall(b"\x00" * 32)  # forged proof
            except OSError:
                pass
            finally:
                rogue_sock.close()

        thread = threading.Thread(target=rogue)
        thread.start()
        try:
            from repro.executor.protocol import client_authenticate

            with pytest.raises(QueueAuthError, match="prove knowledge"):
                client_authenticate(worker_sock, "the-real-key")
        finally:
            thread.join(timeout=5.0)
            worker_sock.close()

    def test_non_loopback_bind_requires_explicit_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_AUTH", raising=False)
        with pytest.raises(ValueError, match="auth key"):
            QueueExecutor(n_workers=0, host="0.0.0.0")
        with pytest.warns(RuntimeWarning, match="non-loopback"):
            QueueExecutor(n_workers=0, host="0.0.0.0", auth_key="explicit-key")

    def test_loopback_bind_generates_ephemeral_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_AUTH", raising=False)
        first = QueueExecutor(n_workers=0)
        second = QueueExecutor(n_workers=0)
        assert first.auth_key and second.auth_key
        assert first.auth_key != second.auth_key

    def test_worker_without_key_exits_immediately(self, monkeypatch):
        from repro.executor.worker import EXIT_AUTH_FAILED, run_worker

        monkeypatch.delenv("REPRO_QUEUE_AUTH", raising=False)
        code = run_worker("127.0.0.1", 1, max_connect_attempts=1)
        assert code == EXIT_AUTH_FAILED


# --------------------------------------------------------------- wire fuzz

#: Any JSON-like value; the queue fuzz only ever unpickles prefixes of its
#: pickles — never random bytes, since unpickling those executes code.
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
_QUEUE_FUZZ_MAX_FRAME_BYTES = 4096
_QUEUE_WIRE_ERRORS = (QueueAuthError, QueueProtocolError, WorkerConnectionLost)


def _fed_socket(data: bytes):
    """``(feeder, sock)``: ``sock`` reads ``data`` and then EOF.

    The feeder's write half is shut down, so a reader that wants more bytes
    than were fed ends typed instead of waiting out the timeout.
    """
    feeder, sock = socket.socketpair()
    sock.settimeout(5.0)
    feeder.sendall(data)
    feeder.shutdown(socket.SHUT_WR)
    return feeder, sock


class TestQueueWireFuzz:
    """Whatever a peer sends, only the queue's typed wire errors escape."""

    @settings(deadline=None, max_examples=200)
    @given(
        magic=st.just(queue_protocol.MAGIC) | st.binary(min_size=2, max_size=2),
        version=st.just(queue_protocol.PROTOCOL_VERSION) | st.integers(0, 255),
        length=st.integers(0, 2 * _QUEUE_FUZZ_MAX_FRAME_BYTES) | st.just(2**32 - 1),
        value=_JSON_LIKE,
        cut=st.integers(0, 1 << 12),
    )
    @example(
        magic=queue_protocol.MAGIC,
        version=queue_protocol.PROTOCOL_VERSION,
        length=_QUEUE_FUZZ_MAX_FRAME_BYTES + 1,
        value=None,
        cut=0,
    )
    def test_recv_message_raises_only_typed_errors(self, magic, version, length, value, cut):
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)[:cut]
        preamble = struct.pack("!2sBI", magic, version, length)
        feeder, sock = _fed_socket(preamble + body)
        try:
            queue_protocol.recv_message(sock, max_frame_bytes=_QUEUE_FUZZ_MAX_FRAME_BYTES)
        except _QUEUE_WIRE_ERRORS as exc:
            if (
                magic != queue_protocol.MAGIC
                or version != queue_protocol.PROTOCOL_VERSION
                or length > _QUEUE_FUZZ_MAX_FRAME_BYTES
            ):
                # a bad preamble is rejected before any body byte is read
                assert isinstance(exc, QueueProtocolError)
            elif length > len(body):
                assert isinstance(exc, WorkerConnectionLost)
        finally:
            feeder.close()
            sock.close()

    @settings(deadline=None)
    @given(reply=st.binary(max_size=80))
    def test_server_handshake_raises_only_typed_errors(self, reply):
        feeder, sock = _fed_socket(reply)
        try:
            with pytest.raises(_QUEUE_WIRE_ERRORS):
                queue_protocol.server_authenticate(sock, "fuzz-key")
        finally:
            feeder.close()
            sock.close()

    @settings(deadline=None)
    @given(reply=st.binary(max_size=80))
    def test_client_handshake_raises_only_typed_errors(self, reply):
        feeder, sock = _fed_socket(reply)
        try:
            with pytest.raises(_QUEUE_WIRE_ERRORS):
                queue_protocol.client_authenticate(sock, "fuzz-key")
        finally:
            feeder.close()
            sock.close()


# ------------------------------------------- multi-experiment journal scoping


class TestMultiExperimentJournals:
    def test_run_experiments_scopes_journal_per_experiment(self, tiny_scale, tmp_path):
        """One --journal/--resume path shared by several experiments must
        derive per-experiment files instead of truncating the first
        experiment's journal and aborting the second with a fingerprint
        mismatch."""
        journal = tmp_path / "run.jsonl"
        executor = QueueExecutor(
            n_workers=2, chunk_size=2, journal=journal, spawn_timeout_s=QUEUE_TIMEOUT_S
        )
        run_experiments(
            ["figure3", "table1"],
            tiny_scale,
            executor=executor,
            scenarios=["paper/mnist-linear"],
        )
        assert (tmp_path / "run.figure3.jsonl").exists()
        assert (tmp_path / "run.table1.jsonl").exists()
        assert not journal.exists()
        # the executor's own paths are restored after the run
        assert executor.journal == journal
        assert executor.resume is None

        # resuming through the same base path replays each experiment's own
        # derived journal: nothing re-runs
        resumed = QueueExecutor(
            n_workers=2,
            chunk_size=2,
            journal=journal,
            resume=journal,
            spawn_timeout_s=QUEUE_TIMEOUT_S,
        )
        run_experiments(
            ["figure3", "table1"],
            tiny_scale,
            executor=resumed,
            scenarios=["paper/mnist-linear"],
        )
        stats = resumed.stats  # stats of the last experiment's grid
        assert stats["chunks_resumed"] == stats["chunks_total"]
        assert stats["chunks_executed"] == 0
        assert stats["workers_spawned"] == 0


# -------------------------------------------------------------- worker CLI


class TestWorkerCLI:
    def test_parse_address(self):
        from repro.executor.cli import parse_address

        assert parse_address("example.org:7070") == ("example.org", 7070)
        assert parse_address(":7070") == ("0.0.0.0", 7070)
        with pytest.raises(Exception):
            parse_address("no-port")

    def test_worker_gives_up_without_coordinator(self):
        from repro.executor.worker import EXIT_NO_COORDINATOR, run_worker

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = run_worker(
            "127.0.0.1", free_port, auth_key="test-key", max_connect_attempts=1
        )
        assert code == EXIT_NO_COORDINATOR

    def test_experiments_cli_exposes_executor_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["figure3", "--executor", "queue", "--workers", "3", "--chunk-size", "2"]
        )
        assert args.executor == "queue"
        assert args.workers == 3
        assert args.chunk_size == 2

    def test_experiments_cli_rejects_mode(self, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", "--mode", "process"])
        assert "--mode" in capsys.readouterr().err


# ------------------------------------------------ strict config validation


class TestStrictFromDict:
    def test_scenario_spec_rejects_unknown_keys(self):
        from repro.experiments.scenario import get_scenario

        payload = get_scenario("paper/mnist-linear").to_dict()
        assert ScenarioSpec.from_dict(dict(payload)).name == "paper/mnist-linear"
        # a typo, and the removed compute-backend knobs of older payloads
        for key, value in (("read_nosie", 0.1), ("backend", "numpy"), ("dtype", "float64")):
            with pytest.raises(ValueError, match=f"unknown ScenarioSpec fields.*{key}"):
                ScenarioSpec.from_dict({**payload, key: value})

    def test_experiment_scale_round_trips_and_rejects_unknown_keys(self, tiny_scale):
        payload = tiny_scale.to_dict()
        restored = ExperimentScale.from_dict(payload)
        assert restored == tiny_scale
        assert isinstance(restored.query_counts, tuple)
        payload["n_trian"] = 5
        with pytest.raises(ValueError, match="unknown ExperimentScale fields.*n_trian"):
            ExperimentScale.from_dict(payload)

    def test_sweep_spec_rejects_unknown_keys(self):
        from repro.experiments.sweep import get_sweep

        payload = get_sweep("sweep-adc-bits").to_dict()
        assert SweepSpec.from_dict(dict(payload)).name == payload["name"]
        payload["knbo"] = "adc.bits"
        with pytest.raises(ValueError, match="unknown SweepSpec fields.*knbo"):
            SweepSpec.from_dict(payload)


# ------------------------------------------------------------ run spellings


class TestRunSpellings:
    """``executor=`` is the one way to pick a backend; ``PoolExecutor`` the one pool."""

    def test_run_accepts_executor_instances_and_names(self, tiny_scale):
        experiment = get_experiment("figure3")
        serial = experiment.run(
            tiny_scale, scenarios=["paper/mnist-linear"], executor=SerialExecutor()
        )
        named = experiment.run(
            tiny_scale, scenarios=["paper/mnist-linear"], executor="serial"
        )
        assert_results_identical(serial, named)

    def test_run_rejects_runner_option(self, tiny_scale):
        with pytest.raises(ValueError, match=r"unknown run\(\) options \['runner'\]"):
            get_experiment("figure3").run(
                tiny_scale, scenarios=["paper/mnist-linear"], runner=object()
            )

    def test_execute_jobs_and_run_experiments_reject_runner(self, tiny_scale):
        from repro.experiments.base import execute_jobs

        _, jobs = _figure3_jobs(tiny_scale)
        with pytest.raises(TypeError, match="runner"):
            execute_jobs(jobs, runner=object())
        with pytest.raises(TypeError, match="runner"):
            run_experiments(["figure3"], tiny_scale, runner=object())

    @pytest.mark.parametrize("mode", ["serial", "gpu"])
    def test_pool_modes_are_process_and_thread(self, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            PoolExecutor(mode=mode)

    @pytest.mark.parametrize(
        "name",
        ["run_table1", "format_figure5", "ParallelRunner", "run_multi_seed", "coerce_executor"],
    )
    def test_removed_names_are_gone(self, name):
        import repro.executor
        import repro.experiments
        import repro.experiments.runner

        for module in (repro.experiments, repro.experiments.runner, repro.executor):
            assert not hasattr(module, name)
