"""Tests for repro.netservice: the networked multi-tenant front-end.

The acceptance properties:

* **bit-identity over the wire** — responses served through
  :class:`NetworkQueryService` are bit-identical to direct seeded oracle
  queries, for every registered scenario preset;
* **fault tolerance** — a client survives injected lost responses and
  server restarts via idempotent retries, with correct results and no
  double-charged budget;
* **fairness** — under saturating load from weighted tenants, the strict
  weighted-fair dispatch order serves rows in the configured weight ratio;
* **graceful drain** — a stopping server fails queued requests with a typed
  error, never a hang.
"""

import asyncio
import concurrent.futures
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.oracle import Oracle
from repro.experiments.scenario import SCENARIOS, list_scenarios
from repro.netservice import (
    NetClient,
    NetServiceConfig,
    NetworkQueryService,
    ProtocolError,
    QueryBudgetExceeded,
    ServiceClosedError,
    ServiceUnavailableError,
    TenantConfig,
    get_netservice_preset,
    serve_in_thread,
)
from repro.netservice.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    _PREAMBLE,
    encode_frame,
    read_frame,
    read_frame_sync,
    send_frame_sync,
    write_frame,
)
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.service import ServiceConfig
from repro.utils.rng import derive_request_seeds

pytestmark = pytest.mark.netservice

N_FEATURES = 16
N_CLASSES = 5


def _network():
    return Sequential(
        [Dense(N_FEATURES, N_CLASSES, activation="softmax", random_state=0)]
    )


def _target(name):
    return SCENARIOS[name].build_accelerator(_network(), random_state=0)


def _oracle(name):
    return Oracle(
        _target(name), expose_power=True, power_noise_std=0.03, random_state=7
    )


def _requests(sizes=(1, 3, 1, 2, 5, 1, 4)):
    rng = np.random.default_rng(13)
    return [rng.uniform(0.0, 1.0, size=(n, N_FEATURES)) for n in sizes]


def _config(**kwargs):
    kwargs.setdefault("service", ServiceConfig(max_batch=8, max_wait_ms=5))
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_max_s", 0.05)
    return NetServiceConfig(**kwargs)


def _replay_seeds(response):
    """The derived seed stream a wire response advertises for replay."""
    return derive_request_seeds(
        response.metadata["base_seed"],
        response.metadata["request_id"],
        len(response.queries),
    )


def _raw_frame(header_json: str, payload: bytes = b"") -> bytes:
    """A frame around a hand-written (possibly hostile) JSON header."""
    header_bytes = header_json.encode("utf-8")
    return (
        _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, len(header_bytes))
        + header_bytes
        + payload
    )


def _descriptor_frame(name: str, shape: str) -> bytes:
    """A query frame with one float64 descriptor and one row of payload."""
    header = (
        '{"type":"query","arrays":[{"name":%s,"dtype":"float64","shape":%s}]}'
        % (name, shape)
    )
    return _raw_frame(header, bytes(8))


#: Headers that once escaped the decoder untyped or were silently accepted.
MALFORMED_FRAMES = {
    "unhashable-name": _descriptor_frame("[1]", "[1]"),
    "infinite-shape": _descriptor_frame('"inputs"', "[Infinity]"),
    "deep-nesting": _raw_frame('{"x":' + "[" * 100_000 + "]" * 100_000 + "}"),
    "float-shape": _descriptor_frame('"inputs"', "[1.7]"),
    "bool-shape": _descriptor_frame('"inputs"', "[true]"),
    "nan-constant": _raw_frame('{"type":"ping","x":NaN}'),
    "too-many-dims": _descriptor_frame('"inputs"', json.dumps([1] * 65)),
    "zero-axis-overflow": _descriptor_frame('"inputs"', json.dumps([0, 2**40, 2**40])),
}


def _read_sync(frame: bytes, **kwargs):
    left, right = socket.socketpair()

    def send():
        try:
            left.sendall(frame)
        except OSError:
            pass  # the reader gave up early

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    try:
        return read_frame_sync(right, **kwargs)
    finally:
        right.close()
        sender.join(timeout=10)
        left.close()
        assert not sender.is_alive(), "sender thread hung"


def _read_async(frame: bytes, **kwargs):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_frame(reader, **kwargs)

    return asyncio.run(run())


def _on_loop(handle, function):
    """``function()`` evaluated on the server's loop thread."""

    async def call():
        return function()

    return handle.call(call())


def _queued(handle):
    """Admitted queries waiting in the tenant queues of a served handle."""
    return _on_loop(
        handle, lambda: sum(len(state.queue) for state in handle.server._tenants.values())
    )


class TestProtocol:
    def test_frame_round_trip_sync(self):
        rng = np.random.default_rng(0)
        arrays = {
            "outputs": rng.normal(size=(3, 5)),
            "labels": np.array([1, 4, 0], dtype=np.int64),
            "flags": np.array([True, False, True]),
        }
        header = {"type": "response", "status": "ok", "request_id": 9}
        left, right = socket.socketpair()
        try:
            send_frame_sync(left, header, arrays)
            decoded_header, decoded_arrays = read_frame_sync(right)
        finally:
            left.close()
            right.close()
        assert decoded_header == header  # 'arrays' descriptor list stripped
        assert set(decoded_arrays) == set(arrays)
        for name, array in arrays.items():
            np.testing.assert_array_equal(decoded_arrays[name], array)
            assert decoded_arrays[name].dtype == array.dtype

    def test_bad_magic_rejected(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(encode_frame({"type": "ping"}))
            frame[0:2] = b"XX"
            left.sendall(bytes(frame))
            with pytest.raises(ProtocolError, match="magic"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_version_mismatch_rejected(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(encode_frame({"type": "ping"}))
            assert frame[0:2] == MAGIC
            frame[2] = 99
            left.sendall(bytes(frame))
            with pytest.raises(ProtocolError, match="version"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_oversized_payload_rejected_before_allocation(self):
        left, right = socket.socketpair()
        try:
            send_frame_sync(left, {"type": "query"}, {"inputs": np.zeros((64, 8))})
            with pytest.raises(ProtocolError, match="max_frame_bytes"):
                read_frame_sync(right, max_frame_bytes=1024)
        finally:
            left.close()
            right.close()

    def test_header_and_payload_share_one_ceiling(self):
        """max_frame_bytes bounds header + arrays together, in both codecs:
        a ~600 B header with ~600 B of inputs is refused at 1000."""
        frame = encode_frame({"type": "query", "pad": "x" * 560}, {"inputs": np.zeros(75)})
        body = len(frame) - _PREAMBLE.size
        assert body > 1000
        for read in (_read_sync, _read_async):
            with pytest.raises(ProtocolError, match="max_frame_bytes"):
                read(frame, max_frame_bytes=1000)
            with pytest.raises(ProtocolError, match="max_frame_bytes"):
                read(frame, max_frame_bytes=body - 1)
            _, arrays = read(frame, max_frame_bytes=body)
            np.testing.assert_array_equal(arrays["inputs"], np.zeros(75))

    def test_non_wire_dtype_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="dtype"):
            encode_frame({"type": "x"}, {"bad": np.zeros(3, dtype=np.complex128)})

    @pytest.mark.parametrize("dtype", [">f8", ">i8", ">u8"])
    def test_non_native_byte_order_rejected_at_encode(self, dtype):
        # Sending these under their native wire name would flip every value.
        with pytest.raises(ProtocolError, match="non-wire dtype"):
            encode_frame({"type": "x"}, {"bad": np.zeros(3, dtype=dtype)})

    def test_wire_dtype_frames_are_unchanged(self):
        arrays = {
            name: np.arange(6).reshape(2, 3).astype(name)
            for name in ("float64", "float32", "int64", "int32", "uint64", "bool")
        }
        frame = encode_frame({"type": "x"}, arrays)
        header_len = _PREAMBLE.unpack(frame[: _PREAMBLE.size])[2]
        header = json.loads(frame[_PREAMBLE.size : _PREAMBLE.size + header_len])
        assert header["arrays"] == [
            {"name": name, "dtype": name, "shape": [2, 3]} for name in arrays
        ]
        assert frame[_PREAMBLE.size + header_len :] == b"".join(
            array.tobytes() for array in arrays.values()
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_header_rejected_at_encode(self, value):
        with pytest.raises(ProtocolError, match="not finite JSON"):
            encode_frame({"type": "stats", "x": value})

    def test_overflowing_shape_rejected_as_protocol_error(self):
        # An adversarial descriptor whose element count would wrap an int64
        # product to ~0 must still hit the size bound as a ProtocolError —
        # not sail through to a ValueError in reshape.
        header = {
            "type": "query",
            "arrays": [
                {"name": "inputs", "dtype": "float64", "shape": [2**32, 2**32]}
            ],
        }
        header_bytes = json.dumps(header).encode("utf-8")
        frame = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, len(header_bytes))
        left, right = socket.socketpair()
        try:
            left.sendall(frame + header_bytes)
            with pytest.raises(ProtocolError, match="max_frame_bytes"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_header_raises_protocol_error(self, case):
        """Both decoders reject each hostile header with ProtocolError only."""
        for read in (_read_sync, _read_async):
            with pytest.raises(ProtocolError):
                read(MALFORMED_FRAMES[case])


#: Any JSON value, for the fields of a hostile array descriptor.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
_SHAPES = _JSON_VALUES | st.lists(st.integers(-1, 3) | _JSON_VALUES, max_size=80)
_DESCRIPTORS = st.fixed_dictionaries(
    {
        "name": st.text(max_size=8) | _JSON_VALUES,
        "dtype": st.sampled_from(["float64", "int32", "bool"]) | _JSON_VALUES,
        "shape": _SHAPES,
    }
)
_FUZZ_MAX_FRAME_BYTES = 8192


class TestDecoderFuzz:
    """Whatever descriptors a frame carries, the decoder raises only ProtocolError."""

    @settings(deadline=None, max_examples=300)
    @given(descriptors=st.lists(_DESCRIPTORS, min_size=1, max_size=3))
    @example(descriptors=[{"name": "inputs", "dtype": "float64", "shape": [1] * 65}])
    def test_only_protocol_error_escapes(self, descriptors):
        header = json.dumps({"type": "query", "arrays": descriptors})
        # Enough payload for any frame the size bound admits, so a frame the
        # decoder accepts never waits on bytes that do not come.  A longer
        # header is rejected from the preamble alone, so the truncated send
        # always fits the socket buffer.
        frame = _raw_frame(header, bytes(_FUZZ_MAX_FRAME_BYTES))
        left, right = socket.socketpair()
        right.settimeout(10)  # a decoder that hangs fails, not blocks
        try:
            left.sendall(frame[: _PREAMBLE.size + 2 * _FUZZ_MAX_FRAME_BYTES])
            try:
                read_frame_sync(right, max_frame_bytes=_FUZZ_MAX_FRAME_BYTES)
            except ProtocolError:
                pass
        finally:
            left.close()
            right.close()


class TestWireBitIdentity:
    """Acceptance: served over TCP == direct seeded query, bit for bit."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_oracle_responses_bit_identical(self, name):
        requests = _requests()
        with serve_in_thread(_oracle(name), _config()) as handle:
            with NetClient(handle.address, tenant="t0") as client:
                responses = [client.query(request) for request in requests]
        direct = _oracle(name)  # identically-built victim, fresh instance
        for request, response in zip(requests, responses):
            reference = direct.query(request, seeds=_replay_seeds(response))
            np.testing.assert_array_equal(response.queries, reference.queries)
            np.testing.assert_array_equal(response.outputs, reference.outputs)
            np.testing.assert_array_equal(response.labels, reference.labels)
            np.testing.assert_array_equal(response.power, reference.power)

    def test_concurrent_clients_coalesce(self):
        """Multiple connections share fused traversals, rows stay their own."""
        requests = _requests((1,) * 8)
        barrier = threading.Barrier(8)
        config = _config(service=ServiceConfig(max_batch=16, max_wait_ms=20))
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:

            def client_run(request):
                with NetClient(handle.address, tenant="shared") as client:
                    barrier.wait()
                    return client.query(request)

            import concurrent.futures

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                responses = list(pool.map(client_run, requests))
            stats = handle.service_stats()
        for request, response in zip(requests, responses):
            np.testing.assert_array_equal(response.queries, request)
        assert stats["coalescing_factor"] > 1.0


class TestFaultTolerance:
    def test_lost_response_retried_idempotently(self):
        """The response is dropped after the work ran: the retry must be
        served from the idempotency cache, bit-identical and never
        double-charged."""
        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            with NetClient(handle.address, tenant="flaky") as client:
                first = client.query(np.ones((2, N_FEATURES)) * 0.3)
                handle.drop_responses(1)
                request = np.ones((3, N_FEATURES)) * 0.6
                response = client.query(request)
                assert client.n_retries >= 1
                stats = client.stats()
        direct = _oracle("paper/mnist-softmax")
        reference = direct.query(request, seeds=_replay_seeds(response))
        np.testing.assert_array_equal(response.outputs, reference.outputs)
        np.testing.assert_array_equal(response.power, reference.power)
        counters = stats["tenants"]["flaky"]
        assert counters["n_deduped"] >= 1  # the retry hit the cache
        # charged exactly once per logical request: 2 + 3 rows, no more
        assert counters["rows_charged"] == len(first.queries) + len(request)
        assert counters["rows_served"] == counters["rows_charged"]

    def test_client_survives_server_restart(self):
        oracle = _oracle("paper/mnist-softmax")
        first_handle = serve_in_thread(oracle, _config())
        host, port = first_handle.address
        client = NetClient((host, port), tenant="durable", config=_config())
        try:
            client.query(np.ones((1, N_FEATURES)))
            first_handle.close()
            # Same port, fresh victim: request ids restart from 0.
            second_handle = serve_in_thread(
                _oracle("paper/mnist-softmax"), _config(host=host, port=port)
            )
            try:
                request = np.ones((2, N_FEATURES)) * 0.4
                response = client.query(request)
                assert client.n_retries >= 1
            finally:
                second_handle.close()
        finally:
            client.close()
        direct = _oracle("paper/mnist-softmax")
        reference = direct.query(request, seeds=_replay_seeds(response))
        np.testing.assert_array_equal(response.outputs, reference.outputs)

    def test_submit_after_close_raises_service_closed(self):
        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            client = NetClient(handle.address)
            client.query(np.ones((1, N_FEATURES)))
            client.close()
            client.close()  # idempotent
            with pytest.raises(ServiceClosedError):
                client.query(np.ones((1, N_FEATURES)))

    def test_remote_failure_is_terminal_and_uncharged(self):
        from repro.netservice.errors import RemoteServiceError

        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            with NetClient(handle.address, tenant="bad") as client:
                with pytest.raises(RemoteServiceError):
                    client.query(np.ones((1, N_FEATURES + 1)))  # wrong width
                assert client.n_retries == 0
                stats = client.stats()
        assert stats["tenants"]["bad"]["rows_charged"] == 0
        # no successful tick: the undefined ratio travels as null, not NaN
        assert stats["tenants"]["bad"]["coalescing_factor"] is None

    @pytest.mark.parametrize(
        "offending",
        [
            np.full((1, N_FEATURES - 1), 0.25),
            np.full((1, N_FEATURES, 2), 0.25),
            np.full((1, N_FEATURES), np.nan),
            np.full((1, N_FEATURES), -np.inf),
        ],
        ids=["narrow-row", "three-dims", "nan-row", "inf-row"],
    )
    def test_wrong_width_request_fails_alone(self, offending):
        """One tenant's wrong-width, wrong-shape or non-finite request must
        not poison the tick it would share: its batch-mate from another
        tenant is served as if alone, and only the offender gets an
        (uncharged) remote error."""
        config = _config(service=ServiceConfig(max_batch=2, max_wait_ms=50))
        request = np.full((1, N_FEATURES), 0.25)
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            handle.pause_scheduling()
            sockets = {}
            try:
                for tenant, inputs in (("mallory", offending), ("bob", request)):
                    sock = socket.create_connection(handle.address, timeout=30)
                    sockets[tenant] = sock
                    send_frame_sync(
                        sock,
                        {"type": "query", "tenant": tenant, "key": f"{tenant}-1"},
                        {"inputs": inputs},
                    )
                time.sleep(0.3)  # let both frames be admitted into the queues
                handle.resume_scheduling()
                responses = {
                    tenant: read_frame_sync(sock) for tenant, sock in sockets.items()
                }
            finally:
                for sock in sockets.values():
                    sock.close()
            stats = handle.stats()
        mallory, _ = responses["mallory"]
        assert mallory["status"] == "error"
        assert mallory["code"] == "remote-error"
        assert stats["mallory"]["rows_charged"] == 0
        bob, bob_arrays = responses["bob"]
        assert bob["status"] == "ok"
        seeds = derive_request_seeds(bob["base_seed"], bob["request_id"], 1)
        reference = _oracle("paper/mnist-softmax").query(request, seeds=seeds)
        np.testing.assert_array_equal(bob_arrays["outputs"], reference.outputs)
        np.testing.assert_array_equal(bob_arrays["power"], reference.power)
        assert stats["bob"]["rows_charged"] == 1

    def test_unserialisable_response_reports_remote_error(self):
        """A response the server cannot serialise must still answer the
        client with a typed error frame, not die as an unhandled task."""
        class _PoisonedBackend(Oracle):
            def query(self, inputs, *, seeds=None):
                response = super().query(inputs, seeds=seeds)
                # passes _json_safe_metadata's shallow list check, but is
                # not JSON-encodable — encode_frame raises at send time
                response.metadata["poison"] = [object()]
                return response

        backend = _PoisonedBackend(_target("paper/mnist-softmax"))
        with serve_in_thread(backend, _config()) as handle:
            sock = socket.create_connection(handle.address, timeout=30)
            try:
                send_frame_sync(
                    sock,
                    {"type": "query", "tenant": "t", "key": "poison-1", "cid": 7},
                    {"inputs": np.ones((1, N_FEATURES))},
                )
                header, _ = read_frame_sync(sock)
                assert header["status"] == "error"
                assert header["code"] == "remote-error"
                assert header["cid"] == 7
            finally:
                sock.close()


class TestTenancy:
    def test_weighted_fairness_under_saturation(self):
        """Acceptance: with every request admitted before dispatch starts and
        strict weighted-fair order (scheduler_window=1), rows served per
        tenant track the 1:3 weight ratio in every meaningful prefix."""
        config = _config(
            tenants=(
                TenantConfig("alice", weight=1.0),
                TenantConfig("bob", weight=3.0),
            ),
            scheduler_window=1,
            max_inflight_per_connection=64,
            service=ServiceConfig(max_batch=1, max_wait_ms=0),
        )
        n_each = 24
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            handle.pause_scheduling()
            sockets = {}
            try:
                for tenant in ("alice", "bob"):
                    sock = socket.create_connection(handle.address, timeout=30)
                    sockets[tenant] = sock
                    for i in range(n_each):
                        send_frame_sync(
                            sock,
                            {"type": "query", "tenant": tenant, "key": f"{tenant}-{i}"},
                            {"inputs": np.ones((1, N_FEATURES)) * 0.5},
                        )
                time.sleep(0.3)  # let every frame be admitted into the queues
                handle.resume_scheduling()
                for sock in sockets.values():
                    for _ in range(n_each):
                        header, _ = read_frame_sync(sock)
                        assert header["status"] == "ok"
            finally:
                for sock in sockets.values():
                    sock.close()
            order = [tenant for tenant, _ in handle.server.dispatch_log]
            stats = handle.stats()
        # While both tenants are backlogged (first 4*k dispatches), strict
        # WFQ serves alice:bob = 1:3 within one scheduling period.
        for prefix in (8, 16, 24, 32):
            window = order[:prefix]
            alice = window.count("alice")
            bob = window.count("bob")
            assert abs(bob - 3 * alice) <= 3, (prefix, alice, bob)
        assert stats["alice"]["rows_served"] == n_each
        assert stats["bob"]["rows_served"] == n_each
        assert stats["alice"]["weight"] == 1.0
        assert stats["bob"]["weight"] == 3.0

    def test_query_budget_enforced_and_never_overcharged(self):
        config = _config(
            tenants=(
                TenantConfig("attacker", weight=1.0, query_budget=5),
                TenantConfig("victim", weight=2.0),
            )
        )
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            with NetClient(handle.address, tenant="attacker") as attacker, NetClient(
                handle.address, tenant="victim"
            ) as victim:
                attacker.query(np.ones((2, N_FEATURES)))  # 2/5 charged
                with pytest.raises(QueryBudgetExceeded):
                    attacker.query(np.ones((4, N_FEATURES)))  # would be 6/5
                assert attacker.n_retries == 0  # terminal: no retry storm
                mid = attacker.stats()["tenants"]["attacker"]
                assert mid["rows_charged"] == 2  # the failed request charged nothing
                assert mid["budget_remaining"] == 3
                attacker.query(np.ones((3, N_FEATURES)))  # exactly exhausts it
                with pytest.raises(QueryBudgetExceeded):
                    attacker.query(np.ones((1, N_FEATURES)))
                victim.query(np.ones((4, N_FEATURES)))  # unbounded tenant unaffected
                stats = victim.stats()
        assert stats["tenants"]["attacker"]["rows_charged"] == 5
        assert stats["tenants"]["attacker"]["budget_remaining"] == 0
        assert stats["tenants"]["victim"]["rows_charged"] == 4
        assert stats["tenants"]["victim"]["budget_remaining"] is None

    def test_per_tenant_coalescing_stats(self):
        config = _config(service=ServiceConfig(max_batch=16, max_wait_ms=20))
        barrier = threading.Barrier(4)
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:

            def client_run(index):
                with NetClient(handle.address, tenant=f"t{index % 2}") as client:
                    barrier.wait()
                    for _ in range(4):
                        client.query(np.ones((1, N_FEATURES)) * 0.2)

            threads = [
                threading.Thread(target=client_run, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = handle.stats()
        for tenant in ("t0", "t1"):
            counters = stats[tenant]
            assert counters["n_requests"] == 8
            assert counters["rows_served"] == 8
            assert counters["n_ticks"] <= counters["n_requests"]
            assert counters["coalescing_factor"] >= 1.0


class TestBackpressureAndDrain:
    def test_per_connection_inflight_bound_pauses_reading(self):
        config = _config(max_inflight_per_connection=2, scheduler_window=1)
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            handle.pause_scheduling()
            sock = socket.create_connection(handle.address, timeout=30)
            try:
                for i in range(5):
                    send_frame_sync(
                        sock,
                        {"type": "query", "tenant": "pusher", "key": f"k{i}"},
                        {"inputs": np.ones((1, N_FEATURES))},
                    )

                deadline = time.time() + 5
                while _queued(handle) < 2 and time.time() < deadline:
                    time.sleep(0.02)
                time.sleep(0.2)  # excess frames must stay unread
                assert _queued(handle) == 2
                handle.resume_scheduling()
                for _ in range(5):  # nothing was dropped: all five complete
                    header, _ = read_frame_sync(sock)
                    assert header["status"] == "ok"
            finally:
                sock.close()

    def test_pipelined_queries_hold_no_task(self):
        """An admitted query waits as a future, not a task: the server
        loop's task count does not grow with the frames in flight."""
        config = _config(max_inflight_per_connection=8)
        tasks = {}
        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            handle.pause_scheduling()
            sock = socket.create_connection(handle.address, timeout=30)
            try:
                sent = 0
                for n_frames in (2, 8):
                    for key in range(sent, n_frames):
                        send_frame_sync(
                            sock,
                            {"type": "query", "tenant": "t", "key": f"k{key}"},
                            {"inputs": np.ones((1, N_FEATURES))},
                        )
                    sent = n_frames
                    deadline = time.time() + 5
                    while _queued(handle) < n_frames and time.time() < deadline:
                        time.sleep(0.02)
                    assert _queued(handle) == n_frames
                    tasks[n_frames] = _on_loop(handle, lambda: len(asyncio.all_tasks()))
                handle.resume_scheduling()
                for _ in range(sent):
                    header, _ = read_frame_sync(sock)
                    assert header["status"] == "ok"
            finally:
                sock.close()
        assert tasks[8] == tasks[2]

    def test_unread_replies_stop_admission(self):
        """A client that pipelines queries and never reads its replies stops
        being read: admission halts and the server's write buffer stays
        bounded instead of holding every reply."""
        config = _config(max_inflight_per_connection=8)
        n_frames = 2000
        row = np.ones((1, N_FEATURES)) * 0.5
        frames = b"".join(
            encode_frame(
                {"type": "query", "tenant": "hoarder", "key": f"k{i:06d}"},
                {"inputs": row},
            )
            for i in range(n_frames)
        )
        frame_bytes = len(frames) // n_frames

        def transports():
            return [conn.writer.transport for conn in handle.server._connections]

        def n_received():
            return handle.stats().get("hoarder", {}).get("n_received", 0)

        with serve_in_thread(_oracle("paper/mnist-softmax"), config) as handle:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            try:
                sock.settimeout(30)
                sock.connect(handle.address)
                send_frame_sync(sock, {"type": "ping"})
                read_frame_sync(sock)
                # Small kernel buffers on both ends, so unread replies reach
                # the server's own write buffer after a few frames.
                _on_loop(handle, lambda: [
                    transport.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                    )
                    for transport in transports()
                ])
                sock.setblocking(False)
                sent, stalled = 0, None
                while sent < len(frames):
                    try:
                        sent += sock.send(frames[sent:sent + 65536])
                        stalled = None
                    except BlockingIOError:
                        stalled = stalled or time.monotonic()
                        if time.monotonic() - stalled > 0.5:
                            break  # the server stopped reading
                        time.sleep(0.01)
                received = -1
                while received != n_received():
                    received = n_received()
                    time.sleep(0.2)
                buffered = _on_loop(handle, lambda: [
                    transport.get_write_buffer_size() for transport in transports()
                ])
            finally:
                sock.close()
        assert received < sent // frame_bytes
        assert max(buffered) < 256 * 1024

    def test_graceful_drain_fails_queued_requests_typed(self):
        """Acceptance: a stopping server answers queued requests with a typed
        retryable error — it never hangs them or silently drops them."""
        config = _config(scheduler_window=1)
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), config)
        handle.pause_scheduling()  # requests will sit in the tenant queue
        sock = socket.create_connection(handle.address, timeout=30)
        try:
            send_frame_sync(
                sock,
                {"type": "query", "tenant": "stuck", "key": "drain-1"},
                {"inputs": np.ones((1, N_FEATURES))},
            )
            time.sleep(0.2)  # admitted, queued, undispatched
            handle.close()  # graceful drain
            header, _ = read_frame_sync(sock)
            assert header["status"] == "error"
            assert header["code"] == "service-closed"
        finally:
            sock.close()

    def test_drained_client_raises_retryable_unavailable(self):
        config = _config(scheduler_window=1, max_retries=0)
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), config)
        handle.pause_scheduling()
        client = NetClient(handle.address, tenant="stuck", config=config)
        client.ping()  # establish the connection up front
        try:
            result = {}

            def submit():
                try:
                    client.query(np.ones((1, N_FEATURES)))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    result["error"] = exc

            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(0.3)
            handle.close()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert isinstance(result.get("error"), ServiceUnavailableError)
            assert result["error"].retryable
        finally:
            client.close()

    def test_stop_completes_with_idle_connected_client(self):
        """stop() must not hang on a connected-but-idle client: on 3.12+
        Server.wait_closed() waits for connection handlers, which only
        unblock once their transports are closed."""
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), _config())
        sock = socket.create_connection(handle.address, timeout=30)
        try:
            send_frame_sync(sock, {"type": "ping"})
            header, _ = read_frame_sync(sock)
            assert header["status"] == "ok"
            closer = threading.Thread(target=handle.close)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "stop() hung on an idle client"
        finally:
            sock.close()

    def test_stop_while_scheduler_blocked_on_window_drains_queued(self):
        """stop() while the scheduler is blocked acquiring the dispatch
        window must still fail the queued request with the typed drain
        error — cancellation there must not strand a popped request."""
        config = _config(scheduler_window=1)
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), config)
        sock = socket.create_connection(handle.address, timeout=30)
        try:
            # Hold the (size-1) window so the scheduler blocks in acquire().
            async def hold_window():
                await handle.server._window.acquire()

            handle.call(hold_window())
            send_frame_sync(
                sock,
                {"type": "query", "tenant": "stuck", "key": "window-1"},
                {"inputs": np.ones((1, N_FEATURES))},
            )
            time.sleep(0.3)  # admitted; scheduler now parked on the window
            closer = threading.Thread(target=handle.close)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), (
                "stop() hung: request stranded by scheduler cancellation"
            )
            header, _ = read_frame_sync(sock)
            assert header["status"] == "error"
            assert header["code"] == "service-closed"
        finally:
            sock.close()

    def test_stop_while_scheduler_waits_on_coalescer_refunds_and_drains(self):
        """stop() cancels a scheduler held by the coalescer's max_pending
        backpressure: the query it popped and charged is refunded and gets
        the typed drain error."""
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), _config())
        blocked = threading.Event()

        async def backpressured(*args, **kwargs):
            blocked.set()
            await asyncio.get_running_loop().create_future()  # never resolves

        def hold_enqueue():
            handle.server.service.enqueue = backpressured

        _on_loop(handle, hold_enqueue)
        sock = socket.create_connection(handle.address, timeout=30)
        try:
            send_frame_sync(
                sock,
                {"type": "query", "tenant": "stuck", "key": "held-1"},
                {"inputs": np.ones((1, N_FEATURES))},
            )
            assert blocked.wait(timeout=10)
            assert handle.stats()["stuck"]["rows_charged"] == 1
            closer = threading.Thread(target=handle.close)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "stop() hung on a held enqueue"
            header, _ = read_frame_sync(sock)
            assert header["status"] == "error"
            assert header["code"] == "service-closed"
            assert handle.server.stats()["stuck"]["rows_charged"] == 0
        finally:
            sock.close()

    def test_stop_completes_in_a_task_that_caught_its_own_cancel(self):
        """The ``serve`` CLI's Ctrl-C path: the main task swallows its own
        cancellation, then ``async with`` stops the server from that task.
        The drain must still finish: the queued request is answered with
        the typed error, the transport closes and the stopped event is set."""
        config = _config(scheduler_window=1)
        inputs = {"inputs": np.ones((1, N_FEATURES))}

        async def run():
            server = NetworkQueryService(_oracle("paper/mnist-softmax"), config)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            write_frame(writer, {"type": "query", "tenant": "t", "key": "k0"}, inputs)
            await writer.drain()
            served, _ = await asyncio.wait_for(read_frame(reader), timeout=10)
            server.pause_scheduling()
            write_frame(writer, {"type": "query", "tenant": "t", "key": "k1"}, inputs)
            await writer.drain()
            deadline = time.monotonic() + 10
            while not server._tenants["t"].queue and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            asyncio.current_task().cancel()
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                pass
            await server.stop()
            drained, _ = await asyncio.wait_for(read_frame(reader), timeout=10)
            tail = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return server, served, drained, tail

        server, served, drained, tail = asyncio.run(run())
        assert served["status"] == "ok"
        assert drained["status"] == "error"
        assert drained["code"] == "service-closed"
        assert tail == b""  # the server closed the transport
        assert not server.started
        assert server._stopped_event.is_set()

    def test_malformed_frames_get_an_error_frame(self):
        """A frame the decoder rejects is answered, not dropped silently."""
        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            for case, frame in sorted(MALFORMED_FRAMES.items()):
                sock = socket.create_connection(handle.address, timeout=30)
                try:
                    sock.sendall(frame)
                    header, _ = read_frame_sync(sock)
                finally:
                    sock.close()
                assert header["status"] == "error", case
                assert header["code"] == "protocol", case

    def test_unknown_request_type_reports_protocol_error(self):
        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            sock = socket.create_connection(handle.address, timeout=30)
            try:
                send_frame_sync(sock, {"type": "frobnicate"})
                header, _ = read_frame_sync(sock)
                assert header["status"] == "error"
                assert header["code"] == "protocol"
                # the connection survives a bad *request* (vs a bad frame)
                send_frame_sync(sock, {"type": "ping"})
                header, _ = read_frame_sync(sock)
                assert header["status"] == "ok"
            finally:
                sock.close()


class TestCli:
    def test_demo_runs_end_to_end(self):
        """``python -m repro.netservice demo`` serves both tenants and prints
        one stats line per tenant, with warnings as errors."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "repro.netservice",
             "demo", "--queries", "8"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, path)))},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        tenants = [
            line.split()[0]
            for line in proc.stdout.splitlines()
            if "rows_served=16 " in line
        ]
        assert tenants == ["alice", "bob"]


class TestServerHandle:
    """The synchronous handle's teardown: idempotent and race-safe."""

    def test_close_is_idempotent(self):
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), _config())
        with NetClient(handle.address, config=_config()) as client:
            client.query(np.ones((1, N_FEATURES)))
        handle.close()
        handle.close()
        assert handle.loop.is_closed()

    def test_concurrent_close_from_many_threads(self):
        handle = serve_in_thread(_oracle("paper/mnist-softmax"), _config())
        with NetClient(handle.address, config=_config()) as client:
            client.query(np.ones((1, N_FEATURES)))
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            list(pool.map(lambda _: handle.close(), range(8)))
        assert handle.loop.is_closed()


class TestNetServiceConfig:
    def test_round_trip_and_strictness(self):
        config = NetServiceConfig(
            port=7707,
            service=ServiceConfig(max_batch=8, base_seed=5),
            tenants=(TenantConfig("a", weight=2.0, query_budget=100),),
            scheduler_window=4,
            max_retries=2,
        )
        assert NetServiceConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="unknown NetServiceConfig fields"):
            NetServiceConfig.from_dict({"max_inflght": 3})
        with pytest.raises(ValueError, match="unknown TenantConfig fields"):
            TenantConfig.from_dict({"name": "a", "wieght": 2.0})
        # nested strictness propagates
        payload = config.to_dict()
        payload["service"]["max_btch"] = 1
        with pytest.raises(ValueError, match="unknown ServiceConfig fields"):
            NetServiceConfig.from_dict(payload)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetServiceConfig(port=70000)
        with pytest.raises(ValueError):
            NetServiceConfig(tenants=(TenantConfig("a"), TenantConfig("a")))
        with pytest.raises(ValueError):
            TenantConfig("a", weight=0.0)
        with pytest.raises(ValueError):
            TenantConfig("", weight=1.0)
        with pytest.raises(ValueError):
            TenantConfig("a", query_budget=0)

    def test_tenant_policy_fallback(self):
        config = NetServiceConfig(
            tenants=(TenantConfig("vip", weight=4.0),),
            default_weight=0.5,
            default_query_budget=10,
        )
        assert config.tenant_policy("vip").weight == 4.0
        anon = config.tenant_policy("anon")
        assert anon.weight == 0.5
        assert anon.query_budget == 10

    def test_presets(self):
        preset = get_netservice_preset("net-two-tenant")
        assert {tenant.name for tenant in preset.tenants} == {"alice", "bob"}
        assert preset.tenant_policy("bob").weight == 3.0
        budgeted = get_netservice_preset("net-budgeted")
        assert budgeted.tenant_policy("attacker").query_budget == 512
        with pytest.raises(KeyError, match="unknown netservice preset"):
            get_netservice_preset("net-nope")

    def test_handshake_metadata(self):
        with serve_in_thread(_oracle("paper/mnist-softmax"), _config()) as handle:
            with NetClient(handle.address) as client:
                assert client.output_mode == "raw"
                assert client.n_outputs == N_CLASSES
                assert client.base_seed == 0
                assert client.ping()


class TestNetServiceRegressionGate:
    """CI-facing behaviour of the bench_netservice gate in check_bench_regression."""

    @staticmethod
    def _load_script():
        import importlib.util
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression_for_netservice_tests",
            repo_root / "scripts" / "check_bench_regression.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _passing_results():
        return {
            "engine": {
                "oracle_query": [{"batch_size": 16, "speedup": 2.5}],
                "array_ops_per_power_query_batch": 1,
            },
            "bench_netservice": {
                "responses_identical": True,
                "one_per_connection_s": 0.5,
                "offered_load": [
                    {"workers": 1, "speedup_vs_one_per_connection": 1.1},
                    {"workers": 8, "speedup_vs_one_per_connection": 1.5},
                    {"workers": 16, "speedup_vs_one_per_connection": 1.7},
                ],
            },
        }

    def test_passing_payload(self):
        check = self._load_script()
        assert check.check_results(self._passing_results()) == []

    def test_slow_offered_load_fails(self):
        check = self._load_script()
        results = self._passing_results()
        for row in results["bench_netservice"]["offered_load"]:
            row["speedup_vs_one_per_connection"] = 1.1
        failures = check.check_results(results)
        assert any("one-request-per-connection" in failure for failure in failures)

    def test_non_identical_responses_fail(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_netservice"]["responses_identical"] = False
        failures = check.check_results(results)
        assert any("bit-identical" in failure for failure in failures)

    def test_low_worker_counts_only_fail(self):
        check = self._load_script()
        results = self._passing_results()
        results["bench_netservice"]["offered_load"] = [
            {"workers": 1, "speedup_vs_one_per_connection": 1.1}
        ]
        failures = check.check_results(results)
        assert any(">= 8 workers" in failure for failure in failures)

    def test_missing_baseline_fails(self):
        check = self._load_script()
        results = self._passing_results()
        del results["bench_netservice"]["one_per_connection_s"]
        failures = check.check_results(results)
        assert any("one_per_connection_s" in failure for failure in failures)

    def test_cli_override_tightens_the_floor(self):
        check = self._load_script()
        results = self._passing_results()
        assert check.check_results(results) == []
        failures = check.check_results(results, min_net_speedup=5.0)
        assert any("5.00x" in failure for failure in failures)

    def test_tolerance_relaxes_the_floor(self):
        check = self._load_script()
        results = self._passing_results()
        for row in results["bench_netservice"]["offered_load"]:
            row["speedup_vs_one_per_connection"] = 1.2
        assert check.check_results(results)  # fails at the strict 1.3 floor
        assert check.check_results(results, tolerance=0.15) == []

    def test_absent_section_is_not_checked(self):
        check = self._load_script()
        results = self._passing_results()
        del results["bench_netservice"]
        assert check.check_results(results) == []
