"""The blocking socket codec of the networked service's wire.

``read_frame_sync`` / ``send_frame_sync`` read and write exact byte counts
over a blocking socket.  A peer that goes away mid-frame surfaces as
:class:`~repro.netservice.errors.ConnectionLostError`, a preamble that
announces too much as :class:`~repro.netservice.errors.ProtocolError`, and a
socket timeout passes through unchanged for the client's retry policy.
"""

import socket
import threading

import numpy as np
import pytest

from repro.netservice.errors import ConnectionLostError, ProtocolError
from repro.netservice.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    _PREAMBLE,
    encode_frame,
    read_frame_sync,
    send_frame_sync,
)

pytestmark = pytest.mark.netservice


@pytest.fixture
def socket_pair():
    left, right = socket.socketpair()
    right.settimeout(10)  # a reader that hangs fails, not blocks
    yield left, right
    left.close()
    right.close()


def _frame():
    header = {"type": "query", "tenant": "t0"}
    arrays = {"inputs": np.arange(12, dtype=np.float64).reshape(3, 4)}
    return header, arrays, encode_frame(header, arrays)


class TestBlockingCodec:
    def test_frame_reassembled_from_many_small_sends(self, socket_pair):
        left, right = socket_pair
        header, arrays, frame = _frame()

        def trickle():
            for start in range(0, len(frame), 7):
                left.sendall(frame[start : start + 7])

        sender = threading.Thread(target=trickle)
        sender.start()
        received_header, received_arrays = read_frame_sync(right)
        sender.join(timeout=10)
        assert received_header["tenant"] == header["tenant"]
        assert np.array_equal(received_arrays["inputs"], arrays["inputs"])
        assert received_arrays["inputs"].dtype == arrays["inputs"].dtype

    @pytest.mark.parametrize("cut", ["preamble", "payload"])
    def test_peer_close_mid_frame_raises_connection_lost(self, socket_pair, cut):
        left, right = socket_pair
        _, _, frame = _frame()
        keep = _PREAMBLE.size - 2 if cut == "preamble" else len(frame) - 5
        left.sendall(frame[:keep])
        left.close()
        with pytest.raises(ConnectionLostError, match="closed mid-frame"):
            read_frame_sync(right)

    def test_timeout_passes_through_unchanged(self, socket_pair):
        _, right = socket_pair
        right.settimeout(0.05)
        with pytest.raises(socket.timeout):
            read_frame_sync(right)

    def test_send_to_closed_peer_raises_connection_lost(self, socket_pair):
        left, right = socket_pair
        right.close()
        header, arrays, _ = _frame()
        with pytest.raises(ConnectionLostError, match="while sending"):
            send_frame_sync(left, header, arrays)

    def test_oversized_header_rejected_from_the_preamble(self, socket_pair):
        left, right = socket_pair
        # Only the preamble is sent: the reader must refuse before waiting
        # for a header that never comes.
        left.sendall(_PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, 1 << 20))
        with pytest.raises(ProtocolError, match="exceeds max_frame_bytes=4096"):
            read_frame_sync(right, max_frame_bytes=4096)
