"""Length-prefixed framing shared by the two TCP wires.

The networked query service (:mod:`repro.netservice.protocol`) and the
work queue (:mod:`repro.executor.protocol`) open every frame with the same
fixed preamble and differ only in its magic and in what the announced bytes
hold::

    +-------+---------+----------------+--------------------------+
    | magic | version |     length     |  length bytes            |
    | 2 B   | 1 byte  | uint32 big-end |  (protocol-defined)      |
    +-------+---------+----------------+--------------------------+

A :class:`Wire` is bound once per protocol to its magic, version and error
types.  It owns the preamble check and blocking socket I/O; every transport
failure surfaces as the protocol's own ``connection_lost`` type and every
bad preamble as its ``protocol_error`` type.  ``socket.timeout`` passes
through unchanged, because both protocols' retry policies key on it.
"""

from __future__ import annotations

import socket
import struct

#: magic, protocol version, announced length.
PREAMBLE = struct.Struct("!2sBI")

#: Largest single ``recv`` call; long frames arrive in several.
_RECV_CHUNK = 1 << 20


class Wire:
    """The framing of one protocol: its magic, version and typed errors."""

    __slots__ = ("magic", "version", "protocol_error", "connection_lost")

    def __init__(self, magic: bytes, version: int, protocol_error, connection_lost):
        self.magic = magic
        self.version = version
        self.protocol_error = protocol_error
        self.connection_lost = connection_lost

    def preamble(self, length: int) -> bytes:
        """The preamble announcing ``length`` bytes."""
        return PREAMBLE.pack(self.magic, self.version, length)

    def check_preamble(self, raw: bytes, max_frame_bytes: int) -> int:
        """Validate a received preamble and return the announced length."""
        magic, version, length = PREAMBLE.unpack(raw)
        if magic != self.magic:
            raise self.protocol_error(
                f"bad frame magic {magic!r} (expected {self.magic!r})"
            )
        if version != self.version:
            raise self.protocol_error(
                f"unsupported protocol version {version} (this build speaks "
                f"{self.version})"
            )
        if length > max_frame_bytes:
            raise self.protocol_error(
                f"frame length {length} exceeds max_frame_bytes={max_frame_bytes}"
            )
        return length

    def recv_exactly(self, sock: socket.socket, n: int) -> bytes:
        """Read exactly ``n`` bytes from a blocking socket or raise."""
        chunks = []
        remaining = n
        while remaining > 0:
            try:
                chunk = sock.recv(min(remaining, _RECV_CHUNK))
            except socket.timeout:
                raise
            except OSError as exc:
                raise self.connection_lost(f"connection lost mid-frame: {exc}") from exc
            if not chunk:
                raise self.connection_lost(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def sendall(self, sock: socket.socket, data: bytes) -> None:
        """Send all of ``data`` over a blocking socket or raise."""
        try:
            sock.sendall(data)
        except socket.timeout:
            raise
        except OSError as exc:
            raise self.connection_lost(f"connection lost while sending: {exc}") from exc

    def read_frame(self, sock: socket.socket, max_frame_bytes: int) -> bytes:
        """Read one preamble and return the bytes it announces."""
        raw = self.recv_exactly(sock, PREAMBLE.size)
        return self.recv_exactly(sock, self.check_preamble(raw, max_frame_bytes))
