"""JSON+binary frame body of the networked service's wire.

One frame carries one request or one response.  A fixed preamble (magic
``b"RN"``, version, and a length that counts the header only) is followed
by the header and the array bytes::

    +-------+---------+----------------+---------------+---------------+
    | magic | version |     length     | header (JSON) |  array bytes  |
    | 2 B   | 1 byte  | uint32 big-end | utf-8         | concatenated  |
    +-------+---------+----------------+---------------+---------------+

The header is a small JSON object (request type, tenant, idempotency key,
status, error code, ...).  ndarray payloads are **not** JSON-encoded: the
header's ``"arrays"`` entry is an ordered list of ``{name, dtype, shape}``
descriptors and the raw bytes follow the header back to back in that order
(C-contiguous, native ``tobytes()`` layout).  This keeps power traces and
query batches bit-exact over the wire — the bit-identity acceptance test
depends on it — at no serialisation cost beyond one copy of each array's
bytes on each side: into the frame when encoding, and out of the receive
buffer into an owned, writable array when decoding.

Decoding takes one pass per frame: the preamble, then the header (one
module-level JSON decoder), then one loop over each descriptor that
validates its name, shape and dtype and bounds the payload before any of
it is read, then the payload.

Both a blocking-socket codec (client side) and an asyncio-streams codec
(server side) are provided over the same byte layout; every malformed or
oversized frame raises :class:`~repro.netservice.errors.ProtocolError`, and
a dropped blocking socket raises
:class:`~repro.netservice.errors.ConnectionLostError`.  ``socket.timeout``
passes through the blocking codec unchanged, because the client's retry
policy keys on it.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.netservice.errors import ConnectionLostError, ProtocolError

MAGIC = b"RN"
PROTOCOL_VERSION = 1

#: magic, protocol version, announced header length.
_PREAMBLE = struct.Struct("!2sBI")

#: Largest single ``recv`` call; long frames arrive in several.
_RECV_CHUNK = 1 << 20

#: Default ceiling on one frame's total size (header + arrays).  Large
#: enough for a few thousand coalesced float64 rows, small enough that a
#: corrupted length prefix cannot make either side allocate unbounded
#: memory.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Most dimensions one wire array may have: numpy's own limit is 32 on
#: numpy 1 and 64 on numpy 2, and the protocol must not depend on which one
#: a peer runs.
MAX_ARRAY_DIMS = 32

#: Each wire dtype name and its native-byte-order dtype.
_WIRE_DTYPES = {
    name: np.dtype(name)
    for name in ("float64", "float32", "int64", "int32", "uint64", "bool")
}
#: Wire name of each native-byte-order wire dtype.  A dict lookup is ~50x
#: cheaper than ``str(dtype)``; ``dtype.name`` is not used because it reads
#: ``float64`` for a big-endian ``>f8`` array too.
_WIRE_NAMES = {dtype: name for name, dtype in _WIRE_DTYPES.items()}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


#: One encoder and one decoder for every frame: ``json.dumps`` / ``json.loads``
#: with non-default arguments build a new one per call.  Neither keeps state
#: between calls.  ``allow_nan=False``: the decoder rejects NaN/Infinity, so
#: never send them.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def encode_frame(
    header: Dict[str, Any],
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> bytes:
    """Serialise one frame (header dict + named ndarray payloads).

    Each array's bytes are copied once, into the frame.
    """
    descriptors = []
    chunks = []
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        dtype = _WIRE_NAMES.get(array.dtype)
        if dtype is None:
            raise ProtocolError(
                f"array {name!r} has non-wire dtype {str(array.dtype)!r}; "
                f"allowed: {sorted(_WIRE_DTYPES)}"
            )
        descriptors.append(
            {"name": str(name), "dtype": dtype, "shape": array.shape}
        )
        chunks.append(array)
    try:
        text = _ENCODER.encode({**header, "arrays": descriptors})
    except ValueError as exc:
        raise ProtocolError(f"frame header is not finite JSON: {exc}") from None
    header_bytes = text.encode("utf-8")
    preamble = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, len(header_bytes))
    return b"".join([preamble, header_bytes, *chunks])


def _check_preamble(raw: bytes, max_frame_bytes: int) -> int:
    """Validate a received preamble and return the announced header length."""
    magic, version, length = _PREAMBLE.unpack(raw)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (this build speaks "
            f"{PROTOCOL_VERSION})"
        )
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame length {length} exceeds max_frame_bytes={max_frame_bytes}"
        )
    return length


def _decode_header(raw: bytes) -> Dict[str, Any]:
    try:
        text = raw.decode("utf-8")
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        header = _DECODER.decode(text)
    except (UnicodeDecodeError, ValueError) as exc:  # JSONDecodeError included
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("frame header is nested too deeply") from None
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header


def _payload_layout(
    descriptors, header_len: int, max_frame_bytes: int
) -> Tuple[list, int]:
    """Validate the descriptor list; return its layout and payload byte count.

    The payload is bounded by what ``max_frame_bytes`` leaves after the
    ``header_len`` header bytes, so the whole frame stays within it.  Each
    layout entry is ``(name, dtype, shape, nbytes)``.
    """
    if not isinstance(descriptors, list):
        raise ProtocolError("frame 'arrays' entry must be a list")
    total = 0
    layout = []
    for descriptor in descriptors:
        try:
            name = descriptor["name"]
            dtype_name = str(descriptor["dtype"])
            shape = tuple(descriptor["shape"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ProtocolError(f"malformed array descriptor {descriptor!r}: {exc}") from None
        if not isinstance(name, str):
            raise ProtocolError(f"array name must be a string, got {name!r}")
        if len(shape) > MAX_ARRAY_DIMS:
            raise ProtocolError(
                f"array {name!r} has {len(shape)} dimensions "
                f"(at most {MAX_ARRAY_DIMS} on the wire)"
            )
        # Python-int arithmetic: an adversarial shape like [2**32, 2**32]
        # must hit the size bound below before any payload is read, not
        # wrap to a tiny count.
        count = 1
        negative = False
        for n in shape:
            if type(n) is not int:  # bool and float excluded
                raise ProtocolError(
                    f"array {name!r} shape must be integers, got {shape}"
                )
            negative = negative or n < 0
            count *= n
        dtype = _WIRE_DTYPES.get(dtype_name)
        if dtype is None:
            raise ProtocolError(f"array {name!r} has non-wire dtype {dtype_name!r}")
        if negative:
            raise ProtocolError(f"array {name!r} has negative shape {shape}")
        nbytes = dtype.itemsize * count
        total += nbytes
        if header_len + total > max_frame_bytes:
            raise ProtocolError(
                f"frame header ({header_len} B) plus payload (at least "
                f"{total} B) exceeds max_frame_bytes={max_frame_bytes}"
            )
        layout.append((name, dtype, shape, nbytes))
    return layout, total


def _assemble(header: Dict[str, Any], layout, payload: bytes):
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype, shape, nbytes in layout:
        # A view of the payload, then one copy: an owned, writable, aligned,
        # C-contiguous array.  Request inputs flow into the oracle path, and
        # responses outlive the receive buffer.
        try:
            arrays[name] = np.ndarray(shape, dtype, payload, offset).copy()
        except ValueError as exc:  # a shape numpy rejects, e.g. [0, 2**40, 2**40]
            raise ProtocolError(f"array {name!r} has unusable shape: {exc}") from None
        offset += nbytes
    header.pop("arrays", None)
    return header, arrays


# ------------------------------------------------------------ asyncio codec


async def read_frame(
    reader, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
):
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``(header, arrays)``.  An EOF surfaces as the stream's
    ``asyncio.IncompleteReadError``; telling a clean disconnect between
    frames (zero partial bytes) from a truncated frame is left to the caller.
    """
    raw = await reader.readexactly(_PREAMBLE.size)
    header_len = _check_preamble(raw, max_frame_bytes)
    header = _decode_header(await reader.readexactly(header_len))
    layout, total = _payload_layout(
        header.get("arrays", []), header_len, max_frame_bytes
    )
    payload = await reader.readexactly(total) if total else b""
    return _assemble(header, layout, payload)


def write_frame(writer, header, arrays=None) -> None:
    """Queue one frame on an :class:`asyncio.StreamWriter` (callers drain)."""
    writer.write(encode_frame(header, arrays))


# ----------------------------------------------------------- blocking codec


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes from a blocking socket or raise."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
        except socket.timeout:
            raise
        except OSError as exc:
            raise ConnectionLostError(f"connection lost mid-frame: {exc}") from exc
        if not chunk:
            raise ConnectionLostError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame_sync(
    sock: socket.socket,
    header: Dict[str, Any],
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Send one frame over a blocking socket."""
    data = encode_frame(header, arrays)
    try:
        sock.sendall(data)
    except socket.timeout:
        raise
    except OSError as exc:
        raise ConnectionLostError(f"connection lost while sending: {exc}") from exc


def read_frame_sync(
    sock: socket.socket, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
):
    """Read one frame from a blocking socket; returns ``(header, arrays)``."""
    header_len = _check_preamble(_recv_exactly(sock, _PREAMBLE.size), max_frame_bytes)
    header = _decode_header(_recv_exactly(sock, header_len))
    layout, total = _payload_layout(
        header.get("arrays", []), header_len, max_frame_bytes
    )
    payload = _recv_exactly(sock, total)
    return _assemble(header, layout, payload)
