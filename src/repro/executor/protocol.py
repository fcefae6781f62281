"""Pickle message frames of the work-queue wire.

Each frame is the shared preamble of :mod:`repro.utils.framing` (magic
``b"RQ"``, whose length field counts the whole body) followed by one body —
a **pickle**, not the netservice's JSON+arrays: leases carry frozen
:class:`~repro.experiments.base.Job` values (nested frozen dataclasses) and
results carry :class:`~repro.utils.results.RunResult` objects, both of which
pickle round-trips bit-exactly for free.

Trust model: pickle makes this a **trusted-worker** protocol.  Coordinator
and workers are the same codebase run by the same operator (the coordinator
spawns local workers itself; remote workers are started by the operator with
``python -m repro.executor worker --connect``).  Because unpickling a frame
from an attacker is arbitrary code execution, **no pickle frame is read
before the peer authenticates**: every connection starts with the
fixed-length HMAC-SHA256 challenge handshake below (the
:mod:`multiprocessing.connection` ``authkey`` scheme), mutual in both
directions — the coordinator proves the worker knows the run's shared key
before parsing anything, and the worker proves the *coordinator* does
before executing any lease it sends.  The handshake reads only
fixed-length byte strings, so an unauthenticated peer controls no lengths
and no deserialisation::

    coordinator -> worker   b"RQA" + version + nonce_s            (36 bytes)
    worker -> coordinator   nonce_w + HMAC(key, b"...client:" + nonce_s)
    coordinator -> worker   HMAC(key, b"...server:" + nonce_w)

The key is shared out of band: :class:`~repro.executor.queue.QueueExecutor`
exports it to the workers it spawns via the ``REPRO_QUEUE_AUTH``
environment variable, and operators hand it to remote workers the same way
(or via ``--auth-file``).  Even so, do not expose a coordinator to
untrusted networks — serving untrusted peers is the netservice's job, which
speaks JSON precisely because its tenants are untrusted.

Every message is a dict with a ``"type"`` key; malformed or oversized frames
raise :class:`~repro.executor.errors.QueueProtocolError`, connection drops
raise :class:`~repro.executor.errors.WorkerConnectionLost` (retryable on the
worker side, lease-requeueing on the coordinator side).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import socket
from typing import Any, Dict, Union

from repro.executor.errors import (
    QueueAuthError,
    QueueProtocolError,
    WorkerConnectionLost,
)
from repro.utils.framing import Wire

MAGIC = b"RQ"
PROTOCOL_VERSION = 1
_WIRE = Wire(MAGIC, PROTOCOL_VERSION, QueueProtocolError, WorkerConnectionLost)

#: Environment variable carrying the shared auth key to worker processes.
AUTH_ENV_VAR = "REPRO_QUEUE_AUTH"

AUTH_MAGIC = b"RQA"
_NONCE_BYTES = 32
_DIGEST_BYTES = hashlib.sha256().digest_size
_CLIENT_SALT = b"repro-queue-client:"
_SERVER_SALT = b"repro-queue-server:"

#: Ceiling on one message body.  Chunk results dominate frame size; 256 MB
#: comfortably holds paper-scale chunks while bounding what a corrupted
#: length prefix can make either side allocate.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialise one message dict into a frame."""
    if not isinstance(message, dict) or "type" not in message:
        raise QueueProtocolError(
            f"queue messages must be dicts with a 'type' key, got {type(message).__name__}"
        )
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _WIRE.preamble(len(body)) + body


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one message over a blocking socket."""
    _WIRE.sendall(sock, encode_message(message))


def recv_message(
    sock: socket.socket, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Read one message from a blocking socket."""
    body = _WIRE.read_frame(sock, max_frame_bytes)
    try:
        message = pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise QueueProtocolError(f"frame body is not a valid pickle: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise QueueProtocolError("frame body must be a dict with a 'type' key")
    return message


# ------------------------------------------------------------ authentication


def normalize_auth_key(key: Union[str, bytes]) -> bytes:
    """Coerce an auth key to the HMAC key bytes (keys are operator strings)."""
    if isinstance(key, bytes):
        material = key
    elif isinstance(key, str):
        material = key.encode("utf-8")
    else:
        raise TypeError(f"auth key must be str or bytes, got {type(key).__name__}")
    if not material:
        raise ValueError("auth key must be non-empty")
    return material


def _digest(key: bytes, salt: bytes, nonce: bytes) -> bytes:
    return hmac.new(key, salt + nonce, hashlib.sha256).digest()


def server_authenticate(sock: socket.socket, key: Union[str, bytes]) -> None:
    """Coordinator side of the mutual shared-key handshake.

    Challenges the connecting peer and proves our own knowledge of the key
    back; raises :class:`QueueAuthError` on a wrong answer and closes without
    ever parsing attacker-controlled lengths or pickles.
    """
    material = normalize_auth_key(key)
    nonce_s = os.urandom(_NONCE_BYTES)
    _WIRE.sendall(sock, AUTH_MAGIC + bytes([PROTOCOL_VERSION]) + nonce_s)
    reply = _WIRE.recv_exactly(sock, _NONCE_BYTES + _DIGEST_BYTES)
    nonce_c, answer = reply[:_NONCE_BYTES], reply[_NONCE_BYTES:]
    if not hmac.compare_digest(answer, _digest(material, _CLIENT_SALT, nonce_s)):
        raise QueueAuthError(
            "peer failed the shared-key challenge (wrong or missing auth key)"
        )
    _WIRE.sendall(sock, _digest(material, _SERVER_SALT, nonce_c))


def client_authenticate(sock: socket.socket, key: Union[str, bytes]) -> None:
    """Worker side of the mutual shared-key handshake.

    Answers the coordinator's challenge and then requires the coordinator to
    prove it holds the same key — a worker must never execute a pickled
    lease from a peer that cannot (raises :class:`QueueAuthError`).
    """
    material = normalize_auth_key(key)
    challenge = _WIRE.recv_exactly(sock, len(AUTH_MAGIC) + 1 + _NONCE_BYTES)
    if challenge[: len(AUTH_MAGIC)] != AUTH_MAGIC:
        raise QueueAuthError(
            "coordinator did not open with an auth challenge "
            "(mismatched protocol build?)"
        )
    version = challenge[len(AUTH_MAGIC)]
    if version != PROTOCOL_VERSION:
        raise QueueProtocolError(
            f"unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )
    nonce_s = challenge[len(AUTH_MAGIC) + 1 :]
    nonce_c = os.urandom(_NONCE_BYTES)
    _WIRE.sendall(sock, nonce_c + _digest(material, _CLIENT_SALT, nonce_s))
    proof = _WIRE.recv_exactly(sock, _DIGEST_BYTES)
    if not hmac.compare_digest(proof, _digest(material, _SERVER_SALT, nonce_c)):
        raise QueueAuthError(
            "coordinator failed to prove knowledge of the shared auth key; "
            "refusing to execute leases from it"
        )
