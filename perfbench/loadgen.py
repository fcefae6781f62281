"""Closed-loop load generator for the ``serve-*`` workloads.

One process holds :data:`CONNECTIONS` connections; each keeps
:data:`DEPTH` single-row queries in flight, matched to their responses by
``cid``, and sends the next query only when one returns — attackers that
wait for each reply.  Requests are timed from send to response.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.tracer import Tracer

CONNECTIONS = 2
DEPTH = 16

#: Every this-many-th successful response is kept for the replay check.
SAMPLE_STRIDE = 97
MAX_SAMPLES = 64


class _Connection:
    """One TCP connection with responses routed to waiters by ``cid``."""

    def __init__(self, reader, writer, tenant: str):
        from repro.netservice.protocol import encode_frame

        self.reader, self.writer, self.tenant = reader, writer, tenant
        self._encode = encode_frame
        self._pending: Dict[int, asyncio.Future] = {}
        self._cids = itertools.count()
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, tenant: str) -> "_Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, tenant)

    async def _read_loop(self) -> None:
        from repro.netservice.protocol import read_frame

        try:
            while True:
                header, arrays = await read_frame(self.reader)
                future = self._pending.pop(header.get("cid"), None)
                if future is not None and not future.done():
                    future.set_result((header, arrays))
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(f"connection lost: {exc}"))
            self._pending.clear()

    async def request(self, header: dict, arrays=None) -> Tuple[dict, dict]:
        cid = next(self._cids)
        future = asyncio.get_running_loop().create_future()
        self._pending[cid] = future
        self.writer.write(self._encode({**header, "cid": cid}, arrays))
        await self.writer.drain()
        return await future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass


@dataclass
class Phase:
    """What one timed stretch of closed-loop load produced."""

    elapsed_s: float = 0.0
    client_cpu_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    #: ``(pool row, request_id, base_seed, response arrays)`` for replay.
    samples: List[tuple] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)


class LoadGenerator:
    """Closed-loop clients over a pool of query rows."""

    def __init__(self, port: int, pool: np.ndarray):
        self.port = port
        self.pool = pool
        self.connections: List[_Connection] = []
        self._keys = itertools.count()
        self._rows = itertools.count()

    async def __aenter__(self) -> "LoadGenerator":
        for index in range(CONNECTIONS):
            connection = await _Connection.open(self.port, f"client-{index}")
            self.connections.append(connection)
            header, _ = await connection.request({"type": "hello"})
            if header.get("status") != "ok":
                raise RuntimeError(f"hello refused: {header}")
        return self

    async def __aexit__(self, *exc_info) -> None:
        for connection in self.connections:
            await connection.close()

    async def service_stats(self) -> dict:
        header, _ = await self.connections[0].request({"type": "stats"})
        return header["service"]

    async def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        """Keep every slot busy for ``seconds``; in-flight queries finish."""
        phase = Phase()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds

        async def slot(connection: _Connection) -> None:
            while loop.time() < deadline:
                row = next(self._rows) % len(self.pool)
                header = {
                    "type": "query",
                    "tenant": connection.tenant,
                    "key": f"q{next(self._keys)}",
                }
                sent = time.perf_counter_ns()
                try:
                    response, arrays = await connection.request(
                        header, {"inputs": self.pool[row : row + 1]}
                    )
                except ConnectionError:
                    phase.failed += 1
                    return
                done = time.perf_counter_ns()
                if tracer is not None:
                    tracer.record("client.request", sent, done, async_span=True)
                if response.get("status") != "ok":
                    phase.failed += 1
                    continue
                phase.latencies_s.append((done - sent) / 1e9)
                if (
                    phase.completed % SAMPLE_STRIDE == 0
                    and len(phase.samples) < MAX_SAMPLES
                ):
                    phase.samples.append(
                        (row, int(response["request_id"]), int(response["base_seed"]), arrays)
                    )

        cpu = time.process_time()
        start = time.perf_counter()
        await asyncio.gather(
            *(slot(connection) for connection in self.connections for _ in range(DEPTH))
        )
        phase.elapsed_s = time.perf_counter() - start
        phase.client_cpu_s = time.process_time() - cpu
        return phase


def replay_mismatches(oracle, pool: np.ndarray, samples) -> int:
    """Samples whose wire response differs from a direct seeded query.

    Compares outputs, power and labels bit for bit against
    ``oracle.query(row, seeds=derive_request_seeds(base_seed, request_id, 1))``,
    the replay handle every response carries.
    """
    from repro.utils.rng import derive_request_seeds

    mismatches = 0
    for row, request_id, base_seed, arrays in samples:
        reference = oracle.query(
            pool[row : row + 1], seeds=derive_request_seeds(base_seed, request_id, 1)
        )
        same = (
            np.array_equal(arrays["outputs"], reference.outputs)
            and np.array_equal(arrays["power"], reference.power)
            and np.array_equal(arrays["labels"], np.asarray(reference.labels, dtype=np.int64))
        )
        mismatches += not same
    return mismatches
