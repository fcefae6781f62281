"""The server process of the ``serve-*`` workloads.

Usage (from the repository root)::

    python3 -m perfbench.serve_worker --scenario noisy-device --victim-seed 3 --service-seed 11

Trains the scenario's victim, puts it behind a
:class:`~repro.netservice.server.NetworkQueryService` on an ephemeral
loopback port and prints ``{"ready": true, "port": ..., "n_features": ...}``.
It then reads one command per line on stdin and answers each with one JSON
line:

* ``trace-on`` — install the layer hooks (spans from now on);
* ``mark`` — this process's CPU seconds, plus the span aggregates so far;
* ``stop`` (or end of input) — drain the server, restore every hook, report
  peak memory and the kept trace events, and exit.

The server has its own process so the load generator never shares its GIL.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time

from perfbench.common import peak_rss_mb, use_checkout_sources

#: Coalescing policy: one 32-row tick serves both connections' pipelines.
MAX_BATCH = 32
MAX_WAIT_MS = 2.0

#: Victims train at the smoke scale: serving cost depends on the network's
#: shape (784 x 10), not on how long it trained.
VICTIM_SCALE = "smoke"


def build_oracle(scenario_name: str, victim_seed: int):
    """The scenario's trained victim as an oracle; ``(oracle, n_features)``."""
    from repro.experiments.config import resolve_scale
    from repro.experiments.runner import prepare_dataset
    from repro.experiments.scenario import get_scenario

    scenario = get_scenario(scenario_name)
    scale = resolve_scale(VICTIM_SCALE)
    dataset = prepare_dataset(scenario.dataset, scale, random_state=victim_seed)
    model = scenario.build_victim(dataset, scale, random_state=victim_seed)
    target = scenario.build_accelerator(model.network, random_state=victim_seed)
    return scenario.build_oracle(target, random_state=victim_seed), dataset.n_features


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _read_commands(loop, queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "stop")


async def serve(args) -> None:
    from repro.netservice import NetServiceConfig
    from repro.netservice.server import NetworkQueryService
    from repro.service import ServiceConfig

    from perfbench.tracer import LAYER_HOOKS, Tracer

    oracle, n_features = build_oracle(args.scenario, args.victim_seed)
    config = NetServiceConfig(
        service=ServiceConfig(
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, base_seed=args.service_seed
        )
    )
    server = NetworkQueryService(oracle, config)
    await server.start()
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(
        target=_read_commands, args=(asyncio.get_running_loop(), queue), daemon=True
    ).start()
    _reply({"ready": True, "port": server.address[1], "n_features": n_features})

    tracer = None
    try:
        while True:
            command = await queue.get()
            if command == "trace-on":
                tracer = Tracer("server").install(LAYER_HOOKS)
                _reply({"ok": True})
            elif command == "mark":
                _reply(
                    {
                        "cpu_s": time.process_time(),
                        "layers": tracer.summary() if tracer else None,
                    }
                )
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        if tracer is not None:
            tracer.uninstall()
        await server.stop()
    _reply(
        {
            "peak_rss_mb": peak_rss_mb(),
            "events": tracer.chrome_events() if tracer else [],
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--victim-seed", type=int, required=True)
    parser.add_argument("--service-seed", type=int, required=True)
    args = parser.parse_args(argv)
    use_checkout_sources()
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
