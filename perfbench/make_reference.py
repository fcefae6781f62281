"""Record every job's metrics for each experiment workload and base seed.

Usage (from the repository root)::

    python3 -m perfbench.make_reference

Runs each experiment workload once per base seed (``0 .. N_BASE_SEEDS-1``)
and writes ``perfbench/reference.json``, the outputs later runs must
reproduce.  Regenerate it only when a change is meant to alter results.
"""

from __future__ import annotations

import sys

from perfbench.common import N_BASE_SEEDS, REFERENCE_PATH, WORKLOADS, write_json
from perfbench.run import run_experiment_rep


def main() -> int:
    stored = {}
    for name, workload in sorted(WORKLOADS.items()):
        if workload.kind != "experiment":
            continue
        stored[name] = {}
        for base_seed in range(N_BASE_SEEDS):
            _, payload = run_experiment_rep(workload, base_seed)
            stored[name][str(base_seed)] = payload["jobs"]
            print(f"{name} base_seed={base_seed}: {len(payload['jobs'])} jobs", flush=True)
    write_json(REFERENCE_PATH, stored)
    return 0


if __name__ == "__main__":
    sys.exit(main())
