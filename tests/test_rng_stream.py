"""Pinned unseeded RNG streams of noisy and sharded accelerators.

The seeded query path is pinned by the batch-invariance suite, but the
*unseeded* stochastic path draws from each physical array's own generator:
any change to how tiles are programmed, sliced or traversed (how many
generators are spawned, which draws each one makes, in which order) shifts
every later reading without failing an equivalence test.  The digests below
pin two successive unseeded ``forward_with_power`` calls of the numpy/float64
reference engine, outputs and per-tile rail currents, bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.crossbar.nonidealities import NonidealityConfig
from repro.experiments.scenario import get_scenario
from repro.nn.layers import Dense
from repro.nn.network import Sequential

SEED = 7

#: One preset per distinct engine path: presets whose accelerators coincide
#: (the ideal paper/service/tenant presets share ``paper/mnist-softmax``'s
#: digest) are represented once.
STREAM_DIGESTS = {
    "balanced-mapping": "10403e00763ed1ed083816c542fd03bf51af8b5d97e162d1eeeb057bb6f69bf2",
    "high-read-noise": "5468ef53c210a074ed7aa60293baed70742e462a22994d2353536152250a5bd2",
    "noisy-device": "34fb6c5681fea7762924b58d78417662027fcee9f312865223c9dae4914f05b7",
    "paper/mnist-softmax": "5e914a663e28889c5045fa1efd7b6a0be5c754e76541d75be9d0f68c9727667d",
    "quantized-adc": "a445293ff240ed83427c8d0ab0a90dab919487028cf5b9fc2923f64c4e12f24d",
    "sharded-2x2": "bfa62d3e77c087375a806b2ae1e398deefb6291d48885a47edb076ab791e59da",
    "sharded-2x2-noisy": "b5227485aea16c104545bd84ac9e342fd6df9bba2a94c70dc92b6bdcdb2d68ea",
    "sharded-4x4-tree": "6c8ce9615dec87d485c8265cd05eb771dde4e402c3e571bdda0aa2016d3cb677",
    "sharded-columns-4": "40a738bcf999ad2e21bb68a78514c245e3ce7929df4d62f04586e311a83a6267",
    "sharded-rows-2": "3e6d290442ee2d9a9bfde2eb6855a26ba7736d8e1ee5116b6efbea109db55e60",
    "tenant-tile-isolated": "f034a0a9039b2446ae8b1e2dae10818c53ded3a833d3b1a8ececceacbeea4334",
    "wired-crossbar": "8623433525e209af46bdc32939f741e568b4d5423385ed378afd7a4f985d2462",
}


def _scenario(name):
    if name == "sharded-2x2-noisy":
        return get_scenario("sharded-2x2").with_overrides(
            device="reram",
            nonidealities=NonidealityConfig(current_measurement_noise=0.05),
        )
    return get_scenario(name)


def stream_digest(name: str) -> str:
    """sha256 of two successive unseeded fused passes through ``name``."""
    network = Sequential(
        [
            Dense(12, 8, activation="relu", random_state=1),
            Dense(8, 4, activation="softmax", random_state=2),
        ]
    )
    accelerator = _scenario(name).build_accelerator(network, random_state=SEED)
    batch = np.random.default_rng(3).uniform(0.0, 1.0, size=(5, 12))
    digest = hashlib.sha256()
    for _ in range(2):
        outputs, report = accelerator.forward_with_power(batch)
        for values in (outputs, report.per_tile_current):
            digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_unseeded_stream_is_pinned(name):
    assert stream_digest(name) == STREAM_DIGESTS[name]
