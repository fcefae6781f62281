"""Pinned probe readings: the column-norm probe of every scenario preset.

The sha256 of ``ScenarioSpec.build_prober(...).probe_all().column_sums`` at
smoke scale, seed 0, for every registered preset, plus the 3-bit acquisition
ADC on an ideal and a noisy preset.  The digests were recorded while the
prober still read the rail through its own measurement class, so they pin
that moving it onto :class:`~repro.attacks.oracle.Oracle` kept every bit of
the instrument noise, the ADC and the query path; any later change that
moves a probed bit fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.config import SCALES
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import get_scenario, list_scenarios

#: (preset, probe_adc_bits override) -> sha256 of the probed column sums.
PROBE_DIGESTS = {
    ("paper/mnist-linear", None): "3724008bfae312bea8d4226424d482709e414d26644b12afcd5517007e94a124",
    ("paper/mnist-softmax", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("paper/cifar-linear", None): "15a702174c5d07e79d72fa30791f36258b2f33d0238d8f9d384d4cd58037d8cb",
    ("paper/cifar-softmax", None): "7424a84396bd1620904ba287881cf1c3be874ad484ccb6aa91959aa9dbf1ed97",
    ("balanced-mapping", None): "15e2eaac4e11127a2d54b10a33090115bcc38d283dade70856e0036c0a287199",
    ("high-read-noise", None): "96bd615753078c3399e1c98239a31445f3ccb74cb5b637bce308e15757900da7",
    ("noisy-device", None): "41197247f936263c0c78889ea9c682edae27bfc3c9e471210d060a1fac81f653",
    ("norm-balanced-defense", None): "968bd31010b0b46d0f1f1d5af00c5ab0cd3b89a3cb14d5b0595358e0487135ea",
    ("power-noise-defense", None): "5a9ac13523b0a43122ac3244e64e8b9d30b6e3c1bd5cb94a3701596c2616f37c",
    ("quantized-adc", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("service-noisy-device", None): "41197247f936263c0c78889ea9c682edae27bfc3c9e471210d060a1fac81f653",
    ("service-paper", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("sharded-2x2", None): "191434e334201313b618457fdbd0910fb1ef1b30fd5d0f54c8bc2e8c788948d6",
    ("sharded-4x4-tree", None): "88ac9b7ee5f3cae9c72dd0547bd682a5a57ded57eb18c734534b2f3a0e38f66d",
    ("sharded-columns-4", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("sharded-rows-2", None): "191434e334201313b618457fdbd0910fb1ef1b30fd5d0f54c8bc2e8c788948d6",
    ("tenant-noise-budget", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("tenant-partitioned", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("tenant-shared", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("tenant-tile-isolated", None): "d29e464e2f3cd82053cdf64daa066b7ee778d9527212ff5b582012cefb0bf218",
    ("wired-crossbar", None): "0b7c200a7b74d896496b5b9ba3e97e80acf18b74aea4202b55f61b4b87b4f557",
    ("paper/mnist-softmax", 3): "0f694fd235d3e9b822e218af0f7cf71a3aa1d52fa5f2304f35aea588ab5727f5",
    ("high-read-noise", 3): "d7281bc3aeded300d79817049b8b4fc97d47bc7d1148230543764499e2f6c177",
}


def test_every_preset_is_pinned():
    assert {name for name, bits in PROBE_DIGESTS if bits is None} == set(list_scenarios())


@pytest.mark.parametrize("name, bits", sorted(PROBE_DIGESTS, key=str), ids=str)
def test_probe_readings_are_pinned(name, bits):
    spec = get_scenario(name)
    if bits is not None:
        spec = spec.with_overrides(probe_adc_bits=bits)
    scale = SCALES["smoke"]
    dataset = prepare_dataset(spec.dataset, scale, random_state=0)
    model = spec.build_victim(dataset, scale, random_state=0)
    target = spec.build_accelerator(model.network, random_state=0)
    result = spec.build_prober(target, dataset.n_features, random_state=0).probe_all()
    assert result.queries_used == dataset.n_features
    column_sums = np.ascontiguousarray(result.column_sums, dtype=np.float64)
    assert hashlib.sha256(column_sums.tobytes()).hexdigest() == PROBE_DIGESTS[(name, bits)]
