"""Behavioural NVM crossbar simulator.

Implements the hardware substrate from Section II-B of the paper: the
weight-to-conductance mapping, the ideal crossbar matrix-vector product
(Eq. 3-4), the total-current / power model (Eq. 5), and the peripheral
circuitry (DAC/ADC) needed to run a neural-network layer on the array.
Non-idealities (programming noise, read noise, conductance quantization,
stuck devices, IR drop) are available as opt-in extensions corresponding to
the paper's stated future work.
"""

from repro.crossbar.devices import NVMDeviceModel, RERAM_DEVICE, PCM_DEVICE, IDEAL_DEVICE
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.mapping import (
    ConductanceMapping,
    MappingScheme,
    ShardingSpec,
    reduce_partial_sums,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.adc_dac import DAC, ADC
from repro.crossbar.power import PowerReport
from repro.crossbar.tile import CrossbarTile
from repro.crossbar.accelerator import CrossbarAccelerator

__all__ = [
    "NVMDeviceModel",
    "RERAM_DEVICE",
    "PCM_DEVICE",
    "IDEAL_DEVICE",
    "NonidealityConfig",
    "ConductanceMapping",
    "MappingScheme",
    "ShardingSpec",
    "reduce_partial_sums",
    "CrossbarArray",
    "DAC",
    "ADC",
    "PowerReport",
    "CrossbarTile",
    "CrossbarAccelerator",
]
