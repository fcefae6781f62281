"""repro — reproduction of "Enhancing Adversarial Attacks on Single-Layer NVM
Crossbar-Based Neural Networks with Power Consumption Information" (SOCC 2022).

The package is organised bottom-up:

* :mod:`repro.utils` — RNG, validation, serialization, result containers.
* :mod:`repro.nn` — from-scratch numpy neural-network substrate.
* :mod:`repro.datasets` — synthetic MNIST-like / CIFAR-like datasets.
* :mod:`repro.crossbar` — behavioural NVM crossbar simulator (the hardware).
* :mod:`repro.sidechannel` — power-channel probing, estimation and search.
* :mod:`repro.attacks` — the attacker's oracle and the paper's power-aided
  adversarial attacks.
* :mod:`repro.analysis` — correlations, sensitivity maps, significance tests.
* :mod:`repro.experiments` — pipelines regenerating every table and figure.

Quickstart
----------
>>> from repro.datasets import load_mnist_like
>>> from repro.nn.trainer import train_single_layer
>>> from repro.crossbar import CrossbarAccelerator
>>> from repro.attacks import Oracle
>>> from repro.sidechannel import ColumnNormProber
>>> dataset = load_mnist_like(n_train=1000, n_test=200, random_state=0)
>>> network, _ = train_single_layer(dataset, output="softmax", random_state=0)
>>> accelerator = CrossbarAccelerator(network, random_state=0)
>>> prober = ColumnNormProber(Oracle(accelerator), dataset.n_features)
>>> leaked_norms = prober.probe_all().column_sums  # the power side channel
"""

from repro._version import __version__

__all__ = ["__version__"]
