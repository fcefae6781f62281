"""Synthetic datasets standing in for MNIST and CIFAR-10.

The evaluation environment has no network access, so the paper's datasets are
replaced by generative synthetic equivalents that preserve the statistics the
experiments depend on (see DESIGN.md section 2 for the substitution argument):

* :func:`load_mnist_like` — smooth, centre-concentrated digit-style images,
  easily separable by a single-layer network (≈90% test accuracy).
* :func:`load_cifar_like` — high-frequency textured colour images with heavy
  intra-class variation, poorly separable by a single-layer network
  (≈30–40% test accuracy).
"""

from repro.datasets.base import Dataset
from repro.datasets.transforms import (
    one_hot,
    from_one_hot,
    flatten_images,
    unflatten_images,
    clip_to_range,
)
from repro.datasets.synthetic_digits import SyntheticDigitsGenerator, load_mnist_like
from repro.datasets.synthetic_objects import SyntheticObjectsGenerator, load_cifar_like
from repro.datasets.loaders import load_dataset, available_datasets, canonical_dataset_name

__all__ = [
    "Dataset",
    "one_hot",
    "from_one_hot",
    "flatten_images",
    "unflatten_images",
    "clip_to_range",
    "SyntheticDigitsGenerator",
    "load_mnist_like",
    "SyntheticObjectsGenerator",
    "load_cifar_like",
    "load_dataset",
    "available_datasets",
    "canonical_dataset_name",
]
