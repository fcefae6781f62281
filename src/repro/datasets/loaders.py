"""Dataset registry and generic loader."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.datasets.base import Dataset
from repro.datasets.synthetic_digits import load_mnist_like
from repro.datasets.synthetic_objects import load_cifar_like
from repro.utils.rng import RandomState

_LOADERS: Dict[str, Callable[..., Dataset]] = {
    "mnist-like": load_mnist_like,
    "mnist": load_mnist_like,
    "cifar-like": load_cifar_like,
    "cifar10": load_cifar_like,
    "cifar-10": load_cifar_like,
}

#: Aliases mapped to the canonical dataset name used in results/metadata.
_CANONICAL: Dict[str, str] = {
    "mnist": "mnist-like",
    "cifar10": "cifar-like",
    "cifar-10": "cifar-like",
}


def available_datasets() -> List[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(set(_LOADERS))


def canonical_dataset_name(name: str) -> str:
    """Resolve a dataset name or alias to its canonical form.

    ``"mnist"`` / ``"mnist-like"`` -> ``"mnist-like"``; unknown names raise
    :class:`KeyError` with the list of accepted names.
    """
    key = str(name).lower()
    key = _CANONICAL.get(key, key)
    if key not in _LOADERS:
        raise KeyError(f"unknown dataset {name!r}; available: {available_datasets()}")
    return key


def load_dataset(
    name: str,
    n_train: int = 2000,
    n_test: int = 500,
    *,
    random_state: RandomState = 0,
    **kwargs,
) -> Dataset:
    """Load a dataset by name.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (case insensitive).  The ``mnist``
        and ``cifar10`` aliases map to the synthetic stand-ins of this
        package.
    n_train / n_test:
        Split sizes.
    random_state:
        Seed controlling both the class prototypes and the samples.
    kwargs:
        Forwarded to the underlying loader (e.g. ``image_size``).
    """
    key = str(name).lower()
    if key not in _LOADERS:
        raise KeyError(f"unknown dataset {name!r}; available: {available_datasets()}")
    return _LOADERS[key](n_train, n_test, random_state=random_state, **kwargs)
