"""Shared experiment plumbing: dataset and victim-model preparation.

Every job of a hardware-knob sweep trains the same few victims: the knobs
change the crossbar, never the weights.  :func:`prepare_dataset` and
:meth:`~repro.experiments.scenario.ScenarioSpec.build_victim` therefore sit
behind a one-entry, per-thread memo: the last dataset and the last victim
trained on it.  A new dataset key drops both before the next dataset is
generated, so at most one of each is alive per thread, and
:func:`~repro.experiments.base.execute_jobs` runs jobs grouped by victim so
the one entry hits.  Memoised arrays are read-only: a job that writes into
a shared dataset or weight matrix fails instead of corrupting the next job.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Optional

import numpy as np

from repro.datasets import Dataset, load_dataset
from repro.experiments.config import ExperimentScale
from repro.nn.metrics import accuracy
from repro.nn.network import SingleLayerNetwork
from repro.nn.trainer import train_single_layer


@dataclass
class TrainedModel:
    """A victim model together with its dataset and clean test accuracy."""

    network: SingleLayerNetwork
    dataset: Dataset
    output: str

    @cached_property
    def test_accuracy(self) -> float:
        """Clean accuracy on the test split, from one forward on first read.

        Read lazily, so a training-time defence that edits the weights
        after training (``"rebalance"``) is scored once, on the final
        network.
        """
        return accuracy(
            self.network.predict(self.dataset.test_inputs), self.dataset.test_targets
        )

    @property
    def n_features(self) -> int:
        """Input dimensionality."""
        return self.dataset.n_features


#: The calling thread's last dataset and victim (see the module docstring).
_memo = threading.local()


def clear_victim_memo() -> None:
    """Forget the calling thread's memoised dataset and victim."""
    _memo.__dict__.clear()


def _freeze(*arrays) -> None:
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


def prepare_dataset(
    name: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> Dataset:
    """Generate one dataset at the requested scale (memoised, read-only).

    Repeating the last call on this thread returns the same object; any
    other key frees the held dataset and victim before generating anew.
    """
    if not isinstance(random_state, numbers.Integral):
        return load_dataset(
            name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
        )
    key = (name, scale.n_train, scale.n_test, int(random_state))
    if getattr(_memo, "dataset_key", None) == key:
        return _memo.dataset
    clear_victim_memo()
    dataset = load_dataset(
        name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
    )
    _freeze(
        dataset.train_inputs,
        dataset.train_targets,
        dataset.test_inputs,
        dataset.test_targets,
    )
    _memo.dataset_key, _memo.dataset = key, dataset
    return dataset


def memoised_victim(
    key: Optional[Hashable], dataset: Dataset, train: Callable[[], "TrainedModel"]
) -> "TrainedModel":
    """The thread's victim for ``key`` on ``dataset``, training it on a miss.

    Only a ``dataset`` that *is* the memoised :func:`prepare_dataset` result
    takes part; a caller-supplied one (or a ``None`` key) is trained on and
    never memoised.
    """
    if key is None or dataset is not getattr(_memo, "dataset", None):
        return train()
    if getattr(_memo, "victim_key", None) == key:
        return _memo.victim
    _memo.victim_key = _memo.victim = None
    model = train()
    for layer in model.network.layers:
        _freeze(layer.weights, layer.bias)
    _memo.victim_key, _memo.victim = key, model
    return model


def prepare_model(
    dataset: Dataset,
    output: str,
    scale: ExperimentScale,
    *,
    regularizer=None,
    random_state: int = 0,
) -> TrainedModel:
    """Train the paper's single-layer victim model on a dataset.

    ``regularizer`` is an optional training-time defence (a
    :class:`~repro.defenses.norm_balancing.ColumnNormRegularizer`).
    """
    network, _ = train_single_layer(
        dataset,
        output=output,
        epochs=scale.train_epochs,
        regularizer=regularizer,
        random_state=random_state,
    )
    return TrainedModel(network=network, dataset=dataset, output=output)
