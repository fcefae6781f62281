"""Pinned training bits: victims, norm-regularized victims and surrogates.

The crossbar path is pinned by ``test_rng_stream``; these digests pin what
goes into it.  Each one is the sha256 of the trained weights (and, for a
surrogate, its per-epoch loss history), so any change to the training loop,
the Adam update, the regularizer hook, the shuffling draws or the weight
initialisation that moves a single bit fails here.  The digests were
recorded when the norm-regularized victim still trained in its own loop and
the surrogate in its own inline Adam, so they also pin that moving both onto
:class:`~repro.nn.trainer.Trainer` and :class:`~repro.nn.optimizers.Adam`
kept every bit.
"""

import hashlib

import numpy as np
import pytest

from repro.attacks.surrogate import SurrogateConfig, SurrogateTrainer
from repro.datasets import load_cifar_like, load_mnist_like
from repro.datasets.transforms import one_hot
from repro.defenses.norm_balancing import ColumnNormRegularizer
from repro.nn.trainer import train_single_layer

EPOCHS = 3

VICTIM_DIGESTS = {
    ("mnist-like", "linear"): "2afb04405c8ca99a31d528b6076feb0f5df276bbe26b9903c0a0a2fe583b1d47",
    ("mnist-like", "softmax"): "21a8f598b81b344896890a3a5fd7148f513b8295075e75a0b35234ab8222a4e2",
    ("cifar-like", "linear"): "02d4527b76a69349d4804ff1e9e9fa9d01bb985e280420291f3d8e2c6799fd14",
    ("cifar-like", "softmax"): "a66d251071cd66d2544a26d0b9a12b65139241e9fc7c6edf5bde71fd9b9b555a",
}

#: Norm-regularized mnist-like victims, keyed by (output, strength).
REGULARIZED_DIGESTS = {
    ("linear", 0.0): "2afb04405c8ca99a31d528b6076feb0f5df276bbe26b9903c0a0a2fe583b1d47",
    ("linear", 0.05): "6592c402bb152f3d530369ddf576d6a23a3eefdcd8031d7f504241c8b1ca7ace",
    ("softmax", 0.0): "21a8f598b81b344896890a3a5fd7148f513b8295075e75a0b35234ab8222a4e2",
    ("softmax", 0.05): "af34e2babccfc74a8674337437384b4904fa65f4425ddc185c4bd9aff031cd33",
}

#: Surrogates keyed by (λ, power normalisation, observed outputs).
SURROGATE_DIGESTS = {
    (0.0, "absolute", "raw"): "faba7ee77299caa7bddd9fc9dded959c22e4ad3bbf1cd20b48d5fb83062eb261",
    (0.0, "absolute", "one-hot"): "d783f7e4cc900c8d5bf3c9b660d0a5919711ffc185c6f07c1df579a4943b9791",
    (0.0, "relative", "raw"): "faba7ee77299caa7bddd9fc9dded959c22e4ad3bbf1cd20b48d5fb83062eb261",
    (0.0, "relative", "one-hot"): "d783f7e4cc900c8d5bf3c9b660d0a5919711ffc185c6f07c1df579a4943b9791",
    (0.5, "absolute", "raw"): "5821e3a1dec6c2bae1c454805985c28a328aa0316cc4f6cce0275980f2fd407d",
    (0.5, "absolute", "one-hot"): "bdc986d15349030bcd34c383546d30482556dd4aa4cd01fe48244071f1bc1baa",
    (0.5, "relative", "raw"): "c1d0fba1a19765054a98337a289137aeb46eaf1fef68a1e70b696480c2fa8200",
    (0.5, "relative", "one-hot"): "87de34e71bb825fbe19dbc4fc797029560cb47fa249aea464cb53c448f125c59",
}


def _dataset(name):
    if name == "mnist-like":
        return load_mnist_like(n_train=120, n_test=20, random_state=0)
    return load_cifar_like(n_train=80, n_test=20, random_state=0)


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for values in arrays:
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _victim(dataset, output, regularizer=None):
    network, _ = train_single_layer(
        dataset, output=output, epochs=EPOCHS, regularizer=regularizer, random_state=0
    )
    return network


@pytest.mark.parametrize("dataset, output", sorted(VICTIM_DIGESTS))
def test_victim_weights_are_pinned(dataset, output):
    network = _victim(_dataset(dataset), output)
    assert _digest(network.weights) == VICTIM_DIGESTS[dataset, output]


@pytest.mark.parametrize("output, strength", sorted(REGULARIZED_DIGESTS))
def test_regularized_victim_weights_are_pinned(output, strength):
    network = _victim(_dataset("mnist-like"), output, ColumnNormRegularizer(strength))
    assert _digest(network.weights) == REGULARIZED_DIGESTS[output, strength]


@pytest.mark.parametrize("output", ["linear", "softmax"])
def test_zero_strength_regularizer_trains_the_plain_victim(output):
    dataset = _dataset("mnist-like")
    plain = _victim(dataset, output)
    regularized = _victim(dataset, output, ColumnNormRegularizer(0.0))
    np.testing.assert_array_equal(regularized.weights, plain.weights)


def _surrogate_data():
    rng = np.random.default_rng(5)
    queries = rng.uniform(0.0, 1.0, size=(40, 16))
    weights = rng.normal(size=(4, 16))
    raw = queries @ weights.T
    outputs = {"raw": raw, "one-hot": one_hot(raw.argmax(axis=1), 4)}
    return queries, outputs, queries @ np.abs(weights).sum(axis=0)


@pytest.mark.parametrize("lam, normalization, observed", sorted(SURROGATE_DIGESTS))
def test_surrogate_weights_and_loss_history_are_pinned(lam, normalization, observed):
    queries, outputs, power = _surrogate_data()
    config = SurrogateConfig(
        power_loss_weight=lam, epochs=4, batch_size=16, power_normalization=normalization
    )
    trainer = SurrogateTrainer(16, 4, config=config, random_state=0)
    surrogate = trainer.fit(queries, outputs[observed], power)
    history = [
        [entry["output_loss"], entry["power_loss"], entry["total_loss"]]
        for entry in trainer.loss_history
    ]
    assert _digest(surrogate.weights, history) == SURROGATE_DIGESTS[lam, normalization, observed]
