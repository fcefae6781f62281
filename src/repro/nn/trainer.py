"""The mini-batch Adam loop every victim model trains through.

:class:`Trainer` reshuffles the training set once per epoch and takes one
Adam step per mini-batch.  An optional weight regularizer (the column-norm
defence of :mod:`repro.defenses.norm_balancing`) adds its gradient between
the backward pass and the step.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.losses import CategoricalCrossEntropy, Loss, get_loss
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential, SingleLayerNetwork
from repro.nn.optimizers import Adam
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_array, check_positive_int


class Trainer:
    """Trains a network with mini-batch Adam.

    Parameters
    ----------
    network:
        The network to train (modified in place).
    loss:
        Loss name or instance.  When the network's last layer uses softmax and
        the loss is categorical cross-entropy, the numerically stable fused
        gradient path is used automatically.
    learning_rate:
        Adam step size.
    batch_size:
        Mini-batch size.
    regularizer:
        Optional penalty on the first layer's weights, e.g. a
        :class:`~repro.defenses.norm_balancing.ColumnNormRegularizer`; its
        ``apply_to_training_gradient`` runs on every mini-batch gradient.
    random_state:
        Seed or generator controlling shuffling.
    """

    def __init__(
        self,
        network: Sequential,
        *,
        loss="mse",
        learning_rate: float = 0.005,
        batch_size: int = 64,
        regularizer=None,
        random_state: RandomState = None,
    ):
        self.network = network
        self.loss: Loss = get_loss(loss)
        self.optimizer = Adam(learning_rate=learning_rate)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.regularizer = regularizer
        self._rng = as_rng(random_state)

    # ------------------------------------------------------------------ api

    def _use_fused_softmax(self) -> bool:
        last_layer = self.network.layers[-1]
        return (
            isinstance(self.loss, CategoricalCrossEntropy)
            and last_layer.activation.name == "softmax"
        )

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> None:
        """One optimization step on a single mini-batch."""
        outputs = self.network.forward(inputs, training=True)
        if self._use_fused_softmax():
            grad = CategoricalCrossEntropy.fused_softmax_gradient(outputs, targets)
            self.network.backward(grad, skip_last_activation=True)
        else:
            grad = self.loss.gradient(outputs, targets)
            self.network.backward(grad)
        if self.regularizer is not None:
            layer = self.network.layers[0]
            layer.grad_weights = self.regularizer.apply_to_training_gradient(
                layer.weights, layer.grad_weights
            )
        self.optimizer.step(self.network)
        self.network.zero_gradients()

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> Tuple[float, float]:
        """Return (loss, accuracy) on a dataset without updating parameters."""
        outputs = self.network.predict(inputs)
        return self.loss.value(outputs, targets), accuracy(outputs, targets)

    def fit(self, inputs: np.ndarray, targets: np.ndarray, *, epochs: int = 10) -> None:
        """Train for ``epochs`` epochs, reshuffling the samples each epoch.

        Raises ``ValueError`` before the first step when the inputs or
        targets are empty or hold NaN or infinite values.
        """
        inputs = np.atleast_2d(check_array(inputs, "inputs", allow_empty=False))
        targets = np.atleast_2d(check_array(targets, "targets", allow_empty=False))
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs and targets disagree on sample count: {len(inputs)} vs {len(targets)}"
            )
        epochs = check_positive_int(epochs, "epochs")
        for _ in range(epochs):
            order = self._rng.permutation(len(inputs))
            for start in range(0, len(inputs), self.batch_size):
                batch = order[start : start + self.batch_size]
                self.train_step(inputs[batch], targets[batch])


def train_single_layer(
    dataset,
    *,
    output: str = "linear",
    epochs: int = 30,
    learning_rate: float = 0.005,
    batch_size: int = 64,
    regularizer=None,
    random_state: RandomState = None,
) -> Tuple[SingleLayerNetwork, Trainer]:
    """Build and train the paper's single-layer model.

    Parameters
    ----------
    dataset:
        A :class:`repro.datasets.base.Dataset` with flattened inputs and
        one-hot targets.
    output:
        ``"linear"`` (MSE loss) or ``"softmax"`` (cross-entropy loss).
    regularizer:
        Optional training-time defence folded into every step (see
        :class:`Trainer`); ``None`` trains the undefended victim.
    """
    rng = as_rng(random_state)
    network = SingleLayerNetwork(
        dataset.n_features,
        dataset.n_classes,
        output=output,
        random_state=rng,
    )
    trainer = Trainer(
        network,
        loss=network.default_loss(),
        learning_rate=learning_rate,
        batch_size=batch_size,
        regularizer=regularizer,
        random_state=rng,
    )
    trainer.fit(dataset.train_inputs, dataset.train_targets, epochs=epochs)
    return network, trainer
