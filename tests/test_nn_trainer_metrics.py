"""Tests for repro.nn.trainer and repro.nn.metrics."""

import numpy as np
import pytest

from repro.datasets.transforms import one_hot
from repro.nn.metrics import accuracy
from repro.nn.network import SingleLayerNetwork
from repro.nn.trainer import Trainer, train_single_layer


class TestMetrics:
    def test_accuracy_from_labels(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_from_one_hot(self):
        predictions = np.array([[0.9, 0.1], [0.2, 0.8]])
        targets = one_hot(np.array([0, 0]), 2)
        assert accuracy(predictions, targets) == pytest.approx(0.5)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))

    def test_accuracy_empty_batch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestTrainer:
    def _toy_dataset(self, rng, n=200, n_features=8, n_classes=3):
        weights = rng.normal(size=(n_classes, n_features))
        inputs = rng.normal(size=(n, n_features))
        labels = np.argmax(inputs @ weights.T, axis=1)
        return inputs, one_hot(labels, n_classes)

    def test_training_improves_accuracy(self, rng):
        inputs, targets = self._toy_dataset(rng)
        network = SingleLayerNetwork(8, 3, output="softmax", random_state=0)
        trainer = Trainer(
            network,
            loss="categorical_crossentropy",
            learning_rate=0.05,
            batch_size=32,
            random_state=0,
        )
        _, before = trainer.evaluate(inputs, targets)
        trainer.fit(inputs, targets, epochs=20)
        _, after = trainer.evaluate(inputs, targets)
        assert after > before
        assert after > 0.9

    def test_fused_softmax_path_used(self, rng):
        inputs, targets = self._toy_dataset(rng)
        network = SingleLayerNetwork(8, 3, output="softmax", random_state=0)
        trainer = Trainer(network, loss="categorical_crossentropy", random_state=0)
        assert trainer._use_fused_softmax()

    def test_mse_path_for_linear(self, rng):
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", random_state=0)
        assert not trainer._use_fused_softmax()

    def test_sample_count_mismatch_raises(self, rng):
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", random_state=0)
        with pytest.raises(ValueError):
            trainer.fit(rng.normal(size=(10, 8)), rng.normal(size=(9, 3)), epochs=1)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty", "inputs must not be empty"),
            ("nan-input", "inputs contains NaN"),
            ("inf-target", "targets contains NaN or infinite"),
        ],
        ids=["empty", "nan-input", "inf-target"],
    )
    def test_degenerate_data_rejected_before_training(self, rng, case, message):
        inputs, targets = self._toy_dataset(rng, n=20)
        if case == "empty":
            inputs, targets = inputs[:0], targets[:0]
        elif case == "nan-input":
            inputs[3, 2] = np.nan
        else:
            targets[5, 1] = np.inf
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        before = network.weights.copy()
        trainer = Trainer(network, loss="mse", random_state=0)
        with pytest.raises(ValueError, match=message):
            trainer.fit(inputs, targets, epochs=2)
        np.testing.assert_array_equal(network.weights, before)


class TestTrainSingleLayerHelper:
    def test_trains_both_outputs(self, mnist_small):
        for output in ("linear", "softmax"):
            network, trainer = train_single_layer(
                mnist_small, output=output, epochs=5, random_state=0
            )
            assert network.output_type == output
            _, acc = trainer.evaluate(mnist_small.test_inputs, mnist_small.test_targets)
            assert acc > 0.3  # well above the 10% chance level even at 5 epochs
