"""Tests for repro.nn.trainer and repro.nn.metrics."""

import numpy as np
import pytest

from repro.datasets.transforms import one_hot
from repro.nn.metrics import accuracy
from repro.nn.network import SingleLayerNetwork
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer, TrainingHistory, train_single_layer


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


class TestTrainingHistory:
    def test_record_and_best_epoch(self):
        history = TrainingHistory()
        history.record(1.0, 0.5, 0.9, 0.6)
        history.record(0.5, 0.7, 0.8, 0.65)
        history.record(0.6, 0.68, 0.85, 0.64)
        assert history.n_epochs == 3
        assert history.best_epoch("val_loss") == 1
        assert history.best_epoch("val_accuracy") == 1
        assert history.best_epoch("train_loss") == 1

    def test_best_epoch_empty_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().best_epoch()

    def test_to_dict(self):
        history = TrainingHistory()
        history.record(1.0, 0.5)
        payload = history.to_dict()
        assert payload["train_loss"] == [1.0]
        assert payload["val_loss"] == []


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
            optimizer=Adam(learning_rate=0.05),
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

    def test_history_recorded_per_epoch(self, rng):
        inputs, targets = self._toy_dataset(rng, n=60)
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", random_state=0)
        history = trainer.fit(inputs, targets, epochs=5)
        assert history.n_epochs == 5

    def test_validation_curve_recorded(self, rng):
        inputs, targets = self._toy_dataset(rng, n=80)
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", random_state=0)
        history = trainer.fit(
            inputs[:60], targets[:60], epochs=3, validation_data=(inputs[60:], targets[60:])
        )
        assert len(history.val_loss) == 3

    def test_early_stopping_halts(self, rng):
        inputs, targets = self._toy_dataset(rng, n=60)
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", optimizer=Adam(learning_rate=1e-6), random_state=0)
        history = trainer.fit(
            inputs, targets, epochs=50, early_stopping_patience=2, min_delta=1.0
        )
        assert history.n_epochs <= 4

    def test_sample_count_mismatch_raises(self, rng):
        network = SingleLayerNetwork(8, 3, output="linear", random_state=0)
        trainer = Trainer(network, loss="mse", random_state=0)
        with pytest.raises(ValueError):
            trainer.fit(rng.normal(size=(10, 8)), rng.normal(size=(9, 3)), epochs=1)


class TestTrainSingleLayerHelper:
    def test_trains_both_outputs(self, mnist_small):
        for output in ("linear", "softmax"):
            network, trainer = train_single_layer(
                mnist_small, output=output, epochs=5, random_state=0
            )
            assert network.output_type == output
            _, acc = trainer.evaluate(mnist_small.test_inputs, mnist_small.test_targets)
            assert acc > 0.3  # well above the 10% chance level even at 5 epochs
