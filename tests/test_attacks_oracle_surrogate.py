"""Tests for repro.attacks.oracle, repro.attacks.surrogate and evaluation helpers."""

import numpy as np
import pytest

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.fgsm import FastGradientSignMethod
from repro.attacks.oracle import Oracle
from repro.attacks.surrogate import (
    SurrogateAttack,
    SurrogateConfig,
    SurrogateTrainer,
)
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.tile import CrossbarTile
from repro.nn.layers import Dense
from repro.nn.gradients import weight_column_norms


class TestOracle:
    def test_raw_mode_returns_raw_outputs(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        response = oracle.query(mnist_small.test_inputs[:5])
        np.testing.assert_allclose(
            response.outputs, trained_linear.predict(mnist_small.test_inputs[:5])
        )
        assert response.output_mode == "raw"

    def test_label_mode_returns_one_hot(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="label", random_state=0)
        response = oracle.query(mnist_small.test_inputs[:5])
        assert set(np.unique(response.outputs)).issubset({0.0, 1.0})
        np.testing.assert_array_equal(np.argmax(response.outputs, axis=1), response.labels)

    def test_power_matches_analytic_value(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        inputs = mnist_small.test_inputs[:4]
        response = oracle.query(inputs)
        expected = inputs @ weight_column_norms(trained_linear.weights)
        np.testing.assert_allclose(response.power, expected)

    def test_power_hidden_when_disabled(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, expose_power=False, random_state=0)
        assert oracle.query(mnist_small.test_inputs[:3]).power is None

    def test_power_noise(self, trained_linear, mnist_small):
        noisy = Oracle(trained_linear, power_noise_std=0.05, random_state=0)
        clean = Oracle(trained_linear, random_state=0)
        inputs = mnist_small.test_inputs[:10]
        assert not np.allclose(noisy.query(inputs).power, clean.query(inputs).power)

    def test_accelerator_target_power_consistent_with_analytic(self, trained_linear, mnist_small):
        """For the ideal crossbar the hardware power equals the analytic one up to scale."""
        accelerator = CrossbarAccelerator(trained_linear, random_state=0)
        hardware_oracle = Oracle(accelerator, random_state=0)
        analytic_oracle = Oracle(trained_linear, random_state=0)
        inputs = mnist_small.test_inputs[:10]
        hardware_power = hardware_oracle.query(inputs).power
        analytic_power = analytic_oracle.query(inputs).power
        assert np.corrcoef(hardware_power, analytic_power)[0, 1] > 1 - 1e-10

    def test_query_counting(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, random_state=0)
        oracle.query(mnist_small.test_inputs[:7])
        oracle.query(mnist_small.test_inputs[:3])
        assert oracle.queries_used == 10
        oracle.reset_counter()
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_rejected_before_charging(self, trained_linear, mnist_small, bad):
        oracle = Oracle(trained_linear, random_state=0)
        inputs = mnist_small.test_inputs[:3].copy()
        inputs[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            oracle.query(inputs)
        assert oracle.queries_used == 0

    def test_predict_labels_not_counted(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, random_state=0)
        oracle.predict_labels(mnist_small.test_inputs[:5])
        assert oracle.queries_used == 0

    def test_accuracy_helper(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, random_state=0)
        value = oracle.accuracy(mnist_small.test_inputs, mnist_small.test_targets)
        assert 0.0 <= value <= 1.0

    def test_invalid_output_mode(self, trained_linear):
        with pytest.raises(ValueError):
            Oracle(trained_linear, output_mode="logits")

    @pytest.mark.parametrize(
        "target",
        [CrossbarTile(Dense(4, 3, random_state=0), random_state=0), Dense(4, 3), object()],
        ids=["tile", "layer", "object"],
    )
    def test_unsupported_target_rejected_at_construction(self, target):
        """Hardware means ``forward_with_power``; software means a Sequential."""
        with pytest.raises(TypeError, match="hardware target"):
            Oracle(target)


class TestSurrogateConfig:
    def test_defaults_valid(self):
        SurrogateConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(power_loss_weight=-1.0)
        with pytest.raises(ValueError):
            SurrogateConfig(epochs=0)
        with pytest.raises(ValueError):
            SurrogateConfig(power_normalization="weird")


class TestSurrogateTrainer:
    def test_output_fit_without_power(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        queries = mnist_small.query_pool(300, random_state=0)
        response = oracle.query(queries)
        trainer = SurrogateTrainer(
            mnist_small.n_features,
            mnist_small.n_classes,
            config=SurrogateConfig(epochs=150),
            random_state=0,
        )
        surrogate = trainer.fit(response.queries, response.outputs, None)
        predictions = surrogate.predict(queries)
        assert np.mean((predictions - response.outputs) ** 2) < 1e-2

    def test_power_term_improves_column_norm_recovery(self, trained_linear, mnist_small):
        """The power loss must pull the surrogate's column 1-norms towards the victim's."""
        oracle = Oracle(trained_linear, output_mode="label", random_state=0)
        queries = mnist_small.query_pool(300, random_state=1)
        response = oracle.query(queries)
        true_norms = weight_column_norms(trained_linear.weights)

        correlations = {}
        for lam in (0.0, 0.01):
            trainer = SurrogateTrainer(
                mnist_small.n_features,
                mnist_small.n_classes,
                config=SurrogateConfig(power_loss_weight=lam, epochs=200),
                random_state=3,
            )
            surrogate = trainer.fit(response.queries, response.outputs, response.power)
            correlations[lam] = np.corrcoef(
                weight_column_norms(surrogate.weights), true_norms
            )[0, 1]
        assert correlations[0.01] > correlations[0.0] + 0.05

    def test_loss_history_recorded(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        response = oracle.query(mnist_small.query_pool(50, random_state=0))
        trainer = SurrogateTrainer(
            mnist_small.n_features,
            mnist_small.n_classes,
            config=SurrogateConfig(epochs=20, power_loss_weight=0.01),
            random_state=0,
        )
        trainer.fit(response.queries, response.outputs, response.power)
        assert len(trainer.loss_history) == 20
        assert trainer.loss_history[-1]["output_loss"] < trainer.loss_history[0]["output_loss"]

    def test_power_ignored_when_lambda_zero(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        response = oracle.query(mnist_small.query_pool(50, random_state=0))
        trainer = SurrogateTrainer(
            mnist_small.n_features,
            mnist_small.n_classes,
            config=SurrogateConfig(epochs=10, power_loss_weight=0.0),
            random_state=0,
        )
        trainer.fit(response.queries, response.outputs, response.power)
        assert all(entry["power_loss"] == 0.0 for entry in trainer.loss_history)

    def test_input_validation(self, mnist_small):
        trainer = SurrogateTrainer(mnist_small.n_features, mnist_small.n_classes)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((5, 3)), np.zeros((5, 10)), None)
        with pytest.raises(ValueError):
            trainer.fit(
                np.zeros((5, mnist_small.n_features)), np.zeros((4, mnist_small.n_classes)), None
            )
        with pytest.raises(ValueError):
            trainer.fit(
                np.zeros((5, mnist_small.n_features)),
                np.zeros((5, mnist_small.n_classes)),
                np.zeros(3),
            )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty", "queries must not be empty"),
            ("nan-query", "queries contains NaN"),
            ("inf-output", "outputs contains NaN or infinite"),
            ("nan-power", "power contains NaN"),
        ],
        ids=["empty", "nan-query", "inf-output", "nan-power"],
    )
    def test_degenerate_data_rejected_before_training(self, case, message):
        rng = np.random.default_rng(0)
        queries = rng.uniform(0.0, 1.0, size=(12, 6))
        outputs = rng.normal(size=(12, 3))
        power = queries.sum(axis=1)
        if case == "empty":
            queries, outputs, power = queries[:0], outputs[:0], power[:0]
        elif case == "nan-query":
            queries[4, 1] = np.nan
        elif case == "inf-output":
            outputs[2, 0] = np.inf
        else:
            power[7] = np.nan
        trainer = SurrogateTrainer(
            6, 3, config=SurrogateConfig(power_loss_weight=0.5, epochs=3), random_state=0
        )
        with pytest.raises(ValueError, match=message):
            trainer.fit(queries, outputs, power)
        assert trainer.loss_history == []


class TestSurrogateAttack:
    def test_end_to_end_attack_hurts_oracle(self, trained_linear, mnist_small):
        oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
        attack = SurrogateAttack(
            oracle, config=SurrogateConfig(epochs=200), attack_strength=0.1, random_state=0
        )
        result = attack.run(
            mnist_small.query_pool(400, random_state=0),
            mnist_small.test_inputs,
            mnist_small.test_targets,
        )
        assert result.oracle_adversarial_accuracy < result.oracle_clean_accuracy - 0.2
        assert result.surrogate_test_accuracy > 0.5
        assert result.n_queries == 400
        assert result.accuracy_degradation > 0.2

    def test_more_queries_better_surrogate(self, trained_linear, mnist_small):
        accuracies = []
        for n_queries in (20, 400):
            oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
            attack = SurrogateAttack(
                oracle, config=SurrogateConfig(epochs=200), random_state=0
            )
            result = attack.run(
                mnist_small.query_pool(n_queries, random_state=1),
                mnist_small.test_inputs,
                mnist_small.test_targets,
            )
            accuracies.append(result.surrogate_test_accuracy)
        assert accuracies[1] > accuracies[0]


class TestEvaluationHelpers:
    def test_accuracy_under_attack_range(self, trained_softmax, mnist_small):
        attack = FastGradientSignMethod(trained_softmax)
        value = accuracy_under_attack(
            trained_softmax, attack, mnist_small.test_inputs, mnist_small.test_targets, 0.1
        )
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("victim_name", ["trained_softmax", "accelerator"])
    def test_zero_strength_is_clean_accuracy(
        self, victim_name, request, trained_softmax, mnist_small
    ):
        victim = request.getfixturevalue(victim_name)
        attack = FastGradientSignMethod(trained_softmax)
        inputs, targets = mnist_small.test_inputs[:50], mnist_small.test_targets[:50]
        clean = np.mean(victim.predict_labels(inputs) == np.argmax(targets, axis=1))
        assert accuracy_under_attack(victim, attack, inputs, targets, 0.0) == clean

    def test_stronger_attack_never_helps_the_victim(self, trained_softmax, mnist_small):
        attack = FastGradientSignMethod(trained_softmax)
        accuracies = [
            accuracy_under_attack(
                trained_softmax, attack, mnist_small.test_inputs, mnist_small.test_targets, strength
            )
            for strength in (0.0, 0.1, 0.3)
        ]
        assert accuracies[0] >= accuracies[1] >= accuracies[2]
        assert accuracies[2] < accuracies[0]

    def test_accelerator_as_victim(self, accelerator, trained_softmax, mnist_small):
        attack = FastGradientSignMethod(trained_softmax)
        value = accuracy_under_attack(
            accelerator, attack, mnist_small.test_inputs[:50], mnist_small.test_targets[:50], 0.1
        )
        assert 0.0 <= value <= 1.0
