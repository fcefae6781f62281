"""Tests for repro.defenses — countermeasures against the power side channel."""

import numpy as np
import pytest

from repro.attacks.oracle import Oracle
from repro.crossbar import CrossbarAccelerator
from repro.defenses import (
    ColumnNormRegularizer,
    PowerNoiseDefense,
    evaluate_defense,
    leakage_correlation,
    rebalance_column_norms,
    single_pixel_attack_advantage,
)
from repro.nn.gradients import weight_column_norms
from repro.nn.layers import Dense
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential
from repro.nn.trainer import train_single_layer
from repro.sidechannel import ColumnNormProber


class TestColumnNormRegularizer:
    def test_penalty_zero_for_uniform_norms(self):
        weights = np.ones((4, 6))
        assert ColumnNormRegularizer(1.0).penalty(weights) == pytest.approx(0.0)

    def test_penalty_positive_for_nonuniform_norms(self, rng):
        weights = rng.normal(size=(4, 6))
        weights[:, 0] *= 10
        assert ColumnNormRegularizer(1.0).penalty(weights) > 0

    def test_zero_strength_disables(self, rng):
        weights = rng.normal(size=(3, 5))
        regularizer = ColumnNormRegularizer(0.0)
        assert regularizer.penalty(weights) == 0.0
        np.testing.assert_array_equal(regularizer.gradient(weights), 0.0)

    def test_gradient_matches_numerical(self, rng):
        regularizer = ColumnNormRegularizer(0.7)
        weights = rng.normal(size=(3, 5))
        analytic = regularizer.gradient(weights)
        numerical = np.zeros_like(weights)
        eps = 1e-6
        for index in np.ndindex(weights.shape):
            plus, minus = weights.copy(), weights.copy()
            plus[index] += eps
            minus[index] -= eps
            numerical[index] = (
                regularizer.penalty(plus) - regularizer.penalty(minus)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numerical, atol=1e-5)

    def test_gradient_descent_reduces_leakage_variance(self, rng):
        regularizer = ColumnNormRegularizer(1.0)
        weights = rng.normal(size=(5, 10))
        weights[:, 0] *= 5
        before = regularizer.leakage_variance(weights)
        for _ in range(200):
            weights = weights - 0.05 * regularizer.gradient(weights)
        assert regularizer.leakage_variance(weights) < before / 2

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            ColumnNormRegularizer(-0.1)

    def test_apply_to_training_gradient_adds_penalty_term(self, rng):
        regularizer = ColumnNormRegularizer(0.5)
        weights = rng.normal(size=(3, 4))
        task_gradient = rng.normal(size=(3, 4))
        combined = regularizer.apply_to_training_gradient(weights, task_gradient)
        np.testing.assert_allclose(
            combined, task_gradient + regularizer.gradient(weights)
        )


class TestRebalanceColumnNorms:
    def test_full_blend_equalises_norms(self, trained_softmax):
        network = trained_softmax.clone_architecture(random_state=0)
        network.weights = trained_softmax.weights.copy()
        rebalance_column_norms(network, blend=1.0)
        norms = weight_column_norms(network.weights)
        active = norms[norms > 1e-12]
        assert active.std() / active.mean() < 1e-6

    def test_full_blend_targets_mean_norm(self, rng):
        network = Sequential([Dense(6, 3, random_state=0)])
        network.layers[0].set_weights(rng.normal(size=(3, 6)))
        mean_norm = weight_column_norms(network.layers[0].weights).mean()
        rebalance_column_norms(network, blend=1.0)
        np.testing.assert_allclose(weight_column_norms(network.layers[0].weights), mean_norm)

    def test_partial_blend_interpolates_geometrically(self, rng):
        """``blend=0.5`` leaves each column norm at ``sqrt(n_j * mean)``."""
        network = Sequential([Dense(6, 3, random_state=0)])
        network.layers[0].set_weights(rng.normal(size=(3, 6)))
        norms = weight_column_norms(network.layers[0].weights)
        rebalance_column_norms(network, blend=0.5)
        np.testing.assert_allclose(
            weight_column_norms(network.layers[0].weights), np.sqrt(norms * norms.mean())
        )

    def test_zero_blend_is_identity(self, trained_softmax):
        network = trained_softmax.clone_architecture(random_state=0)
        network.weights = trained_softmax.weights.copy()
        rebalance_column_norms(network, blend=0.0)
        np.testing.assert_allclose(network.weights, trained_softmax.weights)

    def test_invalid_blend(self, trained_softmax):
        with pytest.raises(ValueError):
            rebalance_column_norms(trained_softmax, blend=1.5)

    def test_rebalanced_model_loses_little_accuracy_but_hides_leak(
        self, trained_softmax, mnist_small
    ):
        network = trained_softmax.clone_architecture(random_state=0)
        network.weights = trained_softmax.weights.copy()
        baseline_accuracy = accuracy(
            trained_softmax.predict(mnist_small.test_inputs), mnist_small.test_targets
        )
        rebalance_column_norms(network, blend=1.0)
        defended_accuracy = accuracy(
            network.predict(mnist_small.test_inputs), mnist_small.test_targets
        )
        # The defence must not destroy the model...
        assert defended_accuracy > baseline_accuracy - 0.35
        # ...and the crossbar built from it must no longer leak the original norms.
        accelerator = CrossbarAccelerator(network, random_state=0)
        prober = ColumnNormProber(Oracle(accelerator), mnist_small.n_features)
        leaked = prober.probe_all().column_sums
        original_norms = weight_column_norms(trained_softmax.weights)
        mask = original_norms > 1e-9  # columns that were never used stay at zero
        correlation = abs(np.corrcoef(leaked[mask], original_norms[mask])[0, 1])
        assert correlation < 0.4


class TestTrainWithNormBalancing:
    def test_regularized_training_reduces_leakage_variance(self, mnist_small):
        undefended, _ = train_single_layer(
            mnist_small,
            output="softmax",
            regularizer=ColumnNormRegularizer(0.0),
            epochs=8,
            random_state=0,
        )
        defended, _ = train_single_layer(
            mnist_small,
            output="softmax",
            regularizer=ColumnNormRegularizer(5.0),
            epochs=8,
            random_state=0,
        )
        metric = ColumnNormRegularizer(1.0)
        assert metric.leakage_variance(defended.weights) < metric.leakage_variance(
            undefended.weights
        )
        defended_accuracy = accuracy(
            defended.predict(mnist_small.test_inputs), mnist_small.test_targets
        )
        assert defended_accuracy > 0.6  # still a usable model


class TestPowerNoiseDefense:
    def test_functional_outputs_unchanged(self, accelerator, mnist_small):
        defense = PowerNoiseDefense(accelerator, random_state=0)
        inputs = mnist_small.test_inputs[:10]
        np.testing.assert_allclose(defense.forward(inputs), accelerator.forward(inputs))
        np.testing.assert_array_equal(
            Oracle(defense, expose_power=False).predict_labels(inputs),
            accelerator.predict_labels(inputs),
        )

    def test_reports_wrapped_dimensions(self, accelerator):
        """The networked server reads ``n_inputs`` to reject wrong-width rows."""
        defense = PowerNoiseDefense(accelerator, random_state=0)
        assert defense.n_inputs == accelerator.n_inputs
        assert defense.n_outputs == accelerator.n_outputs

    def test_power_observable_randomised(self, accelerator, mnist_small):
        defense = PowerNoiseDefense(accelerator, random_state=0)
        u = mnist_small.test_inputs[0]
        readings = np.array(
            [defense.forward_with_power(u)[1].total_current[0] for _ in range(20)]
        )
        assert readings.std() > 0
        # dummy draw only ever adds current
        assert readings.mean() > accelerator.forward_with_power(u)[1].total_current[0]

    def test_defense_destroys_probe_correlation(self, accelerator, trained_softmax, mnist_small):
        strong_defense = PowerNoiseDefense(
            accelerator, dummy_current_scale=5.0, jitter=0.5, random_state=0
        )
        undefended_corr = leakage_correlation(accelerator, trained_softmax)
        defended_corr = leakage_correlation(strong_defense, trained_softmax)
        assert undefended_corr > 0.99
        assert defended_corr < 0.5

    def test_overhead_factor(self, accelerator):
        assert PowerNoiseDefense(accelerator, dummy_current_scale=0.5).overhead_factor == 1.5

    def test_invalid_parameters(self, accelerator):
        with pytest.raises(ValueError):
            PowerNoiseDefense(accelerator, dummy_current_scale=-1.0)
        with pytest.raises(ValueError):
            PowerNoiseDefense(accelerator, jitter=-0.1)


class TestEvaluation:
    def test_leakage_correlation_ideal_crossbar(self, accelerator, trained_softmax):
        assert leakage_correlation(accelerator, trained_softmax) > 0.99

    def test_attack_advantage_positive_without_defense(
        self, trained_softmax, accelerator, mnist_small
    ):
        prober = ColumnNormProber(Oracle(accelerator), mnist_small.n_features)
        leaked = prober.probe_all().column_sums
        advantage = single_pixel_attack_advantage(
            trained_softmax,
            leaked,
            mnist_small.test_inputs,
            mnist_small.test_targets,
            strength=8.0,
            random_state=0,
        )
        assert advantage > 0.03

    def test_zero_variance_leaked_norms_give_zero_leakage(self, trained_softmax):
        """A fully jammed/quantised channel must score 0.0, not NaN."""

        # every basis probe of this target reads the same 3.0
        constant_target = trained_softmax.clone_architecture(random_state=0)
        constant_target.weights = np.full_like(trained_softmax.weights, 0.3)
        leakage = leakage_correlation(constant_target, trained_softmax)
        assert leakage == 0.0
        # the precomputed-norms path hits the same guard
        n = trained_softmax.layers[0].n_inputs
        assert (
            leakage_correlation(None, trained_softmax, leaked_norms=np.zeros(n)) == 0.0
        )

    def test_constant_weight_victim_gives_zero_leakage(self, trained_softmax, accelerator):
        """Zero-variance *true* norms (constant weights) must score 0.0, not NaN."""
        constant = trained_softmax.clone_architecture(random_state=0)
        constant.weights = np.full_like(trained_softmax.weights, 0.5)
        leakage = leakage_correlation(accelerator, constant)
        assert leakage == 0.0 and np.isfinite(leakage)

    def test_non_finite_readings_give_zero_leakage(self, trained_softmax):
        n = trained_softmax.layers[0].n_inputs
        leaked = np.linspace(0.0, 1.0, n)
        leaked[0] = np.nan
        assert (
            leakage_correlation(None, trained_softmax, leaked_norms=leaked) == 0.0
        )

    def test_precomputed_norms_match_probing_path(self, trained_softmax, accelerator, mnist_small):
        """Scoring a caller-supplied acquisition equals probing in-place."""
        prober = ColumnNormProber(Oracle(accelerator), mnist_small.n_features)
        leaked = prober.probe_all().column_sums
        assert leakage_correlation(
            accelerator, trained_softmax, leaked_norms=leaked
        ) == pytest.approx(leakage_correlation(accelerator, trained_softmax))

    def test_attack_advantage_deterministic_under_fixed_seed(
        self, trained_softmax, accelerator, mnist_small
    ):
        prober = ColumnNormProber(Oracle(accelerator), mnist_small.n_features)
        leaked = prober.probe_all().column_sums
        advantages = [
            single_pixel_attack_advantage(
                trained_softmax,
                leaked,
                mnist_small.test_inputs,
                mnist_small.test_targets,
                strength=8.0,
                random_state=123,
            )
            for _ in range(2)
        ]
        assert advantages[0] == advantages[1]

    def test_evaluate_defense_report(self, trained_softmax, accelerator, mnist_small):
        undefended = evaluate_defense(
            "none",
            trained_softmax,
            accelerator,
            mnist_small.test_inputs,
            mnist_small.test_targets,
            random_state=0,
        )
        defended = evaluate_defense(
            "noise-injection",
            trained_softmax,
            PowerNoiseDefense(accelerator, dummy_current_scale=5.0, jitter=0.5, random_state=1),
            mnist_small.test_inputs,
            mnist_small.test_targets,
            power_overhead=6.0,
            random_state=0,
        )
        assert undefended.leakage > defended.leakage
        assert undefended.clean_accuracy == pytest.approx(defended.clean_accuracy)
        assert defended.power_overhead == 6.0
        assert defended.name == "noise-injection"
