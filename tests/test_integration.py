"""End-to-end integration tests covering the paper's two attack scenarios."""

import numpy as np

from repro.attacks import (
    Oracle,
    SinglePixelAttack,
    SinglePixelStrategy,
    SurrogateAttack,
    SurrogateConfig,
    accuracy_under_attack,
)
from repro.crossbar import CrossbarAccelerator
from repro.nn.gradients import weight_column_norms
from repro.sidechannel import ColumnNormProber


class TestCase1PowerOnlyAttacker:
    """Section III: the attacker sees only the power channel, not the outputs."""

    def test_full_pipeline_from_hardware_to_attack(self, trained_softmax, mnist_small):
        # 1. the victim runs on a crossbar accelerator
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        # 2. the attacker probes the power rail to recover the column 1-norms
        oracle = Oracle(accelerator, power_noise_std=0.01, random_state=1)
        prober = ColumnNormProber(oracle, mnist_small.n_features)
        probe = prober.probe_all()
        assert probe.queries_used == mnist_small.n_features
        # the leaked values must rank the columns like the true 1-norms
        true_norms = weight_column_norms(trained_softmax.weights)
        assert np.corrcoef(probe.column_sums, true_norms)[0, 1] > 0.95
        # 3. the leaked information drives a single-pixel attack that beats random
        power_attack = SinglePixelAttack(
            SinglePixelStrategy.POWER_ADD,
            column_norms=probe.column_sums,
            queries_used=probe.queries_used,
            random_state=0,
        )
        random_attack = SinglePixelAttack(SinglePixelStrategy.RANDOM_PIXEL, random_state=0)
        strength = 8.0
        power_acc = accuracy_under_attack(
            trained_softmax, power_attack, mnist_small.test_inputs, mnist_small.test_targets, strength
        )
        random_acc = accuracy_under_attack(
            trained_softmax, random_attack, mnist_small.test_inputs, mnist_small.test_targets, strength
        )
        assert power_acc < random_acc - 0.05

    def test_noisy_measurements_degrade_gracefully(self, trained_softmax, mnist_small):
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        heavy_noise = Oracle(accelerator, power_noise_std=0.5, random_state=2)
        prober = ColumnNormProber(heavy_noise, mnist_small.n_features)
        noisy_norms = prober.probe_all().column_sums
        true_norms = weight_column_norms(trained_softmax.weights)
        clean_corr = 1.0
        noisy_corr = np.corrcoef(noisy_norms, true_norms)[0, 1]
        assert noisy_corr < clean_corr
        assert np.isfinite(noisy_corr)


class TestCase2BlackBoxWithOutputs:
    """Section IV: the attacker queries the oracle and also records power."""

    def test_power_augmented_surrogate_is_at_least_as_faithful(
        self, trained_linear, mnist_small
    ):
        results = {}
        n_queries = 400
        for lam in (0.0, 0.01):
            oracle = Oracle(trained_linear, output_mode="label", random_state=0)
            attack = SurrogateAttack(
                oracle,
                config=SurrogateConfig(power_loss_weight=lam, epochs=250),
                attack_strength=0.1,
                random_state=0,
            )
            results[lam] = attack.run(
                mnist_small.query_pool(n_queries, random_state=3),
                mnist_small.test_inputs,
                mnist_small.test_targets,
            )
        # With only label feedback at a moderate query budget, the power term
        # must not hurt and typically helps (the paper's MNIST finding).
        assert (
            results[0.01].surrogate_test_accuracy
            >= results[0.0].surrogate_test_accuracy - 0.03
        )
        assert (
            results[0.01].oracle_adversarial_accuracy
            <= results[0.0].oracle_adversarial_accuracy + 0.03
        )

    def test_query_information_dominates_for_large_budgets(self, trained_linear, mnist_small):
        """With Q >= N the outputs alone pin down the weights; power adds nothing.

        This mirrors the paper's observation that the power information's
        utility drops off once the query count exceeds the input size.
        """
        n_queries = mnist_small.n_train  # >> useful range for a 600-sample set
        adv = {}
        for lam in (0.0, 0.01):
            oracle = Oracle(trained_linear, output_mode="raw", random_state=0)
            attack = SurrogateAttack(
                oracle,
                config=SurrogateConfig(power_loss_weight=lam, epochs=250),
                random_state=0,
            )
            result = attack.run(
                mnist_small.query_pool(n_queries, random_state=1),
                mnist_small.test_inputs,
                mnist_small.test_targets,
            )
            adv[lam] = result.oracle_adversarial_accuracy
        assert abs(adv[0.0] - adv[0.01]) < 0.1

    def test_crossbar_oracle_end_to_end(self, trained_linear, mnist_small):
        """The whole loop also runs against the simulated hardware oracle."""
        accelerator = CrossbarAccelerator(trained_linear, random_state=0)
        oracle = Oracle(accelerator, output_mode="raw", random_state=0)
        attack = SurrogateAttack(
            oracle,
            config=SurrogateConfig(
                power_loss_weight=0.01, epochs=150, power_normalization="relative"
            ),
            random_state=0,
        )
        result = attack.run(
            mnist_small.query_pool(200, random_state=0),
            mnist_small.test_inputs,
            mnist_small.test_targets,
        )
        assert result.oracle_adversarial_accuracy < result.oracle_clean_accuracy
        assert result.surrogate_test_accuracy > 0.4
