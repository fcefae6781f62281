"""Tests for repro.attacks.single_pixel and repro.attacks.multi_pixel."""

import numpy as np
import pytest

from repro.attacks.evaluation import accuracy_under_attack
from repro.attacks.multi_pixel import MultiPixelAttack
from repro.attacks.single_pixel import SinglePixelAttack, SinglePixelStrategy
from repro.nn.gradients import weight_column_norms


@pytest.fixture(scope="module")
def attack_setup(trained_softmax, mnist_small):
    norms = weight_column_norms(trained_softmax.weights)
    return trained_softmax, mnist_small, norms


class TestStrategyEnum:
    def test_paper_labels(self):
        labels = {s.paper_label for s in SinglePixelStrategy}
        assert labels == {"RP", "+", "-", "RD", "Worst"}

    def test_information_requirements(self):
        assert SinglePixelStrategy.POWER_ADD.needs_power_information
        assert not SinglePixelStrategy.RANDOM_PIXEL.needs_power_information
        assert SinglePixelStrategy.WORST_CASE.needs_model_gradients
        assert not SinglePixelStrategy.POWER_RANDOM.needs_model_gradients


class TestConstruction:
    def test_power_strategies_require_norms(self):
        with pytest.raises(ValueError):
            SinglePixelAttack(SinglePixelStrategy.POWER_ADD)

    def test_worst_case_requires_network(self):
        with pytest.raises(ValueError):
            SinglePixelAttack(SinglePixelStrategy.WORST_CASE)

    def test_random_pixel_needs_nothing(self):
        attack = SinglePixelAttack(SinglePixelStrategy.RANDOM_PIXEL, random_state=0)
        assert attack.strategy is SinglePixelStrategy.RANDOM_PIXEL

    def test_string_strategy_accepted(self, attack_setup):
        _, _, norms = attack_setup
        attack = SinglePixelAttack("power_add", column_norms=norms)
        assert attack.strategy is SinglePixelStrategy.POWER_ADD


class TestPerturbationStructure:
    def test_exactly_one_pixel_modified(self, attack_setup):
        network, dataset, norms = attack_setup
        for strategy in SinglePixelStrategy:
            attack = SinglePixelAttack(
                strategy, column_norms=norms, network=network, random_state=0
            )
            result = attack.attack(dataset.test_inputs[:10], dataset.test_targets[:10], 3.0)
            changed = np.count_nonzero(result.perturbations, axis=1)
            assert np.all(changed <= 1), strategy
            assert np.all(np.abs(result.perturbations).max(axis=1) == pytest.approx(3.0))

    def test_power_add_targets_largest_norm_pixel(self, attack_setup):
        network, dataset, norms = attack_setup
        attack = SinglePixelAttack(SinglePixelStrategy.POWER_ADD, column_norms=norms)
        result = attack.attack(dataset.test_inputs[:5], dataset.test_targets[:5], 2.0)
        target_pixel = int(np.argmax(norms))
        assert attack.target_pixel() == target_pixel
        np.testing.assert_allclose(result.perturbations[:, target_pixel], 2.0)

    def test_power_subtract_signs(self, attack_setup):
        network, dataset, norms = attack_setup
        attack = SinglePixelAttack(SinglePixelStrategy.POWER_SUBTRACT, column_norms=norms)
        result = attack.attack(dataset.test_inputs[:5], dataset.test_targets[:5], 2.0)
        assert np.all(result.perturbations[:, attack.target_pixel()] == -2.0)

    def test_power_random_mixes_signs(self, attack_setup):
        network, dataset, norms = attack_setup
        attack = SinglePixelAttack(
            SinglePixelStrategy.POWER_RANDOM, column_norms=norms, random_state=0
        )
        result = attack.attack(dataset.test_inputs[:200], dataset.test_targets[:200], 1.0)
        signs = result.perturbations[:, attack.target_pixel()]
        assert np.any(signs > 0) and np.any(signs < 0)

    def test_worst_case_moves_along_gradient(self, attack_setup):
        network, dataset, norms = attack_setup
        from repro.nn.gradients import input_gradients

        inputs = dataset.test_inputs[:6]
        targets = dataset.test_targets[:6]
        attack = SinglePixelAttack(SinglePixelStrategy.WORST_CASE, network=network)
        result = attack.attack(inputs, targets, 1.5)
        gradients = input_gradients(network, inputs, targets)
        for b in range(len(inputs)):
            pixel = int(np.argmax(np.abs(gradients[b])))
            assert result.perturbations[b, pixel] == pytest.approx(
                1.5 * np.sign(gradients[b, pixel])
            )

    def test_column_norm_length_mismatch(self, attack_setup):
        network, dataset, norms = attack_setup
        attack = SinglePixelAttack(SinglePixelStrategy.POWER_ADD, column_norms=norms[:-1])
        with pytest.raises(ValueError):
            attack.attack(dataset.test_inputs[:2], dataset.test_targets[:2], 1.0)

    def test_queries_recorded(self, attack_setup):
        _, dataset, norms = attack_setup
        attack = SinglePixelAttack(
            SinglePixelStrategy.POWER_ADD, column_norms=norms, queries_used=784
        )
        result = attack.attack(dataset.test_inputs[:2], dataset.test_targets[:2], 1.0)
        assert result.queries_used == 784


class TestFigure4Ordering:
    def test_power_guided_beats_random_and_worst_is_lowest(self, attack_setup):
        """The qualitative ordering of Figure 4 at a strong attack strength."""
        network, dataset, norms = attack_setup
        inputs, targets = dataset.test_inputs, dataset.test_targets
        strength = 8.0
        accuracies = {}
        for strategy in SinglePixelStrategy:
            attack = SinglePixelAttack(
                strategy, column_norms=norms, network=network, random_state=0
            )
            accuracies[strategy.paper_label] = accuracy_under_attack(
                network, attack, inputs, targets, strength
            )
        assert accuracies["Worst"] < accuracies["RD"]
        assert accuracies["RD"] < accuracies["RP"]
        assert accuracies["+"] < accuracies["RP"]

    def test_accuracy_decreases_with_strength(self, attack_setup):
        network, dataset, norms = attack_setup
        attack = SinglePixelAttack(
            SinglePixelStrategy.POWER_ADD, column_norms=norms, random_state=0
        )
        accs = [
            accuracy_under_attack(network, attack, dataset.test_inputs, dataset.test_targets, s)
            for s in (0.0, 5.0, 10.0)
        ]
        assert accs[0] >= accs[1] >= accs[2]
        assert accs[0] - accs[2] > 0.1


class TestMultiPixel:
    def test_top_n_pixels_selected(self, attack_setup):
        _, dataset, norms = attack_setup
        attack = MultiPixelAttack(norms, n_pixels=3, random_state=0)
        expected = np.argsort(norms)[::-1][:3]
        np.testing.assert_array_equal(attack.target_pixels(), expected)

    def test_n_pixels_modified(self, attack_setup):
        _, dataset, norms = attack_setup
        attack = MultiPixelAttack(norms, n_pixels=4, random_state=0)
        result = attack.attack(dataset.test_inputs[:6], dataset.test_targets[:6], 2.0)
        changed = np.count_nonzero(result.perturbations, axis=1)
        np.testing.assert_array_equal(changed, 4)

    def test_direction_modes(self, attack_setup):
        network, dataset, norms = attack_setup
        pixels = MultiPixelAttack(norms, n_pixels=2).target_pixels()
        add = MultiPixelAttack(norms, n_pixels=2, direction="add")
        subtract = MultiPixelAttack(norms, n_pixels=2, direction="subtract")
        add_result = add.attack(dataset.test_inputs[:3], dataset.test_targets[:3], 1.0)
        sub_result = subtract.attack(dataset.test_inputs[:3], dataset.test_targets[:3], 1.0)
        np.testing.assert_allclose(add_result.perturbations[:, pixels], 1.0, atol=1e-12)
        np.testing.assert_allclose(sub_result.perturbations[:, pixels], -1.0, atol=1e-12)

    def test_oracle_direction_requires_network(self, attack_setup):
        _, _, norms = attack_setup
        with pytest.raises(ValueError):
            MultiPixelAttack(norms, n_pixels=2, direction="oracle")

    def test_invalid_direction(self, attack_setup):
        _, _, norms = attack_setup
        with pytest.raises(ValueError):
            MultiPixelAttack(norms, n_pixels=2, direction="sideways")

    def test_too_many_pixels(self, attack_setup):
        _, _, norms = attack_setup
        with pytest.raises(ValueError):
            MultiPixelAttack(norms, n_pixels=len(norms) + 1)

    def test_random_direction_efficacy_decreases_with_n(self, attack_setup):
        """The paper's observation: guessing N directions succeeds with prob (1/2)^N,
        so random-direction multi-pixel attacks get *weaker* per-pixel as N grows
        relative to the oracle-direction upper bound."""
        network, dataset, norms = attack_setup
        inputs, targets = dataset.test_inputs, dataset.test_targets
        strength = 6.0
        gaps = []
        for n_pixels in (1, 4):
            random_dir = MultiPixelAttack(norms, n_pixels=n_pixels, direction="random", random_state=0)
            oracle_dir = MultiPixelAttack(
                norms, n_pixels=n_pixels, direction="oracle", network=network
            )
            acc_random = accuracy_under_attack(network, random_dir, inputs, targets, strength)
            acc_oracle = accuracy_under_attack(network, oracle_dir, inputs, targets, strength)
            gaps.append(acc_random - acc_oracle)
        assert gaps[1] > gaps[0] - 0.02  # the guess penalty does not shrink with N
