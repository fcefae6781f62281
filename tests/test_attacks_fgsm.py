"""Tests for repro.attacks.base and repro.attacks.fgsm."""

import numpy as np
import pytest

from repro.attacks.base import AttackResult
from repro.attacks.fgsm import FastGradientSignMethod, fgsm_perturbation
from repro.nn.gradients import input_gradients
from repro.nn.metrics import accuracy


class TestAttackResult:
    def test_perturbations_computed(self, rng):
        original = rng.uniform(size=(3, 4))
        adversarial = original + 0.1
        result = AttackResult(adversarial_inputs=adversarial, original_inputs=original, strength=0.1)
        np.testing.assert_allclose(result.perturbations, 0.1)
        assert result.n_samples == 3

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            AttackResult(
                adversarial_inputs=rng.uniform(size=(3, 4)),
                original_inputs=rng.uniform(size=(2, 4)),
                strength=0.1,
            )

    def test_perturbation_norms(self, rng):
        original = np.zeros((2, 4))
        adversarial = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]])
        result = AttackResult(adversarial_inputs=adversarial, original_inputs=original, strength=1.0)
        np.testing.assert_allclose(result.perturbation_norms(2), [1.0, np.sqrt(2)])


class TestFGSM:
    def test_perturbation_is_epsilon_times_sign(self, trained_softmax, mnist_small):
        inputs = mnist_small.test_inputs[:5]
        targets = mnist_small.test_targets[:5]
        epsilon = 0.3
        perturbation = fgsm_perturbation(trained_softmax, inputs, targets, epsilon)
        gradients = input_gradients(trained_softmax, inputs, targets)
        np.testing.assert_allclose(perturbation, epsilon * np.sign(gradients))
        assert np.all(np.abs(perturbation) <= epsilon + 1e-12)

    def test_zero_strength_is_identity(self, trained_softmax, mnist_small):
        attack = FastGradientSignMethod(trained_softmax)
        result = attack.attack(mnist_small.test_inputs[:5], mnist_small.test_targets[:5], 0.0)
        np.testing.assert_allclose(result.adversarial_inputs, mnist_small.test_inputs[:5])

    def test_negative_strength_rejected(self, trained_softmax, mnist_small):
        with pytest.raises(ValueError):
            fgsm_perturbation(
                trained_softmax, mnist_small.test_inputs[:2], mnist_small.test_targets[:2], -1.0
            )

    def test_attack_reduces_accuracy(self, trained_softmax, mnist_small):
        """The fundamental property: FGSM must hurt the victim far more than noise."""
        inputs = mnist_small.test_inputs
        targets = mnist_small.test_targets
        clean_acc = accuracy(trained_softmax.predict(inputs), targets)
        attack = FastGradientSignMethod(trained_softmax)
        result = attack.attack(inputs, targets, 0.15)
        adv_acc = accuracy(trained_softmax.predict(result.adversarial_inputs), targets)
        assert adv_acc < clean_acc - 0.3

    def test_attack_stronger_than_random_noise(self, trained_softmax, mnist_small, rng):
        inputs = mnist_small.test_inputs
        targets = mnist_small.test_targets
        epsilon = 0.15
        attack = FastGradientSignMethod(trained_softmax)
        adv = attack.attack(inputs, targets, epsilon).adversarial_inputs
        noisy = inputs + epsilon * rng.choice([-1.0, 1.0], size=inputs.shape)
        adv_acc = accuracy(trained_softmax.predict(adv), targets)
        noise_acc = accuracy(trained_softmax.predict(noisy), targets)
        assert adv_acc < noise_acc - 0.1

    def test_clip_range_enforced(self, trained_softmax, mnist_small):
        attack = FastGradientSignMethod(trained_softmax, clip_range=(0.0, 1.0))
        result = attack.attack(mnist_small.test_inputs[:10], mnist_small.test_targets[:10], 0.5)
        assert result.adversarial_inputs.min() >= 0.0
        assert result.adversarial_inputs.max() <= 1.0

    def test_invalid_clip_range(self, trained_softmax):
        with pytest.raises(ValueError):
            FastGradientSignMethod(trained_softmax, clip_range=(1.0, 0.0))

    def test_explicit_loss(self, trained_linear, mnist_small):
        from repro.nn.losses import MeanSquaredError

        attack = FastGradientSignMethod(trained_linear, loss=MeanSquaredError())
        result = attack.attack(mnist_small.test_inputs[:5], mnist_small.test_targets[:5], 0.1)
        assert result.metadata["attack"] == "fgsm"
