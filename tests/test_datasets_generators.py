"""Tests for the synthetic MNIST-like and CIFAR-like dataset generators.

These tests check the statistical properties the paper's experiments rely on
(documented in the ``repro.datasets`` docstrings): value range, class balance, determinism, centre
concentration / smoothness for the digits, and spatial roughness plus low
linear separability for the objects.
"""

import numpy as np
import pytest

from repro.datasets import available_datasets, load_dataset
from repro.datasets.synthetic_digits import (
    DEFORMATION,
    NOISE_LEVEL,
    SyntheticDigitsGenerator,
    gaussian_blur,
    load_mnist_like,
    shift_images,
)
from repro.datasets.synthetic_objects import SyntheticObjectsGenerator, load_cifar_like


class TestSyntheticDigits:
    def test_shapes_and_range(self, mnist_small):
        assert mnist_small.n_features == 28 * 28
        assert mnist_small.n_classes == 10
        assert mnist_small.train_inputs.min() >= 0.0
        assert mnist_small.train_inputs.max() <= 1.0
        assert mnist_small.image_shape == (28, 28)

    def test_class_balance(self, mnist_small):
        counts = np.bincount(mnist_small.train_labels, minlength=10)
        assert counts.min() >= counts.max() - 1

    def test_deterministic_given_seed(self):
        a = load_mnist_like(n_train=50, n_test=20, random_state=7)
        b = load_mnist_like(n_train=50, n_test=20, random_state=7)
        np.testing.assert_allclose(a.train_inputs, b.train_inputs)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seeds_differ(self):
        a = load_mnist_like(n_train=50, n_test=20, random_state=1)
        b = load_mnist_like(n_train=50, n_test=20, random_state=2)
        assert not np.allclose(a.train_inputs, b.train_inputs)

    def test_energy_concentrated_in_centre(self, mnist_small):
        """Digit mass must be concentrated away from the border (MNIST-like)."""
        images = mnist_small.train_images()
        border = np.concatenate(
            [images[:, :4, :].ravel(), images[:, -4:, :].ravel(),
             images[:, :, :4].ravel(), images[:, :, -4:].ravel()]
        )
        centre = images[:, 10:18, 10:18].ravel()
        assert centre.mean() > 3 * border.mean()

    @pytest.mark.parametrize("name", ["image_size", "n_classes"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticDigitsGenerator(**{name: value})

    @pytest.mark.parametrize("name", ["image_size", "n_classes"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_parameters_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            SyntheticDigitsGenerator(**{name: value})

    def test_sample_class_bounds(self, rng):
        generator = SyntheticDigitsGenerator(random_state=0)
        with pytest.raises(ValueError):
            generator.sample_class(10, 1, rng)

    def test_sample_class_count_validated(self, rng):
        generator = SyntheticDigitsGenerator(image_size=9, random_state=0)
        assert generator.sample_class(0, 0, rng).shape == (0, 9, 9)
        with pytest.raises(ValueError, match="n_samples"):
            generator.sample_class(0, -1, rng)
        with pytest.raises(TypeError, match="n_samples"):
            generator.sample_class(0, 2.0, rng)

    def test_prototypes_are_distinct(self):
        generator = SyntheticDigitsGenerator(random_state=0)
        flattened = generator.prototypes.reshape(10, -1)
        correlations = np.corrcoef(flattened)
        off_diagonal = correlations[~np.eye(10, dtype=bool)]
        assert off_diagonal.max() < 0.95

    def test_custom_image_size(self):
        ds = load_mnist_like(n_train=30, n_test=10, image_size=14, random_state=0)
        assert ds.n_features == 14 * 14
        assert ds.image_shape == (14, 14)


class TestSyntheticObjects:
    def test_shapes_and_range(self, cifar_small):
        assert cifar_small.n_features == 32 * 32 * 3
        assert cifar_small.image_shape == (32, 32, 3)
        assert cifar_small.train_inputs.min() >= 0.0
        assert cifar_small.train_inputs.max() <= 1.0

    def test_class_balance(self, cifar_small):
        counts = np.bincount(cifar_small.train_labels, minlength=10)
        assert counts.min() >= counts.max() - 1

    def test_deterministic_given_seed(self):
        a = load_cifar_like(n_train=30, n_test=10, random_state=3)
        b = load_cifar_like(n_train=30, n_test=10, random_state=3)
        np.testing.assert_allclose(a.train_inputs, b.train_inputs)

    def test_mean_color_carries_no_class_information(self, cifar_small):
        """Per-sample tint is class-independent, keeping the task hard."""
        images = cifar_small.train_images()
        mean_colors = images.mean(axis=(1, 2))  # (B, 3)
        labels = cifar_small.train_labels
        class_means = np.stack([mean_colors[labels == c].mean(axis=0) for c in range(10)])
        assert class_means.std(axis=0).max() < 0.03

    @pytest.mark.parametrize("name", ["image_size", "n_classes"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticObjectsGenerator(**{name: value})

    @pytest.mark.parametrize("name", ["image_size", "n_classes"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_parameters_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            SyntheticObjectsGenerator(**{name: value})

    def test_sample_class_count_validated(self, rng):
        generator = SyntheticObjectsGenerator(image_size=8, random_state=0)
        assert generator.sample_class(0, 0, rng).shape == (0, 8, 8, 3)
        with pytest.raises(ValueError, match="n_samples"):
            generator.sample_class(0, -1, rng)

    def test_class_texture_bounds(self):
        generator = SyntheticObjectsGenerator(random_state=0)
        with pytest.raises(ValueError):
            generator.class_texture(11, np.zeros(3))


def _scipy_sample_class(generator, cls, n_samples, rng):
    """The digit sampler as it was written against ``scipy.ndimage.shift``."""
    from scipy.ndimage import shift as ndi_shift

    images = np.empty((n_samples, generator.image_size, generator.image_size))
    for i in range(n_samples):
        offsets = rng.normal(0.0, DEFORMATION, size=2)
        image = ndi_shift(
            generator.prototypes[cls], offsets, order=1, mode="constant", cval=0.0
        )
        image = rng.uniform(0.8, 1.2) * image
        image = image + rng.normal(0.0, NOISE_LEVEL, size=image.shape)
        images[i] = np.clip(image, 0.0, 1.0)
    return images


class TestScipyBitIdentity:
    """The numpy blur and shift reproduce ``scipy.ndimage`` bit for bit.

    scipy is imported inside each test: it is a test-time reference only and
    must stay off the library's import path.
    """

    SHAPES = [(n, n) for n in range(1, 9)] + [(1, 8), (8, 1), (3, 5), (5, 17), (28, 28)]

    @staticmethod
    def _offsets(rng, shape):
        height, width = shape
        integers = rng.integers(-3, 4, size=(8, 2)).astype(float)
        return np.concatenate(
            [
                np.zeros((1, 2)),
                integers,
                rng.integers(-9, 10, size=(8, 2)) * 0.5,
                integers + 1e-12,
                integers - 1e-12,
                rng.normal(0.0, 1.5, size=(16, 2)),
                # Entirely outside the image on one axis: all zeros.
                [[height + 0.25, 0.0], [0.0, -width - 0.5], [-height, width]],
            ]
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shift_matches_ndimage(self, shape):
        from scipy.ndimage import shift as ndi_shift

        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        image = rng.random(shape)
        offsets = self._offsets(rng, shape)
        shifted = shift_images(image, offsets)
        assert shifted.shape == (len(offsets), *shape)
        for offset, got in zip(offsets, shifted):
            expected = ndi_shift(image, offset, order=1, mode="constant", cval=0.0)
            assert got.tobytes() == expected.tobytes(), offset
        assert not shifted[-3:].any()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", [0.8, 2.0])
    def test_blur_matches_ndimage(self, shape, sigma):
        from scipy.ndimage import gaussian_filter

        image = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
        expected = gaussian_filter(image, sigma=sigma)
        assert gaussian_blur(image, sigma).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("image_size, cls", [(28, 3), (28, 8), (9, 0)])
    def test_sample_class_matches_scipy_sampler(self, image_size, cls):
        """Each class prototype, and a small image whose shifts leave the frame."""
        generator = SyntheticDigitsGenerator(image_size=image_size, random_state=0)
        got = generator.sample_class(cls, 40, np.random.default_rng(11))
        expected = _scipy_sample_class(generator, cls, 40, np.random.default_rng(11))
        assert got.tobytes() == expected.tobytes()


class TestSeparabilityContrast:
    def test_single_layer_accuracy_gap(self, mnist_small, cifar_small):
        """MNIST-like must be much easier for a single layer than CIFAR-like.

        This is the key statistical property behind the paper's dataset
        contrast (high accuracy on MNIST, ~30-40% on CIFAR-10).
        """
        from repro.nn.trainer import train_single_layer

        _, mnist_trainer = train_single_layer(
            mnist_small, output="softmax", epochs=15, random_state=0
        )
        _, cifar_trainer = train_single_layer(
            cifar_small, output="softmax", epochs=15, random_state=0
        )
        _, mnist_acc = mnist_trainer.evaluate(mnist_small.test_inputs, mnist_small.test_targets)
        _, cifar_acc = cifar_trainer.evaluate(cifar_small.test_inputs, cifar_small.test_targets)
        assert mnist_acc > 0.8
        assert cifar_acc < 0.6
        assert mnist_acc - cifar_acc > 0.25


class TestRegistry:
    def test_available_datasets(self):
        names = available_datasets()
        assert "mnist-like" in names and "cifar-like" in names

    def test_aliases(self):
        ds = load_dataset("mnist", n_train=20, n_test=10, random_state=0)
        assert ds.name == "mnist-like"
        ds = load_dataset("cifar10", n_train=20, n_test=10, random_state=0)
        assert ds.name == "cifar-like"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")
