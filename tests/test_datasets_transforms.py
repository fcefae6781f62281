"""Tests for repro.datasets.transforms."""

import numpy as np
import pytest

from repro.datasets.transforms import (
    clip_to_range,
    flatten_images,
    from_one_hot,
    one_hot,
    unflatten_images,
)


class TestOneHot:
    def test_basic_encoding(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_infers_class_count(self):
        assert one_hot(np.array([0, 4])).shape == (2, 5)

    def test_roundtrip(self):
        labels = np.array([3, 1, 0, 2])
        np.testing.assert_array_equal(from_one_hot(one_hot(labels, 5)), labels)

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.array([-1, 0]))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), n_classes=3)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int))

    def test_from_one_hot_requires_matrix(self):
        with pytest.raises(ValueError):
            from_one_hot(np.array([1, 0]))


class TestClipToRange:
    def test_clip_to_range(self):
        clipped = clip_to_range(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0)
        np.testing.assert_allclose(clipped, [0.0, 0.5, 1.0])

    def test_clip_invalid_bounds(self):
        with pytest.raises(ValueError):
            clip_to_range(np.zeros(3), 1.0, 0.0)


class TestReshaping:
    def test_flatten_grayscale(self, rng):
        images = rng.uniform(size=(5, 8, 8))
        assert flatten_images(images).shape == (5, 64)

    def test_flatten_color(self, rng):
        images = rng.uniform(size=(5, 8, 8, 3))
        assert flatten_images(images).shape == (5, 192)

    def test_flatten_already_flat(self, rng):
        flat = rng.uniform(size=(5, 10))
        np.testing.assert_array_equal(flatten_images(flat), flat)

    def test_unflatten_roundtrip(self, rng):
        images = rng.uniform(size=(4, 6, 6, 3))
        flat = flatten_images(images)
        np.testing.assert_allclose(unflatten_images(flat, (6, 6, 3)), images)

    def test_unflatten_wrong_size(self, rng):
        with pytest.raises(ValueError):
            unflatten_images(rng.uniform(size=(2, 10)), (3, 4))

    def test_unflatten_requires_2d(self, rng):
        with pytest.raises(ValueError):
            unflatten_images(rng.uniform(size=10), (2, 5))
