"""Tests for repro.datasets.base."""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.transforms import one_hot


def make_dataset(n_train=20, n_test=10, n_features=12, n_classes=3, image_shape=(3, 4)):
    rng = np.random.default_rng(0)
    return Dataset(
        name="toy",
        train_inputs=rng.uniform(size=(n_train, n_features)),
        train_targets=one_hot(rng.integers(0, n_classes, size=n_train), n_classes),
        test_inputs=rng.uniform(size=(n_test, n_features)),
        test_targets=one_hot(rng.integers(0, n_classes, size=n_test), n_classes),
        image_shape=image_shape,
    )


class TestDatasetValidation:
    def test_properties(self):
        ds = make_dataset()
        assert ds.n_train == 20
        assert ds.n_test == 10
        assert ds.n_features == 12
        assert ds.n_classes == 3

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                train_inputs=np.zeros((5, 4)),
                train_targets=np.zeros((4, 2)),
                test_inputs=np.zeros((2, 4)),
                test_targets=np.zeros((2, 2)),
            )

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                train_inputs=np.zeros((5, 4)),
                train_targets=np.zeros((5, 2)),
                test_inputs=np.zeros((2, 3)),
                test_targets=np.zeros((2, 2)),
            )

    def test_image_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_dataset(image_shape=(5, 5))

    def test_labels_derived_from_one_hot(self):
        ds = make_dataset()
        assert ds.train_labels.shape == (20,)
        assert set(np.unique(ds.train_labels)).issubset({0, 1, 2})


class TestDatasetOperations:
    def test_images_reshape(self):
        ds = make_dataset()
        assert ds.train_images().shape == (20, 3, 4)
        assert ds.test_images().shape == (10, 3, 4)

    def test_images_without_shape_raise(self):
        ds = make_dataset(image_shape=None)
        with pytest.raises(ValueError):
            ds.train_images()

    def test_batches_cover_split(self):
        ds = make_dataset()
        seen = 0
        for inputs, targets in ds.batches(7, split="train"):
            assert len(inputs) == len(targets)
            seen += len(inputs)
        assert seen == ds.n_train

    def test_batches_invalid_split(self):
        with pytest.raises(ValueError):
            list(make_dataset().batches(4, split="validation"))

    def test_batches_invalid_size(self):
        with pytest.raises(ValueError):
            list(make_dataset().batches(0))

    def test_batches_shuffle_is_deterministic_with_seed(self):
        ds = make_dataset()
        a = [x[0].copy() for x in ds.batches(5, shuffle=True, random_state=1)]
        b = [x[0].copy() for x in ds.batches(5, shuffle=True, random_state=1)]
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a, batch_b)

    def test_subset_sizes(self):
        subset = make_dataset().subset(n_train=5, n_test=3, random_state=0)
        assert subset.n_train == 5 and subset.n_test == 3
        assert subset.image_shape == (3, 4)

    def test_subset_too_large(self):
        with pytest.raises(ValueError):
            make_dataset().subset(n_train=100)
        with pytest.raises(ValueError):
            make_dataset().subset(n_test=100)

    def test_query_pool_sizes(self):
        ds = make_dataset()
        assert ds.query_pool(5, random_state=0).shape == (5, 12)
        # More queries than training samples returns the whole training set.
        assert ds.query_pool(10_000, random_state=0).shape == (20, 12)
