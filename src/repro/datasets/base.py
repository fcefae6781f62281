"""Dataset container with train/test splits, batching and image metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.datasets.transforms import from_one_hot, unflatten_images
from repro.utils.rng import RandomState, as_rng


@dataclass
class Dataset:
    """A supervised dataset with flattened inputs and one-hot targets.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"mnist-like"``.
    train_inputs / test_inputs:
        Arrays of shape ``(B, N)`` with features in ``[feature_range]``.
    train_targets / test_targets:
        One-hot arrays of shape ``(B, n_classes)``.
    image_shape:
        Per-sample image shape (e.g. ``(28, 28)`` or ``(32, 32, 3)``) used by
        visualisation and per-channel analyses; ``None`` for non-image data.
    feature_range:
        The valid input range, used by attacks as a box constraint.
    """

    name: str
    train_inputs: np.ndarray
    train_targets: np.ndarray
    test_inputs: np.ndarray
    test_targets: np.ndarray
    image_shape: Optional[Tuple[int, ...]] = None
    feature_range: Tuple[float, float] = (0.0, 1.0)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.train_inputs = np.atleast_2d(np.asarray(self.train_inputs, dtype=float))
        self.test_inputs = np.atleast_2d(np.asarray(self.test_inputs, dtype=float))
        self.train_targets = np.atleast_2d(np.asarray(self.train_targets, dtype=float))
        self.test_targets = np.atleast_2d(np.asarray(self.test_targets, dtype=float))
        if len(self.train_inputs) != len(self.train_targets):
            raise ValueError("train inputs and targets disagree on sample count")
        if len(self.test_inputs) != len(self.test_targets):
            raise ValueError("test inputs and targets disagree on sample count")
        if self.train_inputs.shape[1] != self.test_inputs.shape[1]:
            raise ValueError("train and test inputs disagree on feature count")
        if self.train_targets.shape[1] != self.test_targets.shape[1]:
            raise ValueError("train and test targets disagree on class count")
        if self.image_shape is not None:
            expected = int(np.prod(self.image_shape))
            if expected != self.n_features:
                raise ValueError(
                    f"image_shape {self.image_shape} does not match "
                    f"{self.n_features} features"
                )

    # ------------------------------------------------------------ properties

    @property
    def n_features(self) -> int:
        """Input dimensionality N."""
        return self.train_inputs.shape[1]

    @property
    def n_classes(self) -> int:
        """Number of classes M."""
        return self.train_targets.shape[1]

    @property
    def n_train(self) -> int:
        """Number of training samples."""
        return len(self.train_inputs)

    @property
    def n_test(self) -> int:
        """Number of test samples."""
        return len(self.test_inputs)

    @property
    def train_labels(self) -> np.ndarray:
        """Integer training labels."""
        return from_one_hot(self.train_targets)

    @property
    def test_labels(self) -> np.ndarray:
        """Integer test labels."""
        return from_one_hot(self.test_targets)

    # -------------------------------------------------------------- methods

    def train_images(self) -> np.ndarray:
        """Training inputs reshaped to images (requires ``image_shape``)."""
        if self.image_shape is None:
            raise ValueError("dataset has no image_shape")
        return unflatten_images(self.train_inputs, self.image_shape)

    def test_images(self) -> np.ndarray:
        """Test inputs reshaped to images (requires ``image_shape``)."""
        if self.image_shape is None:
            raise ValueError("dataset has no image_shape")
        return unflatten_images(self.test_inputs, self.image_shape)

    def batches(
        self,
        batch_size: int,
        *,
        split: str = "train",
        shuffle: bool = False,
        random_state: RandomState = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield (inputs, targets) mini-batches from one split."""
        if split == "train":
            inputs, targets = self.train_inputs, self.train_targets
        elif split == "test":
            inputs, targets = self.test_inputs, self.test_targets
        else:
            raise ValueError(f"split must be 'train' or 'test', got {split!r}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {batch_size}")
        order = np.arange(len(inputs))
        if shuffle:
            order = as_rng(random_state).permutation(order)
        for start in range(0, len(inputs), batch_size):
            idx = order[start : start + batch_size]
            yield inputs[idx], targets[idx]

    def subset(
        self,
        n_train: Optional[int] = None,
        n_test: Optional[int] = None,
        *,
        random_state: RandomState = None,
    ) -> "Dataset":
        """Return a random subset (used for scaled-down benchmark runs)."""
        rng = as_rng(random_state)
        train_idx = np.arange(self.n_train)
        test_idx = np.arange(self.n_test)
        if n_train is not None:
            if n_train > self.n_train:
                raise ValueError(
                    f"requested {n_train} training samples but only {self.n_train} exist"
                )
            train_idx = rng.choice(self.n_train, size=n_train, replace=False)
        if n_test is not None:
            if n_test > self.n_test:
                raise ValueError(
                    f"requested {n_test} test samples but only {self.n_test} exist"
                )
            test_idx = rng.choice(self.n_test, size=n_test, replace=False)
        return Dataset(
            name=self.name,
            train_inputs=self.train_inputs[train_idx],
            train_targets=self.train_targets[train_idx],
            test_inputs=self.test_inputs[test_idx],
            test_targets=self.test_targets[test_idx],
            image_shape=self.image_shape,
            feature_range=self.feature_range,
            metadata=dict(self.metadata),
        )

    def query_pool(self, n_queries: int, *, random_state: RandomState = None) -> np.ndarray:
        """Sample ``n_queries`` training inputs to use as oracle queries.

        The paper's surrogate attack queries the oracle with inputs drawn from
        the training set.  If more queries than training samples are requested
        the full training set is returned.
        """
        if n_queries >= self.n_train:
            return self.train_inputs.copy()
        rng = as_rng(random_state)
        idx = rng.choice(self.n_train, size=n_queries, replace=False)
        return self.train_inputs[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, n_train={self.n_train}, n_test={self.n_test}, "
            f"n_features={self.n_features}, n_classes={self.n_classes})"
        )
