"""CIFAR-10-like synthetic dataset.

The real CIFAR-10 dataset is unavailable offline, so this module generates a
textured colour-image replacement that preserves the statistics the paper's
CIFAR-10 experiments depend on:

1. A single-layer network reaches only modest accuracy (the classes overlap
   heavily and are far from linearly separable) — the paper reports ~30-40%
   for CIFAR-10 with a single layer.
2. The informative pixels are *not* spatially concentrated: class information
   lives in high-frequency texture, so the weight-column 1-norm map varies
   rapidly across the image plane (Section III contrasts this with MNIST when
   discussing search difficulty).

Each class is a mixture of oriented sinusoidal gratings with class-specific
frequencies plus a class-tinted colour cast; samples add random phase shifts,
random secondary textures and strong pixel noise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.transforms import flatten_images, one_hot
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

#: Sinusoidal gratings mixed into each class texture.
N_GRATINGS = 3
#: Amplitude of the class texture relative to the noise floor.
TEXTURE_STRENGTH = 0.35
#: Standard deviation of the additive pixel noise.
NOISE_LEVEL = 0.25
#: Half-width (radians) of the uniform per-sample phase jitter applied to each
#: class grating.  Larger jitter washes out the class template a linear model
#: can exploit; this value gives a single-layer network roughly CIFAR-10-like
#: accuracy (30-40%).
PHASE_JITTER = 2.7


class SyntheticObjectsGenerator:
    """Generates CIFAR-like ``image_size x image_size x 3`` textured images.

    Parameters
    ----------
    image_size:
        Side length (default 32, as in CIFAR-10).
    n_classes:
        Number of classes (default 10).
    random_state:
        Seed controlling the class texture definitions.
    """

    def __init__(
        self,
        *,
        image_size: int = 32,
        n_classes: int = 10,
        random_state: RandomState = 0,
    ):
        self.image_size = check_positive_int(image_size, "image_size")
        self.n_classes = check_positive_int(n_classes, "n_classes")
        rng = as_rng(random_state)
        self._grating_params = self._build_grating_params(rng)

    # ----------------------------------------------------------- prototypes

    def _build_grating_params(self, rng: np.random.Generator) -> np.ndarray:
        """Per class and grating: (frequency_x, frequency_y, phase, channel weight x3)."""
        params = np.empty((self.n_classes, N_GRATINGS, 6), dtype=float)
        for cls in range(self.n_classes):
            for g in range(N_GRATINGS):
                # moderately high spatial frequencies -> rapidly varying maps
                params[cls, g, 0] = rng.uniform(2.0, 8.0)
                params[cls, g, 1] = rng.uniform(2.0, 8.0)
                params[cls, g, 2] = rng.uniform(0.0, 2 * np.pi)
                params[cls, g, 3:6] = rng.dirichlet(np.ones(3))
        return params

    def class_texture(self, cls: int, phase_jitter: np.ndarray) -> np.ndarray:
        """The deterministic texture for class ``cls`` with per-grating phase jitter."""
        if not 0 <= cls < self.n_classes:
            raise ValueError(f"class index {cls} out of range [0, {self.n_classes})")
        size = self.image_size
        yy, xx = np.mgrid[0:size, 0:size] / size
        texture = np.zeros((size, size, 3), dtype=float)
        for g in range(N_GRATINGS):
            fx, fy, phase, *weights = self._grating_params[cls, g]
            wave = np.sin(2 * np.pi * (fx * xx + fy * yy) + phase + phase_jitter[g])
            for channel, weight in enumerate(weights):
                texture[:, :, channel] += weight * wave
        return texture

    # ------------------------------------------------------------- sampling

    def sample_class(
        self, cls: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` images of class ``cls`` as ``(B, H, W, 3)``."""
        if not 0 <= cls < self.n_classes:
            raise ValueError(f"class index {cls} out of range [0, {self.n_classes})")
        n_samples = check_non_negative_int(n_samples, "n_samples")
        size = self.image_size
        images = np.empty((n_samples, size, size, 3), dtype=float)
        for i in range(n_samples):
            phase_jitter = rng.uniform(-PHASE_JITTER, PHASE_JITTER, size=N_GRATINGS)
            texture = self.class_texture(cls, phase_jitter)
            # The background tint is drawn per *sample*, not per class, so the
            # mean colour carries no class information and the task stays hard
            # for a single linear layer (matching CIFAR-10's low single-layer
            # accuracy).  A distractor texture from a random other class
            # further dilutes separability.
            tint = rng.uniform(0.35, 0.65, size=3)
            distractor_cls = int(rng.integers(self.n_classes))
            distractor = self.class_texture(
                distractor_cls, rng.uniform(0, 2 * np.pi, size=N_GRATINGS)
            )
            image = (
                tint[np.newaxis, np.newaxis, :]
                + TEXTURE_STRENGTH * texture
                + 0.4 * TEXTURE_STRENGTH * distractor
                + rng.normal(0.0, NOISE_LEVEL, size=(size, size, 3))
            )
            images[i] = np.clip(image, 0.0, 1.0)
        return images

    def generate(
        self,
        n_train: int,
        n_test: int,
        *,
        random_state: RandomState = None,
    ) -> Dataset:
        """Generate a full train/test :class:`Dataset` with balanced classes."""
        check_positive_int(n_train, "n_train")
        check_positive_int(n_test, "n_test")
        rng = as_rng(random_state)
        train_images, train_labels = self._generate_split(n_train, rng)
        test_images, test_labels = self._generate_split(n_test, rng)
        return Dataset(
            name="cifar-like",
            train_inputs=flatten_images(train_images),
            train_targets=one_hot(train_labels, self.n_classes),
            test_inputs=flatten_images(test_images),
            test_targets=one_hot(test_labels, self.n_classes),
            image_shape=(self.image_size, self.image_size, 3),
            feature_range=(0.0, 1.0),
            metadata={
                "generator": "SyntheticObjectsGenerator",
                "image_size": self.image_size,
                "n_classes": self.n_classes,
            },
        )

    def _generate_split(
        self, n_samples: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        per_class = np.full(self.n_classes, n_samples // self.n_classes, dtype=int)
        per_class[: n_samples % self.n_classes] += 1
        images, labels = [], []
        for cls, count in enumerate(per_class):
            if count == 0:
                continue
            images.append(self.sample_class(cls, count, rng))
            labels.append(np.full(count, cls, dtype=int))
        images = np.concatenate(images, axis=0)
        labels = np.concatenate(labels, axis=0)
        order = rng.permutation(len(images))
        return images[order], labels[order]


def load_cifar_like(
    n_train: int = 5000,
    n_test: int = 1000,
    *,
    image_size: int = 32,
    n_classes: int = 10,
    random_state: RandomState = 0,
) -> Dataset:
    """Convenience loader for the CIFAR-like dataset (scaled-down defaults)."""
    rng = as_rng(random_state)
    generator = SyntheticObjectsGenerator(
        image_size=image_size, n_classes=n_classes, random_state=rng
    )
    return generator.generate(n_train, n_test, random_state=rng)
