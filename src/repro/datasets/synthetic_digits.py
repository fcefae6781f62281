"""MNIST-like synthetic dataset.

The real MNIST dataset cannot be downloaded in the offline evaluation
environment, so this module generates a drop-in replacement that preserves the
two properties the paper's experiments rely on:

1. A single-layer network reaches high test accuracy (the digits are
   near-linearly separable).
2. The informative pixels are concentrated in the centre of the image and
   vary smoothly across the image plane, which makes the weight-column 1-norm
   map spatially smooth (Section III of the paper uses this smoothness when
   discussing query-efficient search for the most sensitive pixel).

Each class is defined by a fixed "stroke prototype": a small set of control
points near the image centre connected by Gaussian-brushed line segments and
smoothed with a Gaussian filter.  Individual samples are produced by randomly
translating, scaling and re-noising the prototype.

The blur and the translation are plain numpy that reproduces
``scipy.ndimage.gaussian_filter(sigma=0.8)`` and
``scipy.ndimage.shift(order=1, mode="constant")`` bit for bit, so the datasets
(and every digest pinned on them) are unchanged while scipy stays off the
import path.  Identical bits need scipy's exact operation order:

* **Blur** -- a separable correlation, axis 0 then axis 1, with the kernel
  ``exp(-0.5 / sigma**2 * x**2) / sum`` over ``x`` in ``[-r, r]``,
  ``r = int(4 * sigma + 0.5)``.  Borders reflect (``np.pad(mode="symmetric")``,
  which also covers images smaller than ``r``).  Each output starts with the
  centre tap and then adds ``(left + right) * w`` from the outermost tap
  inward, as scipy's symmetric ``correlate1d`` does.
* **Shift** -- per axis, ``cc = k - offset``, ``start = floor(cc)``,
  ``w0 = 1 - (cc - start)`` and ``w1 = 1 - w0``.  Writing ``w1 = cc - start``
  instead differs by one ulp on about 2% of images.  The four corner terms
  ``(value * wy) * wx`` are summed from ``0.0`` in the order y0x0, y0x1, y1x0,
  y1x1, and the output is 0 wherever ``cc`` leaves ``[0, n - 1]`` on either
  axis.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.transforms import flatten_images, one_hot
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

#: Line segments composing each class prototype.
N_STROKES = 4
#: Gaussian brush width (pixels) used when rasterising strokes.
BRUSH_SIGMA = 1.1
#: Standard deviation (pixels) of the per-sample random translation.
DEFORMATION = 1.0
#: Standard deviation of the additive pixel noise.
NOISE_LEVEL = 0.10


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(image, sigma)`` for a float64 image.

    Reflect borders, kernel truncated at ``4 * sigma``; bit-identical to scipy
    (see the module docstring for the operation order this depends on).
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = weights / weights.sum()  # symmetric: correlation == convolution
    for axis in range(image.ndim):
        lines = np.moveaxis(image, axis, 0)
        n = lines.shape[0]
        pad = [(radius, radius)] + [(0, 0)] * (image.ndim - 1)
        padded = np.pad(lines, pad, mode="symmetric")
        out = padded[radius : radius + n] * weights[radius]
        for k in range(radius, 0, -1):
            left = padded[radius - k : radius - k + n]
            right = padded[radius + k : radius + k + n]
            out += (left + right) * weights[radius - k]
        image = np.moveaxis(out, 0, axis)
    return image


def _bilinear_axis(offsets: np.ndarray, n: int):
    """Per-image corner indices and weights of a linear shift along one axis.

    ``offsets`` is ``(B,)``; returns ``(start, w0, w1)``, each ``(B, n)``.
    Output positions whose source ``cc`` lies outside ``[0, n - 1]`` get zero
    weights (and an in-range index), so they sum to exactly 0.
    """
    cc = np.arange(n, dtype=float)[np.newaxis, :] - offsets[:, np.newaxis]
    start = np.floor(cc)
    w0 = 1.0 - (cc - start)
    w1 = 1.0 - w0
    outside = (cc < 0.0) | (cc > n - 1)
    w0[outside] = 0.0
    w1[outside] = 0.0
    start[outside] = 0.0
    return start.astype(np.intp), w0, w1


def shift_images(prototype: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Translate one 2-D image by each ``(dy, dx)`` row of ``offsets``.

    Bilinear interpolation with zeros outside the image: one ``(B, H, W)``
    call equal, image by image, to ``scipy.ndimage.shift(prototype, offset,
    order=1, mode="constant", cval=0.0)``.
    """
    height, width = prototype.shape
    y0, wy0, wy1 = _bilinear_axis(offsets[:, 0], height)
    x0, wx0, wx1 = _bilinear_axis(offsets[:, 1], width)
    # One zero row and column past the far edge: at cc == n - 1 the second
    # corner carries weight 0 (scipy reads a mirrored pixel there; 0 * 0 and
    # value * 0 add the same +0.0).
    flat = np.pad(prototype, ((0, 1), (0, 1))).ravel()
    stride = width + 1
    corner = y0[:, :, np.newaxis] * stride + x0[:, np.newaxis, :]
    wy0, wy1 = wy0[:, :, np.newaxis], wy1[:, :, np.newaxis]
    wx0, wx1 = wx0[:, np.newaxis, :], wx1[:, np.newaxis, :]
    out = 0.0 + (flat.take(corner) * wy0) * wx0
    out += (flat.take(corner + 1) * wy0) * wx1
    out += (flat.take(corner + stride) * wy1) * wx0
    out += (flat.take(corner + stride + 1) * wy1) * wx1
    return out


class SyntheticDigitsGenerator:
    """Generates MNIST-like 28x28 grayscale images for ``n_classes`` classes.

    Parameters
    ----------
    image_size:
        Side length of the square images (default 28, as in MNIST).
    n_classes:
        Number of digit classes (default 10).
    random_state:
        Seed controlling the class prototypes.  Two generators built with the
        same seed produce identical prototypes, so train and test samples are
        drawn from the same class-conditional distribution.
    """

    def __init__(
        self,
        *,
        image_size: int = 28,
        n_classes: int = 10,
        random_state: RandomState = 0,
    ):
        self.image_size = check_positive_int(image_size, "image_size")
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self._prototype_rng = as_rng(random_state)
        self.prototypes = self._build_prototypes()

    # ---------------------------------------------------------- prototypes

    def _stroke_image(self, points: np.ndarray) -> np.ndarray:
        """Rasterise a poly-line through ``points`` with a Gaussian brush."""
        size = self.image_size
        canvas = np.zeros((size, size), dtype=float)
        yy, xx = np.mgrid[0:size, 0:size]
        for start, end in zip(points[:-1], points[1:]):
            # sample points densely along the segment and stamp the brush
            n_steps = max(2, int(np.hypot(*(end - start)) * 3))
            for t in np.linspace(0.0, 1.0, n_steps):
                cy, cx = (1 - t) * start + t * end
                canvas += np.exp(
                    -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * BRUSH_SIGMA**2)
                )
        canvas = gaussian_blur(canvas, sigma=0.8)
        peak = canvas.max()
        if peak > 0:
            canvas /= peak
        return canvas

    def _build_prototypes(self) -> np.ndarray:
        """Create one smooth stroke prototype per class, centred in the image."""
        size = self.image_size
        centre = size / 2.0
        spread = size / 4.5
        prototypes = np.zeros((self.n_classes, size, size), dtype=float)
        for cls in range(self.n_classes):
            n_points = N_STROKES + 1
            angles = np.sort(self._prototype_rng.uniform(0, 2 * np.pi, size=n_points))
            radii = self._prototype_rng.uniform(0.25 * spread, spread, size=n_points)
            points = np.stack(
                [
                    centre + radii * np.sin(angles),
                    centre + radii * np.cos(angles),
                ],
                axis=1,
            )
            prototypes[cls] = self._stroke_image(points)
        return prototypes

    # ------------------------------------------------------------- sampling

    def sample_class(
        self, cls: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` images of class ``cls`` as a ``(B, H, W)`` array.

        Each image draws its offsets, brightness and noise, in that order;
        the shifts then run as one batched call.
        """
        if not 0 <= cls < self.n_classes:
            raise ValueError(f"class index {cls} out of range [0, {self.n_classes})")
        n_samples = check_non_negative_int(n_samples, "n_samples")
        shape = (self.image_size, self.image_size)
        offsets = np.empty((n_samples, 2), dtype=float)
        brightness = np.empty(n_samples, dtype=float)
        noise = np.empty((n_samples, *shape), dtype=float)
        for i in range(n_samples):
            offsets[i] = rng.normal(0.0, DEFORMATION, size=2)
            brightness[i] = rng.uniform(0.8, 1.2)
            noise[i] = rng.normal(0.0, NOISE_LEVEL, size=shape)
        images = shift_images(self.prototypes[cls], offsets)
        images = brightness[:, np.newaxis, np.newaxis] * images + noise
        return np.clip(images, 0.0, 1.0)

    def generate(
        self,
        n_train: int,
        n_test: int,
        *,
        random_state: RandomState = None,
    ) -> Dataset:
        """Generate a full train/test :class:`Dataset`.

        Samples are balanced across classes (up to rounding).
        """
        check_positive_int(n_train, "n_train")
        check_positive_int(n_test, "n_test")
        rng = as_rng(random_state)
        train_images, train_labels = self._generate_split(n_train, rng)
        test_images, test_labels = self._generate_split(n_test, rng)
        return Dataset(
            name="mnist-like",
            train_inputs=flatten_images(train_images),
            train_targets=one_hot(train_labels, self.n_classes),
            test_inputs=flatten_images(test_images),
            test_targets=one_hot(test_labels, self.n_classes),
            image_shape=(self.image_size, self.image_size),
            feature_range=(0.0, 1.0),
            metadata={
                "generator": "SyntheticDigitsGenerator",
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


def load_mnist_like(
    n_train: int = 6000,
    n_test: int = 1000,
    *,
    image_size: int = 28,
    n_classes: int = 10,
    random_state: RandomState = 0,
) -> Dataset:
    """Convenience loader for the MNIST-like dataset.

    The default sizes are a 10x scaled-down version of MNIST; the experiment
    modules pass larger values when running at paper scale.
    """
    rng = as_rng(random_state)
    generator = SyntheticDigitsGenerator(
        image_size=image_size, n_classes=n_classes, random_state=rng
    )
    return generator.generate(n_train, n_test, random_state=rng)
