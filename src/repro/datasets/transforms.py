"""Dataset transforms: encoding, normalisation and reshaping."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def one_hot(labels: np.ndarray, n_classes: Optional[int] = None) -> np.ndarray:
    """One-hot encode an integer label vector into shape ``(B, n_classes)``."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 0
    elif labels.size and labels.max() >= n_classes:
        raise ValueError(
            f"labels contain class {labels.max()} but n_classes is {n_classes}"
        )
    encoded = np.zeros((labels.shape[0], n_classes), dtype=float)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def from_one_hot(encoded: np.ndarray) -> np.ndarray:
    """Invert :func:`one_hot` (argmax over rows)."""
    encoded = np.asarray(encoded)
    if encoded.ndim != 2:
        raise ValueError(f"encoded labels must be 2-D, got shape {encoded.shape}")
    return np.argmax(encoded, axis=1)


def flatten_images(images: np.ndarray) -> np.ndarray:
    """Flatten ``(B, H, W)`` or ``(B, H, W, C)`` images to ``(B, N)``."""
    images = np.asarray(images, dtype=float)
    if images.ndim < 2:
        raise ValueError(f"images must have at least 2 dimensions, got {images.ndim}")
    if images.ndim == 2:
        return images
    return images.reshape(images.shape[0], -1)


def unflatten_images(
    flat: np.ndarray, shape: Tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`flatten_images` given the per-image ``shape``."""
    flat = np.asarray(flat, dtype=float)
    if flat.ndim != 2:
        raise ValueError(f"flat images must be 2-D, got shape {flat.shape}")
    expected = int(np.prod(shape))
    if flat.shape[1] != expected:
        raise ValueError(
            f"cannot reshape {flat.shape[1]} features into image shape {shape}"
        )
    return flat.reshape((flat.shape[0],) + tuple(shape))
