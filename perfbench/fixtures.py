"""Synthetic color-MNIST source: digit-shaped 28x28 images written as IDX.

Each digit is drawn as seven-segment strokes with a random box size,
stroke width, position and intensity, plus pixel noise, so the encoder
sees class-dependent shapes without an MNIST download or a committed
binary. The same seed gives byte-identical files.
"""

from __future__ import annotations

import numpy as np

from rankdebias.data import write_idx_images, write_idx_labels

SIDE = 28

# segments lit per digit: a top, b top-right, c bottom-right, d bottom,
# e bottom-left, f top-left, g middle
DIGIT_SEGMENTS = ("abcdef", "bc", "abged", "abgcd", "fgbc",
                  "afgcd", "afgedc", "abc", "abcdefg", "abcdfg")


def _segment_boxes(top: int, left: int, height: int, width: int, t: int) -> dict:
    mid = top + (height - t) // 2
    bottom = top + height - t
    right = left + width - t
    return {
        "a": (top, top + t, left, left + width),
        "g": (mid, mid + t, left, left + width),
        "d": (bottom, bottom + t, left, left + width),
        "f": (top, mid + t, left, left + t),
        "b": (top, mid + t, right, right + t),
        "e": (mid, bottom + t, left, left + t),
        "c": (mid, bottom + t, right, right + t),
    }


def digit_images(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """uint8 (n, 28, 28) images, one drawn digit per label."""
    images = np.zeros((labels.shape[0], SIDE, SIDE))
    for i, digit in enumerate(labels):
        height = int(rng.integers(16, 23))
        width = int(rng.integers(9, 14))
        t = int(rng.integers(2, 4))
        top = int(rng.integers(1, SIDE - height))
        left = int(rng.integers(1, SIDE - width))
        level = rng.uniform(0.7, 1.0)
        boxes = _segment_boxes(top, left, height, width, t)
        for seg in DIGIT_SEGMENTS[digit]:
            r0, r1, c0, c1 = boxes[seg]
            images[i, r0:r1, c0:c1] = level
    images += rng.normal(0.0, 0.05, images.shape)
    return np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_digit_idx(images_path, labels_path, n: int, seed: int) -> None:
    """Write n balanced, shuffled digit images and their labels as IDX."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 10).astype(np.uint8)
    write_idx_images(images_path, digit_images(labels, rng))
    write_idx_labels(labels_path, labels)
