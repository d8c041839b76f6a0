"""Deterministic synthetic digit corpus in the standard IDX container.

Ten seven-segment-style glyph classes rendered onto 28x28 canvases with
per-segment intensity jitter, endpoint jitter, random shifts, and pixel
noise. Serves as a self-contained stand-in corpus wherever real MNIST IDX
files are not on disk; the rest of the package only ever sees IDX bytes, so
the two are interchangeable at the interface.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mnist import Dataset, serialize_idx_images, serialize_idx_labels

# canvas geometry: digit box rows 5..22, cols 9..18, stroke thickness 2
_R0, _R1, _RM = 5, 21, 13
_C0, _C1 = 9, 17
_T = 2

# (is_horizontal, fixed_start, span_start, span_stop) per segment
_SEGMENTS = {
    "A": (True, _R0, _C0, _C1 + _T),
    "G": (True, _RM, _C0, _C1 + _T),
    "D": (True, _R1, _C0, _C1 + _T),
    "F": (False, _C0, _R0, _RM + _T),
    "B": (False, _C1, _R0, _RM + _T),
    "E": (False, _C0, _RM, _R1 + _T),
    "C": (False, _C1, _RM, _R1 + _T),
}

_DIGIT_SEGMENTS = {
    0: "ABCDEF",
    1: "BC",
    2: "ABGED",
    3: "ABGCD",
    4: "FGBC",
    5: "AFGCD",
    6: "AFGECD",
    7: "ABC",
    8: "ABCDEFG",
    9: "ABCDFG",
}

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One 28x28 sample of ``digit`` with randomized appearance."""
    canvas = np.zeros((28, 28))
    for name in _DIGIT_SEGMENTS[digit]:
        horizontal, fixed, lo, hi = _SEGMENTS[name]
        fixed = fixed + int(rng.integers(-1, 2))
        lo = lo + int(rng.integers(-1, 2))
        hi = hi + int(rng.integers(-1, 2))
        intensity = rng.uniform(0.55, 1.0)
        if horizontal:
            canvas[fixed:fixed + _T, lo:hi] = intensity
        else:
            canvas[lo:hi, fixed:fixed + _T] = intensity
    dy, dx = rng.integers(-2, 3, size=2)   # shift up to 2 pixels each way
    canvas = np.roll(np.roll(canvas, dy, axis=0), dx, axis=1)
    canvas += rng.normal(scale=0.18, size=canvas.shape)
    return canvas.clip(0.0, 1.0)


def make_dataset(per_class: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for digit in range(10):
        for _ in range(per_class):
            images.append(render_digit(digit, rng))
            labels.append(digit)
    order = rng.permutation(len(labels))
    return Dataset(images=np.stack(images)[order],
                   labels=np.asarray(labels, dtype=np.int64)[order])


def write_corpus(out_dir, train_per_class: int = 600, test_per_class: int = 150,
                 seed: int = 2024) -> Path:
    """Write train/test IDX files under ``out_dir`` with the standard
    MNIST file names. Returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = make_dataset(train_per_class, seed)
    test = make_dataset(test_per_class, seed + 1)
    (out / TRAIN_IMAGES).write_bytes(serialize_idx_images(train.images))
    (out / TRAIN_LABELS).write_bytes(serialize_idx_labels(train.labels))
    (out / TEST_IMAGES).write_bytes(serialize_idx_images(test.images))
    (out / TEST_LABELS).write_bytes(serialize_idx_labels(test.labels))
    return out
