"""Deterministic synthetic digit corpus in the standard IDX container.

Ten seven-segment-style glyph classes rendered onto 28x28 canvases with
per-segment intensity jitter, endpoint jitter, random shifts, and pixel
noise. Serves as a self-contained stand-in corpus wherever real MNIST IDX
files are not on disk; the rest of the package only ever sees IDX bytes, so
the two are interchangeable at the interface.

The writer renders each split into one reused float64 block of
``_BLOCK`` digits and quantizes it to uint8 pixels block by block, so no
whole-corpus float array exists on its path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import check_count
from .mnist import idx_image_header, quantize_pixels, serialize_idx_labels

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

# digits per float64 block the writer renders before quantizing (0.8 MB)
_BLOCK = 128


def render_digit(digit: int, rng: np.random.Generator,
                 out: np.ndarray) -> np.ndarray:
    """One 28x28 sample of ``digit`` with randomized appearance, written
    into ``out`` (a (28, 28) float64 array, every pixel overwritten);
    returns it.

    Every stroke's jitter and intensity is drawn, then the shift, and each
    stroke is painted at its shifted position. With all jitter and shifts
    the strokes stay inside rows [2, 26) and columns [6, 22), so this
    equals painting them unshifted and rolling the canvas by the shift.
    """
    out.fill(0.0)
    strokes = []
    for name in _DIGIT_SEGMENTS[digit]:
        horizontal, fixed, lo, hi = _SEGMENTS[name]
        fixed = fixed + int(rng.integers(-1, 2))
        lo = lo + int(rng.integers(-1, 2))
        hi = hi + int(rng.integers(-1, 2))
        strokes.append((horizontal, fixed, lo, hi, rng.uniform(0.55, 1.0)))
    dy, dx = rng.integers(-2, 3, size=2).tolist()  # up to 2 pixels each way
    for horizontal, fixed, lo, hi, intensity in strokes:
        if horizontal:
            out[fixed + dy:fixed + dy + _T, lo + dx:hi + dx] = intensity
        else:
            out[lo + dy:hi + dy, fixed + dx:fixed + dx + _T] = intensity
    out += rng.normal(scale=0.18, size=out.shape)
    return np.clip(out, 0.0, 1.0, out=out)


def _digit_labels(per_class: int) -> np.ndarray:
    return np.repeat(np.arange(10, dtype=np.int64),
                     check_count(per_class, "per_class"))


def _corpus_split(per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``per_class`` samples of each digit as quantized uint8 pixels, with
    their labels, rendered in digit order and quantized ``_BLOCK`` digits at
    a time, then returned in one seeded random order."""
    labels = _digit_labels(per_class)
    rng = np.random.default_rng(seed)
    pixels = np.empty((len(labels), 28, 28), dtype=np.uint8)
    block = np.empty((min(_BLOCK, len(labels)), 28, 28))
    for start in range(0, len(labels), len(block)):
        digits = labels[start:start + len(block)].tolist()
        for canvas, digit in zip(block, digits):
            render_digit(digit, rng, out=canvas)
        pixels[start:start + len(digits)] = quantize_pixels(block[:len(digits)])
    order = rng.permutation(len(labels))
    return pixels[order], labels[order]


def write_corpus(out_dir, train_per_class: int = 600, test_per_class: int = 150,
                 seed: int = 2024) -> Path:
    """Write train/test IDX files under ``out_dir`` with the standard
    MNIST file names. Returns the directory path. Both splits are rendered
    before any file is written."""
    check_count(seed, "seed", 0)
    splits = {(TRAIN_IMAGES, TRAIN_LABELS): _corpus_split(train_per_class, seed),
              (TEST_IMAGES, TEST_LABELS): _corpus_split(test_per_class, seed + 1)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (images_name, labels_name), (pixels, labels) in splits.items():
        with open(out / images_name, "wb") as f:
            f.write(idx_image_header(*pixels.shape))
            f.write(pixels)
        (out / labels_name).write_bytes(serialize_idx_labels(labels))
    return out
