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

from .errors import ConfigurationError, DimensionError, check_count
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

# each digit's stroke boxes, as _SEGMENTS gives them, in stroke order
_DIGIT_STROKES = tuple(tuple(_SEGMENTS[name] for name in _DIGIT_SEGMENTS[digit])
                       for digit in range(10))

_CANVAS = (28, 28)

# stroke intensities lie in [_LOW, 1.0); numpy's uniform(low, high) is
# low + (high - low) * random(), with high - low rounded as here
_LOW = 0.55
_SPAN = 1.0 - _LOW

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

# digits per float64 block the writer renders before quantizing (0.8 MB)
_BLOCK = 128


def render_digit(digit: int, rng: np.random.Generator,
                 out: np.ndarray) -> np.ndarray:
    """One 28x28 sample of ``digit`` with randomized appearance, written
    into ``out`` (a writable (28, 28) float64 array, every pixel
    overwritten); returns it.

    Every stroke's three endpoint jitters and its intensity are drawn, in
    stroke order, then the row and column shift, then the pixel noise, and
    each stroke is painted at its shifted position. With all jitter and
    shifts the strokes stay inside rows [2, 26) and columns [6, 22), so this
    equals painting them unshifted and rolling the canvas by the shift.
    A ``digit`` not an integer in [0, 9], an ``rng`` not a Generator, or an
    ``out`` of another shape (DimensionError), dtype or type, or read-only,
    raises before any draw.
    """
    strokes = _DIGIT_STROKES[check_count(digit, "digit", 0, 9)]
    if not isinstance(rng, np.random.Generator):
        raise ConfigurationError(
            f"rng must be a numpy Generator, got {type(rng).__name__}")
    _check_canvas(out)
    # bound once: a digit makes about 20 scalar draws
    integers, random = rng.integers, rng.random
    boxes = []
    for horizontal, fixed, lo, hi in strokes:
        fixed += integers(-1, 2)
        lo += integers(-1, 2)
        hi += integers(-1, 2)
        # uniform(_LOW, 1.0) as numpy computes it, without its dispatch
        boxes.append((horizontal, fixed, lo, hi, _LOW + _SPAN * random()))
    # two scalar draws take the same 32-bit halves as one size=2 draw
    dy = integers(-2, 3)   # up to 2 pixels each way
    dx = integers(-2, 3)
    out.fill(0.0)
    for horizontal, fixed, lo, hi, intensity in boxes:
        if horizontal:
            out[fixed + dy:fixed + dy + _T, lo + dx:hi + dx] = intensity
        else:
            out[lo + dy:hi + dy, fixed + dx:fixed + dx + _T] = intensity
    out += rng.normal(scale=0.18, size=_CANVAS)
    return out.clip(0.0, 1.0, out=out)


def _check_canvas(out) -> None:
    """Refuse an ``out`` that is not a writable (28, 28) float64 ndarray."""
    if not isinstance(out, np.ndarray):
        raise ConfigurationError(
            f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != _CANVAS:
        raise DimensionError(f"out must have shape {_CANVAS}, got {out.shape}")
    if out.dtype != np.float64:
        raise ConfigurationError(f"out must be float64, got dtype {out.dtype}")
    if not out.flags.writeable:
        raise ConfigurationError("out must be writable")


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
