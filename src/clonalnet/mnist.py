"""IDX-format image/label ingestion, normalization, and stratified
small-subset sampling for the data-scarcity sweeps.

The IDX container is the standard big-endian MNIST layout: images carry
magic 0x00000803 followed by count/rows/cols as 32-bit words and raw pixel
bytes; labels carry magic 0x00000801, a count word, and label bytes. Pixels
map to [0, 1] by /255. The image header, pixel quantizer and label
serializer write the synthetic corpus in the same container.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, IdxFormatError, IdxTruncationError, check_array,
    check_count, check_indices,
)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, H, W) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ConfigurationError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def class_ids(self) -> np.ndarray:
        return np.unique(self.labels)


def _read_words(data: bytes, count: int, offset: int) -> tuple[tuple[int, ...], int]:
    end = offset + 4 * count
    if len(data) < end:
        raise IdxTruncationError("header ends early", len(data))
    return struct.unpack(f">{count}I", data[offset:end]), end


def parse_idx_images(data: bytes) -> np.ndarray:
    """Decode an IDX image stream into an (N, rows, cols) float64 array
    with pixels scaled to [0, 1]."""
    (magic,), offset = _read_words(data, 1, 0)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
        )
    (count, rows, cols), offset = _read_words(data, 3, offset)
    expected = offset + count * rows * cols
    if len(data) < expected:
        raise IdxTruncationError(
            f"pixel payload for {count} {rows}x{cols} images ends early",
            len(data),
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols,
                           offset=offset)
    try:
        # an empty set can still declare a shape numpy cannot hold
        return pixels.reshape(count, rows, cols).astype(np.float64) / 255.0
    except ValueError as exc:
        raise IdxFormatError(f"image shape {(count, rows, cols)} is too large") from exc


def parse_idx_labels(data: bytes) -> np.ndarray:
    (magic, count), offset = _read_words(data, 2, 0)
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
        )
    if len(data) < offset + count:
        raise IdxTruncationError(
            f"label payload for {count} labels ends early", len(data)
        )
    return np.frombuffer(data, dtype=np.uint8, count=count,
                         offset=offset).astype(np.int64)


def quantize_pixels(images) -> np.ndarray:
    """Pixels in [0, 1] as IDX bytes: ``rint(x * 255)`` clipped to
    [0, 255], as uint8, for an array of one or more axes. Values outside
    [0, 1], infinities included, clip; a NaN raises ConfigurationError.
    The float work on float64 pixels runs in one temporary of their size."""
    scaled = np.multiply(check_array(images, "images", (1, math.inf)), 255.0)
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    if np.isnan(scaled).any():
        raise ConfigurationError(
            f"{np.count_nonzero(np.isnan(scaled))} NaN pixels cannot be quantized")
    return scaled.astype(np.uint8)


def idx_image_header(count: int, rows: int, cols: int) -> bytes:
    return struct.pack(">4I", IMAGE_MAGIC, count, rows, cols)


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    """Labels as IDX bytes: a vector of an integer dtype, each in [0, 255]."""
    arr = check_indices(labels, "label", 256, 1)
    header = struct.pack(">2I", LABEL_MAGIC, len(arr))
    return header + arr.astype(np.uint8).tobytes()


def load_dataset(images_path, labels_path) -> Dataset:
    images_path, labels_path = Path(images_path), Path(labels_path)
    for p in (images_path, labels_path):
        if not p.exists():
            raise FileNotFoundError(f"data file not found: {p}")
    images = parse_idx_images(images_path.read_bytes())
    labels = parse_idx_labels(labels_path.read_bytes())
    return Dataset(images=images, labels=labels)


def stratified_subset(ds: Dataset, per_class: int, seed: int) -> Dataset:
    """Exactly ``per_class`` samples per class, without replacement,
    deterministic per seed. Order is by class, then draw order."""
    check_count(per_class, "per_class")
    if not len(ds):
        raise ConfigurationError("the dataset has no classes")
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    picks = []
    for cls in ds.class_ids:
        pool = np.flatnonzero(ds.labels == cls)
        if len(pool) < per_class:
            raise ConfigurationError(
                f"class {cls} has only {len(pool)} samples, need {per_class}"
            )
        picks.append(rng.choice(pool, size=per_class, replace=False))
    idx = np.concatenate(picks)
    return Dataset(images=ds.images[idx], labels=ds.labels[idx])


def batches(ds: Dataset, batch_size: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One shuffled pass over the dataset; the final short batch is kept."""
    check_count(batch_size, "batch_size")
    check_count(seed, "seed", 0)
    order = np.random.default_rng(seed).permutation(len(ds))
    out = []
    for start in range(0, len(ds), batch_size):
        chunk = order[start:start + batch_size]
        out.append((ds.images[chunk], ds.labels[chunk]))
    return out
