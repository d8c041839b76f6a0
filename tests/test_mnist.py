import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonalnet import synthdigits
from clonalnet.errors import (
    ConfigurationError, DimensionError, IdxFormatError, IdxTruncationError,
)
from clonalnet.mnist import (
    IMAGE_MAGIC, LABEL_MAGIC, Dataset, batches, idx_image_header, load_dataset,
    parse_idx_images, parse_idx_labels, quantize_pixels, serialize_idx_labels,
    stratified_subset,
)


def image_bytes(images):
    n, h, w = images.shape
    return struct.pack(">iiii", IMAGE_MAGIC, n, h, w) + images.tobytes()


def label_bytes(labels):
    return struct.pack(">ii", LABEL_MAGIC, len(labels)) + bytes(labels)


def written_image_bytes(images):
    """``images`` (count, rows, cols) as the corpus writer writes them."""
    return idx_image_header(*images.shape) + quantize_pixels(images).tobytes()


class TestParsing:
    def test_magic_constants(self):
        assert IMAGE_MAGIC == 2051
        assert LABEL_MAGIC == 2049

    def test_pixel_normalization_endpoints(self):
        raw = np.array([[[0, 255], [128, 51]]], dtype=np.uint8)
        imgs = parse_idx_images(image_bytes(raw))
        assert imgs[0, 0, 0] == 0.0
        assert imgs[0, 0, 1] == 1.0
        assert imgs[0, 1, 0] == 128 / 255
        assert imgs[0, 1, 1] == 51 / 255

    def test_wrong_image_magic(self):
        bad = struct.pack(">iiii", 0x00000804, 1, 2, 2) + bytes(4)
        with pytest.raises(IdxFormatError):
            parse_idx_images(bad)

    def test_wrong_label_magic(self):
        bad = struct.pack(">ii", IMAGE_MAGIC, 1) + bytes(1)
        with pytest.raises(IdxFormatError):
            parse_idx_labels(bad)

    def test_truncated_images_report_offset(self):
        data = struct.pack(">iiii", IMAGE_MAGIC, 2, 3, 3) + bytes(10)
        with pytest.raises(IdxTruncationError) as exc:
            parse_idx_images(data)
        assert "offset" in str(exc.value)
        assert exc.value.offset == len(data)

    def test_truncated_labels(self):
        data = struct.pack(">ii", LABEL_MAGIC, 5) + bytes(3)
        with pytest.raises(IdxTruncationError):
            parse_idx_labels(data)

    def test_standard_train_count_accepted(self):
        # header count of the full-size training file, 1x1 pixels to stay small
        n = 60000
        data = struct.pack(">iiii", IMAGE_MAGIC, n, 1, 1) + bytes(n)
        imgs = parse_idx_images(data)
        assert imgs.shape == (60000, 1, 1)

    def test_empty_set_with_unholdable_shape_rejected(self):
        # zero images of 2^31 x 2^31 pixels: no truncation, but numpy cannot
        # shape the empty array (found by TestIdxFuzz)
        with pytest.raises(IdxFormatError):
            parse_idx_images(struct.pack(">4I", IMAGE_MAGIC, 0, 2**31, 2**31))

    def test_header_is_big_endian(self):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        data = image_bytes(raw)
        assert data[:4] == b"\x00\x00\x08\x03"

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31))
    def test_image_round_trip(self, n, side, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        first = parse_idx_images(image_bytes(raw))
        second = parse_idx_images(written_image_bytes(first))
        assert np.array_equal(first, second)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=30))
    def test_label_round_trip(self, raw):
        first = parse_idx_labels(label_bytes(raw))
        second = parse_idx_labels(serialize_idx_labels(first))
        assert np.array_equal(first, second)
        assert np.array_equal(first, np.array(raw))


def mutated(data, rng):
    """``data`` with a few bytes overwritten (half of them in the header),
    then cut short or extended at random."""
    out = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        end = 16 if rng.random() < 0.5 else len(out)
        out[rng.integers(min(end, len(out)))] = rng.integers(256)
    cut = rng.integers(len(out) + 1)
    choice = rng.integers(3)
    if choice == 0:
        out = out[:cut]
    elif choice == 1:
        out += bytes(rng.integers(0, 256, size=rng.integers(1, 9), dtype=np.uint8))
    return bytes(out)


class TestIdxFuzz:
    # any byte string either parses to what its header declares or raises
    # one of the two typed IDX errors, never an untyped exception

    @staticmethod
    def check(data):
        try:
            images = parse_idx_images(data)
        except (IdxFormatError, IdxTruncationError):
            pass
        else:
            assert images.shape == struct.unpack(">3I", data[4:16])
            assert images.size == 0 or 0.0 <= images.min() <= images.max() <= 1.0
        try:
            labels = parse_idx_labels(data)
        except (IdxFormatError, IdxTruncationError):
            pass
        else:
            assert labels.shape == struct.unpack(">I", data[4:8])
            assert labels.size == 0 or 0 <= labels.min() <= labels.max() <= 255

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        self.check(data)

    @given(st.binary(max_size=8), st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC]))
    def test_arbitrary_bytes_after_a_magic(self, tail, magic):
        self.check(struct.pack(">i", magic) + tail)

    @given(st.integers(0, 2**31 - 1))
    def test_mutated_valid_streams(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=(rng.integers(0, 4), 3, 2), dtype=np.uint8)
        for data in (image_bytes(raw), label_bytes(list(raw[:, 0, 0]))):
            self.check(mutated(data, rng))


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(images=np.zeros((3, 2, 2)), labels=np.zeros(2, dtype=np.int64))

    def test_load_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            load_dataset(tmp_path / "absent-images", tmp_path / "absent-labels")
        assert "absent-images" in str(exc.value)

    def test_load_from_disk(self, tmp_path, corpus_dir):
        imgs = np.linspace(0, 1, 16).reshape(1, 4, 4)
        (tmp_path / "imgs").write_bytes(written_image_bytes(imgs))
        (tmp_path / "labs").write_bytes(serialize_idx_labels(np.array([7])))
        ds = load_dataset(tmp_path / "imgs", tmp_path / "labs")
        assert len(ds) == 1
        assert ds.labels[0] == 7


def toy_dataset(per_class, classes=5, side=4, seed=0):
    rng = np.random.default_rng(seed)
    n = per_class * classes
    images = rng.random((n, side, side))
    labels = np.repeat(np.arange(classes), per_class).astype(np.int64)
    return Dataset(images=images, labels=labels)


class TestStratifiedSubset:
    def test_counts_per_class(self):
        ds = toy_dataset(per_class=20, classes=10)
        sub = stratified_subset(ds, per_class=10, seed=3)
        assert len(sub) == 100
        values, counts = np.unique(sub.labels, return_counts=True)
        assert list(values) == list(range(10))
        assert all(c == 10 for c in counts)

    def test_same_seed_identical(self):
        ds = toy_dataset(per_class=12)
        a = stratified_subset(ds, 4, seed=9)
        b = stratified_subset(ds, 4, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        ds = toy_dataset(per_class=50)
        a = stratified_subset(ds, 5, seed=1)
        b = stratified_subset(ds, 5, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_without_replacement(self):
        ds = toy_dataset(per_class=8)
        sub = stratified_subset(ds, 8, seed=0)
        # drawing the full class population must return each sample once
        flat = {img.tobytes() for img in sub.images}
        assert len(flat) == len(sub)

    def test_deficient_class_named(self):
        ds = toy_dataset(per_class=3, classes=4)
        with pytest.raises(ConfigurationError) as exc:
            stratified_subset(ds, per_class=5, seed=0)
        assert "0" in str(exc.value)

    def test_empty_dataset_has_no_classes(self):
        # numpy's concatenate used to fail on the empty list of picks
        ds = Dataset(images=np.zeros((0, 4, 4)), labels=np.zeros(0, np.int64))
        with pytest.raises(ConfigurationError, match="no classes"):
            stratified_subset(ds, per_class=1, seed=0)

    @given(st.integers(1, 6), st.integers(0, 2**31))
    def test_histogram_uniform(self, per_class, seed):
        ds = toy_dataset(per_class=6, classes=3, seed=seed)
        sub = stratified_subset(ds, per_class, seed=seed)
        recount = {}
        for lab in sub.labels:
            recount[int(lab)] = recount.get(int(lab), 0) + 1
        assert recount == {0: per_class, 1: per_class, 2: per_class}


class TestBatches:
    def test_sizes_with_short_tail(self):
        ds = toy_dataset(per_class=20, classes=5)       # 100 samples
        parts = batches(ds, 32, seed=0)
        assert [len(labs) for _, labs in parts] == [32, 32, 32, 4]

    def test_partition_no_loss_no_duplicates(self):
        ds = toy_dataset(per_class=9, classes=3)
        parts = batches(ds, 7, seed=5)
        seen = [img.tobytes() for imgs, _ in parts for img in imgs]
        assert len(seen) == len(ds)
        assert sorted(seen) == sorted(img.tobytes() for img in ds.images)

    def test_deterministic_per_seed(self):
        ds = toy_dataset(per_class=10)
        a = batches(ds, 8, seed=4)
        b = batches(ds, 8, seed=4)
        for (ia, la), (ib, lb) in zip(a, b):
            assert np.array_equal(ia, ib)
            assert np.array_equal(la, lb)

    def test_bad_batch_size(self):
        ds = toy_dataset(per_class=2)
        with pytest.raises(ConfigurationError):
            batches(ds, 0, seed=0)


class TestSerializationErrors:
    def test_quantize_matches_rint_clip_cast(self):
        # half-way points of every level, out-of-range values and infinities
        x = np.concatenate([(np.arange(-2, 258) + 0.5) / 255.0,
                            np.linspace(-1.0, 2.0, 301),
                            [np.inf, -np.inf, 0.0, -0.0, 1.0]])
        expected = np.rint(x * 255.0).clip(0, 255).astype(np.uint8)
        assert quantize_pixels(x).tobytes() == expected.tobytes()

    def test_nan_pixel(self):
        images = np.zeros((2, 3, 3))
        images[1, 2, 0] = np.nan
        with pytest.raises(ConfigurationError):
            quantize_pixels(images)

    @pytest.mark.parametrize("bad", [256, -1, 2.5, np.nan])
    def test_label_not_a_byte(self, bad):
        with pytest.raises(ConfigurationError):
            serialize_idx_labels(np.array([0, 9, bad]))

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.0]), [0.0],
                                        np.array([True, False])],
                             ids=["integral-floats", "float-list", "bools"])
    def test_labels_of_a_non_integer_dtype_rejected(self, labels):
        # integral floats used to be written as their bytes
        with pytest.raises(ConfigurationError,
                           match="labels must be integers, got dtype"):
            serialize_idx_labels(labels)

    def test_label_outside_a_byte_names_it(self):
        with pytest.raises(ConfigurationError,
                           match=r"labels hold a label outside \[0, 256\): "
                                 r"label 300 is the first"):
            serialize_idx_labels(np.array([3, 300, -1], dtype=np.int64))

    def test_labels_not_one_dimensional(self):
        # a 2-D array would write rows * cols bytes under a count of rows
        with pytest.raises(DimensionError):
            serialize_idx_labels(np.zeros((2, 3), dtype=np.int64))

    def test_byte_range_labels_round_trip(self):
        labels = np.array([0, 1, 254, 255])
        assert np.array_equal(parse_idx_labels(serialize_idx_labels(labels)), labels)


def render_digit_naive(digit, rng):
    """The reference renderer: paint every stroke on a blank canvas, roll
    the canvas by the shift, add noise and clip."""
    canvas = np.zeros((28, 28))
    for name in synthdigits._DIGIT_SEGMENTS[digit]:
        horizontal, fixed, lo, hi = synthdigits._SEGMENTS[name]
        fixed = fixed + int(rng.integers(-1, 2))
        lo = lo + int(rng.integers(-1, 2))
        hi = hi + int(rng.integers(-1, 2))
        intensity = rng.uniform(0.55, 1.0)
        if horizontal:
            canvas[fixed:fixed + synthdigits._T, lo:hi] = intensity
        else:
            canvas[lo:hi, fixed:fixed + synthdigits._T] = intensity
    dy, dx = rng.integers(-2, 3, size=2)
    canvas = np.roll(np.roll(canvas, dy, axis=0), dx, axis=1)
    canvas += rng.normal(scale=0.18, size=canvas.shape)
    return canvas.clip(0.0, 1.0)


def file_digests(directory):
    return [hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in (synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS,
                         synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS)]


class TestSyntheticCorpus:
    # SHA-256 of the four IDX files (train images, train labels, test
    # images, test labels), as written by the per-digit renderer that
    # stacked, permuted and serialized the whole corpus in float64
    DEFAULT_FILES = [
        "1d47b057960d0c6e04d77374ec2035731ec782cf95736aa6de9bb3cd94ab8289",
        "99d87c398db99b126919b7ee747acb90205b27a6b23831d99a8cab24b8be38d4",
        "d78b94659b6d427274a3c1a09ffc44694858f9fda946abf5fcfe957b1398dd9a",
        "bcfaa92f2e8b8c5c3e7b4df8c9a4900d3209a7b53c743c2e66c599ac530c75c3",
    ]
    SMALL_FILES = [  # write_corpus(dir, 3, 2, seed=7)
        "9d91471fce4e9cf5991dba41bce9f83f377154120eaf43b6b03b0d92bd2a4ec2",
        "d9f1cc182b9c5453ca02eab2b50fe1a1c8b1756286315216c9421a317031d766",
        "bfbabcfd768ef3dfef9208e44f884faa85a37e8236e3038d72679a98e51d9900",
        "fdcc877a024a4b90769d975dd996e35edd699b4399fc6bb17210c46bcaa14927",
    ]

    def test_corpus_files_load(self, corpus):
        train, test = corpus
        assert len(train) == 6000
        assert len(test) == 1500
        assert list(train.class_ids) == list(range(10))
        assert train.images.min() >= 0.0
        assert train.images.max() <= 1.0

    def test_corpus_deterministic(self, corpus_dir, tmp_path):
        from clonalnet import synthdigits
        synthdigits.write_corpus(tmp_path)
        for name in (synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS,
                     synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS):
            assert (tmp_path / name).read_bytes() == \
                (corpus_dir / name).read_bytes()

    def test_default_corpus_bytes_pinned(self, corpus_dir):
        assert file_digests(corpus_dir) == self.DEFAULT_FILES

    def test_small_corpus_bytes_pinned(self, tmp_path):
        synthdigits.write_corpus(tmp_path, 3, 2, seed=7)
        assert file_digests(tmp_path) == self.SMALL_FILES

    @given(st.integers(0, 9), st.integers(0, 2**63))
    def test_render_matches_naive(self, digit, seed):
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = render_digit_naive(digit, expected_rng)
        out = synthdigits.render_digit(digit, rng, np.zeros((28, 28)))
        assert out.tobytes() == expected.tobytes()
        # into a used buffer, from the same stream position
        rng = np.random.default_rng(seed)
        out = np.full((28, 28), np.nan)
        assert synthdigits.render_digit(digit, rng, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_shifted_strokes_stay_on_canvas(self):
        # every stroke box, with every endpoint jitter and shift, lies in
        # rows [2, 26) and columns [6, 22), so painting at the shifted
        # position never needs to wrap round the 28 x 28 canvas
        rows, cols = [], []
        jitter, shift = (-1, 0, 1), range(-2, 3)
        for horizontal, fixed, lo, hi in synthdigits._SEGMENTS.values():
            for jf, jl, jh, dy, dx in itertools.product(jitter, jitter, jitter,
                                                        shift, shift):
                across = (fixed + jf, fixed + jf + synthdigits._T)
                along = (lo + jl, hi + jh)
                assert along[0] < along[1]
                r, c = (across, along) if horizontal else (along, across)
                rows.append((r[0] + dy, r[1] + dy))
                cols.append((c[0] + dx, c[1] + dx))
        assert min(r[0] for r in rows) == 2 and max(r[1] for r in rows) == 26
        assert min(c[0] for c in cols) == 6 and max(c[1] for c in cols) == 22

    @pytest.mark.parametrize("per_class", [0, -3])
    def test_empty_class_rejected(self, tmp_path, per_class):
        with pytest.raises(ConfigurationError):
            synthdigits.write_corpus(tmp_path / "a", per_class, 2)
        with pytest.raises(ConfigurationError):
            synthdigits.write_corpus(tmp_path / "b", 2, per_class)
        assert list(tmp_path.iterdir()) == []


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestCorpusMemory:
    # tracemalloc counts numpy's data buffers, so a traced peak is the
    # largest set of live arrays during the call

    def test_writer_peak_below_float_train_split(self, tmp_path):
        peak, _ = traced_peak(synthdigits.write_corpus, tmp_path, 200, 50, 3)
        assert peak <= 1.0 * 2000 * 28 * 28 * 8

    def test_loader_peak_is_its_output(self, tmp_path):
        synthdigits.write_corpus(tmp_path, 20, 2, seed=3)
        data = (tmp_path / synthdigits.TRAIN_IMAGES).read_bytes()
        peak, images = traced_peak(parse_idx_images, data)
        assert peak <= 1.05 * images.nbytes
