import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonalnet.errors import ConfigurationError, IdxFormatError, IdxTruncationError
from clonalnet.mnist import (
    IMAGE_MAGIC, LABEL_MAGIC, Dataset, batches, load_dataset,
    parse_idx_images, parse_idx_labels, serialize_idx_images,
    serialize_idx_labels, stratified_subset,
)


def image_bytes(images):
    n, h, w = images.shape
    return struct.pack(">iiii", IMAGE_MAGIC, n, h, w) + images.tobytes()


def label_bytes(labels):
    return struct.pack(">ii", LABEL_MAGIC, len(labels)) + bytes(labels)


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
        second = parse_idx_images(serialize_idx_images(first))
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
        (tmp_path / "imgs").write_bytes(serialize_idx_images(imgs))
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


class TestSyntheticCorpus:
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
