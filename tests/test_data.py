"""Dataset loading and generation."""

import struct

import numpy as np
import pytest

from sdcprobe.data import (
    Dataset,
    IDX_MAGIC_IMAGES,
    IDX_MAGIC_LABELS,
    load_idx,
    save_idx,
    synth_blobs,
    train_test_split,
)
from sdcprobe.errors import DataFormatError, UsageError


def write_idx_pair(tmp_path, images_u8, labels_u8):
    n, h, w = images_u8.shape
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w))
        fh.write(images_u8.tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">II", IDX_MAGIC_LABELS, n))
        fh.write(labels_u8.tobytes())
    return ipath, lpath


class TestIdx:
    def test_known_bytes_scale_to_unit_interval(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        labels = np.array([7], dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.images.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(
            ds.images[0, 0],
            np.array([[0.0, 1.0], [128 / 255, 64 / 255]], dtype=np.float32))
        assert ds.labels[0] == 7

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 5, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, size=20).astype(np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        save_idx(ds, tmp_path / "im2.idx", tmp_path / "lb2.idx")
        ds2 = load_idx(tmp_path / "im2.idx", tmp_path / "lb2.idx")
        np.testing.assert_array_equal(ds.images.view(np.uint32), ds2.images.view(np.uint32))
        np.testing.assert_array_equal(ds.labels, ds2.labels)

    def test_save_writes_the_loaded_bytes_and_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(6, 3, 2)).astype(np.uint8)
        labels = rng.integers(0, 10, size=6).astype(np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, labels)
        out = tmp_path / "out"
        out.mkdir()
        save_idx(load_idx(ipath, lpath), out / "images.idx", out / "labels.idx")
        assert sorted(p.name for p in out.iterdir()) == ["images.idx", "labels.idx"]
        assert (out / "images.idx").read_bytes() == ipath.read_bytes()
        assert (out / "labels.idx").read_bytes() == lpath.read_bytes()

    def test_pixels_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(8, 3, 3)).astype(np.uint8)
        labels = rng.integers(0, 3, size=8).astype(np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_wrong_magic_reported(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(DataFormatError, match="0x00000803"):
            load_idx(lpath, lpath)  # labels file passed as images

    def test_truncated_payload_reports_offset(self, tmp_path):
        ipath = tmp_path / "trunc.idx"
        with open(ipath, "wb") as fh:
            fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, 4, 2, 2))
            fh.write(b"\x00" * 7)  # needs 16 payload bytes
        lpath = tmp_path / "lab.idx"
        with open(lpath, "wb") as fh:
            fh.write(struct.pack(">II", IDX_MAGIC_LABELS, 4))
            fh.write(b"\x00" * 4)
        with pytest.raises(DataFormatError, match="offset"):
            load_idx(ipath, lpath)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        ipath, _ = write_idx_pair(tmp_path, images, labels)
        lpath = tmp_path / "short.idx"
        with open(lpath, "wb") as fh:
            fh.write(struct.pack(">II", IDX_MAGIC_LABELS, 2))
            fh.write(b"\x00\x00")
        with pytest.raises(DataFormatError, match="mismatch"):
            load_idx(ipath, lpath)

    def test_trailing_bytes_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, labels)
        with open(ipath, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_idx(ipath, lpath)


class TestBlobs:
    def test_deterministic(self):
        a = synth_blobs(3, 10, 5, 0.2, seed=9)
        b = synth_blobs(3, 10, 5, 0.2, seed=9)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_to_centers(self):
        ds = synth_blobs(2, 5, 3, 0.0, seed=4)
        for c in (0, 1):
            rows = ds.images[ds.labels == c].reshape(5, -1)
            assert np.all(rows == rows[0])
        c0 = ds.images[ds.labels == 0][0]
        c1 = ds.images[ds.labels == 1][0]
        assert not np.array_equal(c0, c1)

    def test_image_shape_reshapes(self):
        ds = synth_blobs(2, 4, 16, 0.1, seed=0, image_shape=(1, 4, 4))
        assert ds.images.shape == (8, 1, 4, 4)
        with pytest.raises(UsageError):
            synth_blobs(2, 4, 16, 0.1, seed=0, image_shape=(1, 3, 3))

    def test_classes_interleaved_for_stratified_splits(self):
        ds = synth_blobs(2, 10, 3, 0.1, seed=2)
        train_ds, test_ds = train_test_split(ds, 0.2)
        assert set(np.unique(test_ds.labels)) == {0, 1}
        assert set(np.unique(train_ds.labels)) == {0, 1}

    def test_minimum_classes(self):
        with pytest.raises(UsageError):
            synth_blobs(1, 5, 3, 0.1, seed=0)

    @pytest.mark.parametrize("kwargs", [
        dict(dims=0), dict(dims=-3), dict(samples_per_class=0), dict(spread=-1.0),
        dict(spread=float("nan")), dict(spread=float("inf")),
        dict(center_scale=float("nan")), dict(center_scale=float("-inf")),
    ])
    def test_degenerate_values_refused(self, kwargs):
        """Values numpy would choke on, or that would only show later as a
        non-finite training loss, are refused up front."""
        with pytest.raises(UsageError, match="synth_blobs needs"):
            synth_blobs(**{**dict(classes=2, samples_per_class=5, dims=3, spread=0.1,
                                  seed=0), **kwargs})


class TestSplit:
    def test_sizes_and_determinism(self):
        ds = synth_blobs(2, 50, 4, 0.1, seed=3)
        train_ds, test_ds = train_test_split(ds, 0.1)
        assert len(train_ds) == 90 and len(test_ds) == 10
        train_b, test_b = train_test_split(ds, 0.1)
        np.testing.assert_array_equal(test_ds.images, test_b.images)

    def test_degenerate_fraction_rejected(self):
        ds = synth_blobs(2, 5, 4, 0.1, seed=3)
        with pytest.raises(UsageError):
            train_test_split(ds, 1.0)

    def test_nan_fraction_rejected(self):
        ds = synth_blobs(2, 5, 4, 0.1, seed=3)
        with pytest.raises(UsageError, match="split fraction"):
            train_test_split(ds, float("nan"))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(UsageError):
            Dataset(np.zeros((3, 1, 1, 2), dtype=np.float32), np.zeros(2, dtype=np.int64))
