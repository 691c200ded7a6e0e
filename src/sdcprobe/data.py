"""Datasets: IDX-format image files and seeded synthetic blobs.

Images are always [n, channels, height, width] float32 in [0, 1]; labels are
integer class indices.  Only unsigned-byte IDX payloads are supported, which
covers the MNIST-family files.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, UsageError
from .fileio import Reader, atomic_write

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray          # [n, c, h, w] float32 in [0, 1]
    labels: np.ndarray          # [n] int64
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise UsageError(f"images must be [n,c,h,w], got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise UsageError(
                f"image count {len(self.images)} != label count {len(self.labels)}")

    def __len__(self):
        return len(self.labels)

    def sha256(self):
        """Hex SHA-256 of the shapes and exact bytes of images and labels."""
        h = hashlib.sha256()
        for a, dtype in ((self.images, "<f4"), (self.labels, "<i8")):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
        return h.hexdigest()

    def subset(self, indices, split=None):
        return Dataset(self.images[indices], self.labels[indices],
                       split if split is not None else self.split)


def _load_idx_array(path, expected_magic, expected_ndim):
    r = Reader(path)
    magic = r.unpack(">I", "magic")[0]
    if magic != expected_magic:
        raise r.fail(f"expected magic 0x{expected_magic:08X} at offset 0, got 0x{magic:08X}")
    dims = r.unpack(f">{expected_ndim}I", "dimensions")
    payload = r.array(np.uint8, math.prod(dims), "payload")
    r.finish()
    return payload.reshape(dims)


def load_idx(images_path, labels_path, split="test") -> Dataset:
    """Parse an IDX image/label file pair; pixels scale to [0, 1] by /255."""
    images = _load_idx_array(images_path, IDX_MAGIC_IMAGES, 3)
    labels = _load_idx_array(labels_path, IDX_MAGIC_LABELS, 1)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"count mismatch: {images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels")
    scaled = (images.astype(np.float32) / 255.0)[:, None, :, :]
    return Dataset(scaled, labels.astype(np.int64), split)


def save_idx(dataset: Dataset, images_path, labels_path):
    """Write ubyte IDX files.  Pixels are scaled back by *255; exact for any
    tensor previously loaded via load_idx."""
    n, c, h, w = dataset.images.shape
    if c != 1:
        raise UsageError("IDX image files hold single-channel images")
    pixels = np.rint(dataset.images[:, 0] * 255.0).astype(np.uint8)
    atomic_write(images_path, struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w) + pixels.tobytes())
    atomic_write(labels_path, struct.pack(">II", IDX_MAGIC_LABELS, n)
                 + dataset.labels.astype(np.uint8).tobytes())


def synth_blobs(classes, samples_per_class, dims, spread, seed,
                image_shape=None, center_scale=1.0) -> Dataset:
    """Gaussian blobs around seeded random class centers.

    image_shape reshapes each sample to (c, h, w) with c*h*w == dims;
    without it samples land in a (1, 1, dims) image.  center_scale
    multiplies the centers, which bounds activation magnitudes.
    """
    if classes < 2 or seed < 0:
        raise UsageError(f"synth_blobs needs at least 2 classes and a seed >= 0; got "
                         f"{classes} and {seed}")
    if dims < 1 or samples_per_class < 1:
        raise UsageError(f"synth_blobs needs dims >= 1 and samples_per_class >= 1; got "
                         f"{dims} and {samples_per_class}")
    if not 0 <= spread < math.inf or not math.isfinite(center_scale):  # NaN fails both
        raise UsageError(f"synth_blobs needs a finite spread >= 0 and a finite center_scale; "
                         f"got {spread} and {center_scale}")
    if image_shape is None:
        image_shape = (1, 1, dims)
    if int(np.prod(image_shape)) != dims:
        raise UsageError(f"image_shape {image_shape} does not hold {dims} features")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(classes, dims)) * center_scale
    feats = np.empty((classes * samples_per_class, dims), dtype=np.float32)
    labels = np.empty(classes * samples_per_class, dtype=np.int64)
    for c in range(classes):
        lo = c * samples_per_class
        noise = rng.normal(0.0, spread, size=(samples_per_class, dims))
        feats[lo:lo + samples_per_class] = centers[c] + noise
        labels[lo:lo + samples_per_class] = c
    # Interleave classes so contiguous splits stay stratified.
    order = np.arange(classes * samples_per_class).reshape(classes, samples_per_class)
    order = order.T.reshape(-1)
    images = feats[order].reshape(-1, *image_shape)
    return Dataset(images, labels[order], "train")


def train_test_split(dataset: Dataset, test_fraction=0.1):
    """Deterministic by index: the trailing fraction becomes the test set."""
    if not 0 < test_fraction < 1:  # NaN fails it too
        raise UsageError(f"split fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    cut = n - int(round(n * test_fraction))
    if cut <= 0 or cut >= n:
        raise UsageError(f"split fraction {test_fraction} degenerate for {n} samples")
    return (dataset.subset(np.arange(cut), "train"),
            dataset.subset(np.arange(cut, n), "test"))
