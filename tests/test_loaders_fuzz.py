"""Loader fuzzing: truncated or mutated files fail only with data errors.

Every loader that reads a file from outside the program is fed valid
files cut short or with bytes overwritten.  Whatever the damage, the loader
either returns or raises DataFormatError or DataIntegrityError, which the
command line reports as exit code 3; nothing else may escape.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdcprobe.attribution import (AttributionConfig, attribute_all, load_attribution,
                                  save_attribution)
from sdcprobe.campaign import CampaignConfig, load_records, run_campaign
from sdcprobe.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, load_idx, synth_blobs
from sdcprobe.errors import DataFormatError, DataIntegrityError
from sdcprobe.fileio import atomic_write
from sdcprobe.nnet import build_cnn, load_checkpoint, save_checkpoint

DAMAGE = st.one_of(
    st.integers(0, 10_000).map(lambda n: ("cut", n, None)),
    st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), min_size=1,
             max_size=4).map(lambda edits: ("edit", None, edits)),
)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def save_idx(dataset, images_path, labels_path):
    """Write a single-channel dataset as ubyte IDX files.  Pixels are
    scaled back by *255; exact for any tensor load_idx loaded."""
    n, _, h, w = dataset.images.shape
    pixels = np.rint(dataset.images[:, 0] * 255.0).astype(np.uint8)
    atomic_write(images_path, struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w) + pixels.tobytes())
    atomic_write(labels_path, struct.pack(">II", IDX_MAGIC_LABELS, n)
                 + dataset.labels.astype(np.uint8).tobytes())


def damaged(blob, damage):
    kind, cut, edits = damage
    if kind == "cut":
        return blob[:cut % (len(blob) + 1)]
    out = bytearray(blob)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


def survives(loader, path, blob, damage):
    path.write_bytes(damaged(blob, damage))
    try:
        loader(path)
    except (DataFormatError, DataIntegrityError):
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = synth_blobs(3, 4, dims=36, spread=0.3, seed=1, image_shape=(1, 6, 6))
    model = build_cnn((1, 6, 6), (2, 2), kernel=3, hidden=4, classes=3, seed=2)
    save_checkpoint(model, root / "model.ckpt")
    save_attribution(attribute_all(model, data, AttributionConfig("neuron_weight")),
                     root / "scores.attr")
    run_campaign(model, data, CampaignConfig(code="RBRNw", thresholds=(0.0, 0.5),
                                             sample_budget=4, seeds=(1,)),
                 out_csv=str(root / "records.csv"))
    data.images = np.round(data.images.clip(0, 1) * 255) / 255
    save_idx(data, root / "images.idx", root / "labels.idx")
    blobs = {name: (root / name).read_bytes()
             for name in ("model.ckpt", "scores.attr", "records.csv", "images.idx",
                          "labels.idx")}
    return root, blobs


@FUZZ
@given(damage=DAMAGE)
def test_load_checkpoint(files, damage):
    root, blobs = files
    survives(load_checkpoint, root / "fuzz.ckpt", blobs["model.ckpt"], damage)


@FUZZ
@given(damage=DAMAGE)
def test_load_attribution(files, damage):
    root, blobs = files
    survives(load_attribution, root / "fuzz.attr", blobs["scores.attr"], damage)


@FUZZ
@given(damage=DAMAGE)
def test_load_records(files, damage):
    root, blobs = files
    survives(load_records, root / "fuzz.csv", blobs["records.csv"], damage)


@FUZZ
@given(damage=DAMAGE, which=st.sampled_from(["images.idx", "labels.idx"]))
def test_load_idx(files, damage, which):
    root, blobs = files
    for name in ("images.idx", "labels.idx"):
        (root / f"fuzz-{name}").write_bytes(blobs[name])
    survives(lambda path: load_idx(root / "fuzz-images.idx", root / "fuzz-labels.idx"),
             root / f"fuzz-{which}", blobs[which], damage)
