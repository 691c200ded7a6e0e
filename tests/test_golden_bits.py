"""Golden bits: trained parameters and attribution scores pinned exactly.

The constants were recorded from the general-tape implementation of the
training and attribution passes.  Any rewrite of the forward, backward,
loss or optimizer arithmetic must reproduce them bit for bit: a changed
rounding step, operand order or -0/+0 shows up here even where every
tolerance-based test still passes.

The campaign-record digests and latency outcomes were recorded from the
per-draw sampler (one numpy generator per ordinal, every draw evaluated),
so block draws and the once-per-distinct-site evaluation must keep them.
"""

import hashlib
import json

import numpy as np
import pytest

from sdcprobe.attribution import (AttributionConfig, attribute_all,
                                  conductance_components, make_baseline)
from sdcprobe.campaign import (DEFAULT_THRESHOLDS, CampaignConfig, _records_text,
                               run_campaign)
from sdcprobe.data import synth_blobs, train_test_split
from sdcprobe.fat import FatConfig, fat_train, measure_latency_to_critical
from sdcprobe.fault_model import FaultSite
from sdcprobe.nnet import Adam, build_cnn, build_mlp, model_checksum, train
from sdcprobe.nnet.training import EVAL_BATCH

GOLDEN = {
    "fat_mlp_adam_b1": (
        "2b5f14a7f28868da488fd3bb0ecd5f4d4c0688198994716792fda26e3d854f45",
        [0.98, 0.9533333333333334, 0.9933333333333333]),
    "cnn_adam_b16": (
        "cf6ef12a52c64489ed5903bc920457e0139d9ed6dbbad6824db4ab374772fcc3",
        [0.5555555555555556, 0.6, 0.6888888888888889, 0.8222222222222222,
         0.8888888888888888, 0.8444444444444444, 0.9111111111111111,
         0.9555555555555556, 0.9555555555555556, 0.9777777777777777,
         0.9777777777777777, 0.9777777777777777]),
    "mlp_sgd_b8": (
        "e2a9d60dc5ec8042f86df375c33c9fc92801987c61437964a245ea0c4ef2ac0d",
        [1.0, 1.0, 1.0]),
    "skip_with_output_faults": (
        "02a75b76146bfdbc0ec95b273576eb5844e1559f4182fee48f730880d5abc9e9",
        [0.4533333333333333, 0.5866666666666667], 764),
    "fat_train_weight_faults":
        "bb0cd16f14593e2f8cb1a25e2e8bd4c70f7984a3f5e8fcd8e7173861892048c5",
    # (code, adversary_code) -> fat_train with two latency simulations per
    # epoch; recorded when the twin trained its own warm-up and every
    # simulation took its own clean snapshot
    "fat_train_simulations": {
        ("GBINo", "RBRNo"): "d256b1c014ade295c4e028fb510b9be8f1c87a3144869c8f9fde7dcdcb4b0b1b",
        ("GBINw", "RBRNw"): "a67f1b8b1bd9bb6d70a13ad343b48a6ecaf8aa8ed2561cf7059438bf586e5886",
    },
    "cnn_neuron_output_scores":
        "eb7639c42c45ff3115d3251bc6ff8899e2a4c2c2bb500a1917cd93c8e75efdff",
    "cnn_neuron_weight_scores":
        "964aa8188525ff191898911a3476675fec0935490ea6a0035359bbd5d6e025f5",
    "cnn_conductance_components":
        "6139236cc81613b37b28fd90e788391b98c204dc82e790653e990ba385cdcac9",
    "mlp_conductance_components":
        "effedb7d29e098e298aa8243c29b8f8186c7820d58b3156178f39b244bc88fba",
    # (code, uniform_mix) -> records digest, seeds (3, 8), budget 300
    "cnn_campaign_records": {
        ("GBINw", 0.0): "93e1f2895c37997bec8696b7e2f681eeaa9cf13fd76f2ec79a1d0ab653d44e07",
        ("RBRNo", 0.0): "56a6e1b27a1f35b9f626e72f6cf17372a9f3069e184a7c6fc4353ec7d33899d2",
        ("GBINo", 0.3): "2d30663180857753cccd8d3196c574e28e16554740f03cc549165dc2afff0ecb",
    },
    # (evaluations_needed, censored): GBINo then RBRNo at seeds 0, 1, 2,
    # then RBRNo seed 0 censored by budget_cap 100
    "fat_mlp_latency": [(4, False), (23, False), (4, False), (522, False),
                        (370, False), (3289, False), (100, True)],
}


def _fat_fixture():
    ds = synth_blobs(3, 200, dims=12, spread=0.15, seed=5, center_scale=0.3)
    return train_test_split(ds, test_fraction=0.25)


def _scores_sha(amap):
    h = hashlib.sha256()
    for lid in sorted(amap.scores):
        h.update(str(lid).encode())
        h.update(amap.scores[lid].astype("<f4").tobytes())
    return h.hexdigest()


def _components_sha(comps):
    h = hashlib.sha256()
    for lid in sorted(comps):
        h.update(str(lid).encode())
        h.update(np.ascontiguousarray(comps[lid], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def trained_fat_mlp():
    train_set, test_set = _fat_fixture()
    model = build_mlp((1, 1, 12), [16], 3, seed=4)
    log = train(model, train_set, epochs=3, batch_size=1, lr=0.01, optimizer="adam",
                seed=4, eval_set=test_set)
    return model, test_set, log


@pytest.fixture(scope="module")
def trained_cnn():
    data = synth_blobs(classes=3, samples_per_class=60, dims=36, spread=0.35,
                       seed=5, image_shape=(1, 6, 6), center_scale=0.5)
    train_set, test_set = train_test_split(data, test_fraction=0.25)
    model = build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=1)
    log = train(model, train_set, eval_set=test_set, epochs=12, batch_size=16,
                lr=0.01, optimizer="adam", seed=3)
    return model, test_set, log


def mlp_sgd_b8():
    ds = synth_blobs(classes=2, samples_per_class=100, dims=4, spread=0.15, seed=5)
    train_set, test_set = train_test_split(ds, 0.1)
    model = build_mlp((1, 1, 4), [5], classes=2, seed=1)
    log = train(model, train_set, epochs=3, batch_size=8, lr=0.1, optimizer="sgd",
                seed=2, eval_set=test_set)
    return model_checksum(model), log


def skip_with_output_faults(monkeypatch):
    """Batch-1 Adam, guarded by two output faults: one on the hidden layer
    (its gradient column is zeroed on every step) and one on the logits
    that makes some batches' loss non-finite.  Every applied step is one
    Adam.step call; a skipped batch makes none."""
    train_set, test_set = _fat_fixture()
    model = build_mlp((1, 1, 12), [16], 3, seed=4)
    applied, step = [], Adam.step
    monkeypatch.setattr(Adam, "step", lambda opt, active: (applied.append(1), step(opt, active)))
    log = train(model, train_set, epochs=2, batch_size=1, lr=0.01, optimizer="adam",
                seed=4, eval_set=test_set,
                faults=[FaultSite(1, "neuron_output", 12, 30),
                        FaultSite(3, "neuron_output", 0, 30)])
    return model_checksum(model), log, len(applied)


def fat_train_weight_faults():
    """fat_train with pinned weight faults (guarded steps, a bit re-pinned
    after every update); the report's JSON pins logs and accuracies."""
    train_set, test_set = _fat_fixture()
    config = FatConfig(code="EBRNw", adversary_code="RBRNw", warmup_epochs=1,
                       fat_epochs=2, faults_per_round=4, simulations_per_epoch=0,
                       lr=0.01, batch_size=1, optimizer="adam", seed=4)
    model, report = fat_train(build_mlp((1, 1, 12), [16], 3, seed=4),
                              train_set, test_set, config)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256((model_checksum(model) + text).encode()).hexdigest()


def fat_train_simulations(code, adversary_code):
    """fat_train with three trained faults and two latency simulations per
    FAT epoch, some of them censored; the report's JSON without its
    wallclock fields pins the latency runs, logs and accuracies."""
    train_set, test_set = _fat_fixture()
    config = FatConfig(code=code, adversary_code=adversary_code, warmup_epochs=1,
                       fat_epochs=2, faults_per_round=3, simulations_per_epoch=2,
                       latency_threshold=0.05, lr=0.01, batch_size=4, optimizer="adam",
                       seed=6)
    model, report = fat_train(build_mlp((1, 1, 12), [16], 3, seed=4),
                              train_set, test_set, config)
    out = report.to_json_dict()
    for runs in out["latency"].values():
        for run in runs:
            del run["wallclock_ns"]
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256((model_checksum(model) + text).encode()).hexdigest()


def test_fat_mlp_adam_batch_one(trained_fat_mlp):
    model, _, log = trained_fat_mlp
    assert (model_checksum(model), log) == GOLDEN["fat_mlp_adam_b1"]


def test_cnn_adam_batch_sixteen(trained_cnn):
    model, _, log = trained_cnn
    assert (model_checksum(model), log) == GOLDEN["cnn_adam_b16"]


def test_mlp_sgd():
    assert mlp_sgd_b8() == GOLDEN["mlp_sgd_b8"]


def test_skip_mode_with_output_faults(monkeypatch):
    checksum, log, applied = skip_with_output_faults(monkeypatch)
    assert 0 < applied < 2 * 450  # some batches were skipped, not all
    assert (checksum, log, applied) == GOLDEN["skip_with_output_faults"]


def test_fat_train_with_weight_faults():
    assert fat_train_weight_faults() == GOLDEN["fat_train_weight_faults"]


@pytest.mark.parametrize("codes", sorted(GOLDEN["fat_train_simulations"]))
def test_fat_train_with_simulations(codes):
    assert fat_train_simulations(*codes) == GOLDEN["fat_train_simulations"][codes]


def test_cnn_neuron_output_scores(trained_cnn):
    model, test_set, _ = trained_cnn
    amap = attribute_all(model, test_set, AttributionConfig("neuron_output"))
    assert _scores_sha(amap) == GOLDEN["cnn_neuron_output_scores"]


def test_cnn_neuron_weight_scores(trained_cnn):
    model, test_set, _ = trained_cnn
    amap = attribute_all(model, test_set, AttributionConfig("neuron_weight"))
    assert _scores_sha(amap) == GOLDEN["cnn_neuron_weight_scores"]


def test_cnn_conductance_components(trained_cnn):
    """The signed float64 per-sample components, before the mean and the
    float32 rounding of the published scores."""
    model, test_set, _ = trained_cnn
    comps = conductance_components(model, test_set.images,
                                   make_baseline("zeros", model), steps=8)
    assert _components_sha(comps) == GOLDEN["cnn_conductance_components"]


def test_mlp_conductance_components(trained_fat_mlp):
    """The FAT fixture MLP over its 150 test rows, one EVAL_BATCH chunk,
    at 32 steps: its flatten and first linear layer come before any ReLU."""
    model, test_set, _ = trained_fat_mlp
    assert test_set.images.shape[0] == 150
    comps = conductance_components(model, test_set.images,
                                   make_baseline("zeros", model), steps=32)
    assert _components_sha(comps) == GOLDEN["mlp_conductance_components"]


def _records_sha(records):
    """SHA-256 over every record column but wallclock_ns."""
    h = hashlib.sha256()
    for r in records:
        s = r.site
        cells = [r.experiment_code, r.seed, r.sample_ordinal, s.layer_id, s.target_kind,
                 s.element_index, s.bit_index, repr(r.baseline_accuracy),
                 repr(r.faulty_accuracy), repr(r.accuracy_drop), int(r.poisoned)]
        h.update((",".join(str(c) for c in cells + [int(f) for f in r.sdc_flags])
                  + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("code,mix", sorted(GOLDEN["cnn_campaign_records"]))
def test_cnn_campaign_records(trained_cnn, code, mix):
    model, test_set, _ = trained_cnn
    amap = None
    if code[2] == "I":
        target = "neuron_weight" if code[4] == "w" else "neuron_output"
        amap = attribute_all(model, test_set, AttributionConfig(target))
    config = CampaignConfig(code=code, thresholds=(0.0, 0.05, 0.1, 0.25),
                            sample_budget=300, seeds=(3, 8), uniform_mix=mix)
    result = run_campaign(model, test_set, config, amap,
                          probe_images=test_set.images[:EVAL_BATCH])
    assert _records_sha(result.records) == GOLDEN["cnn_campaign_records"][(code, mix)]


def test_cnn_campaign_csv_bytes(trained_cnn, tmp_path):
    """The records file a campaign writes, wallclock cells included, is
    byte for byte the text of the records it returns, on the default
    19-threshold ladder, with poisoned draws and repeated sites."""
    model, test_set, _ = trained_cnn
    config = CampaignConfig(code="RBRNo", sample_budget=300, seeds=(3, 8))
    out = tmp_path / "records.csv"
    result = run_campaign(model, test_set, config, out_csv=str(out))
    assert config.thresholds == DEFAULT_THRESHOLDS and len(DEFAULT_THRESHOLDS) == 19
    assert any(r.poisoned for r in result.records)
    assert len({r.site for r in result.records}) < len(result.records)
    assert out.read_bytes() == _records_text(result.records,
                                             DEFAULT_THRESHOLDS).encode("utf-8")


def test_fat_mlp_latency_runs(trained_fat_mlp):
    model, test_set, _ = trained_fat_mlp
    runs = [measure_latency_to_critical(model, test_set, code, 0.01, 3, seed=seed)
            for code in ("GBINo", "RBRNo") for seed in (0, 1, 2)]
    runs.append(measure_latency_to_critical(model, test_set, "RBRNo", 0.01, 3, seed=0,
                                            budget_cap=100))
    assert [(r.evaluations_needed, r.censored) for r in runs] == GOLDEN["fat_mlp_latency"]
