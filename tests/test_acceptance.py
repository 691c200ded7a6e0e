"""Acceptance gate: one test per shipping requirement, thirteen in all.

Every fixture is pinned (seeds, shapes, budgets), so each run is a
deterministic replay against named tolerances, and `pytest -v` prints one
verdict line per requirement.  Requirements with a wallclock budget assert
it alongside the numeric check.
"""

import dataclasses
import json
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from test_autodiff import fd_grads
from test_fault_model import chi2_pvalue

from sdcprobe import bitfloat
from sdcprobe.attribution import (AttributionConfig, AttributionMap, attribute_all,
                                  conductance_components, make_baseline)
from sdcprobe.campaign import (CampaignConfig, census_from_records, compute_recall,
                               report, run_campaign, save_records)
from sdcprobe.data import Dataset, load_idx, synth_blobs, train_test_split
from sdcprobe.fat import FatConfig, fat_train, measure_latency_to_critical
from sdcprobe.fault_model import SamplerConfig, build_sampler, enumerate_sites
from sdcprobe.injector import evaluate_with_fault
from sdcprobe.nnet import (ActivationFault, Conv2d, Flatten, Linear, Model, Relu,
                           build_cnn, build_mlp, evaluate, model_checksum, train)
from sdcprobe.nnet.autodiff import (ComputationGraph, picked_logit_sum,
                                    softmax_cross_entropy)
from sdcprobe.nnet.training import predict

FLT_MAX = np.float32(3.4028235e38)


def _edge_patterns():
    # +-0, min/max subnormal, FLT_MAX, one ulp either side of 1.0
    base = [0x00000000, 0x00000001, 0x007FFFFF, 0x7F7FFFFF, 0x3F800001, 0x3F7FFFFF]
    return np.array(base + [p | 0x80000000 for p in base], dtype=np.uint32)


def _dominant_weight_setup():
    """Two-output linear model where exactly two weights decide the class.

    Feature 1 always exceeds feature 0, so class 1 wins cleanly; w[1,1] and
    w[0,0] are the only high-impact fault targets, which gives attribution
    a strong, known signal to find.
    """
    w = np.zeros((2, 6), dtype=np.float32)
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    model = Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                  input_shape=(1, 1, 6))
    rng = np.random.default_rng(3)
    n = 32
    images = np.zeros((n, 1, 1, 6), dtype=np.float32)
    images[:, 0, 0, 0] = rng.uniform(0.1, 0.5, n)
    images[:, 0, 0, 1] = rng.uniform(1.0, 2.0, n)
    images[:, 0, 0, 2:] = rng.uniform(0.0, 0.02, (n, 4))
    dataset = Dataset(images, np.ones(n, dtype=np.int64), split="test")
    return model, dataset


@pytest.fixture(scope="module")
def trained_cnn_campaigns():
    """Trained toy CNN plus 5-seed, 500-sample weight campaigns for the
    attribution-guided code and the uniform-random control."""
    t0 = time.perf_counter()
    data = synth_blobs(classes=3, samples_per_class=60, dims=36, spread=0.35,
                       seed=5, image_shape=(1, 6, 6), center_scale=0.5)
    train_set, test_set = train_test_split(data, test_fraction=0.25)
    model = build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=1)
    train(model, train_set, eval_set=test_set, epochs=12, batch_size=16,
          lr=0.01, optimizer="adam", seed=3)
    assert evaluate(model, test_set) >= 0.9
    amap = attribute_all(model, test_set, AttributionConfig("neuron_weight"))
    common = dict(thresholds=(0.0, 0.05, 0.1), sample_budget=500,
                  seeds=(11, 23, 37, 47, 59), workers=4)
    res_g = run_campaign(model, test_set, CampaignConfig(code="GBINw", **common), amap)
    res_r = run_campaign(model, test_set, CampaignConfig(code="RBRNw", **common))
    summary = report(res_g.records + res_r.records, (0.0, 0.05, 0.1),
                     series_threshold=0.05)
    return summary, time.perf_counter() - t0


class TestBitCodecGate:
    def test_01_roundtrip_bit_exact(self):
        """decode(encode(v)) returns every finite float32 bit-for-bit: 1e5
        seeded draws plus the curated edge set, under one second."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        raw = rng.integers(0, 2**32, size=110_000, dtype=np.uint32).view(np.float32)
        vals = raw[np.isfinite(raw)][:100_000]
        assert vals.size == 100_000
        vals = np.concatenate([vals, _edge_patterns().view(np.float32)])
        back, flag_nan, flag_inf = bitfloat.decode_many(bitfloat.encode_many(vals))
        assert not flag_nan.any() and not flag_inf.any()
        assert np.array_equal(back.view(np.uint32), vals.view(np.uint32))
        assert time.perf_counter() - t0 < 1.0

    def test_02_bit_gradients_match_finite_differences(self):
        """Analytic bit gradients agree with central differences of the
        relaxed decode (step 1e-4) within 1e-3 relative on 1e4 seeded
        finite values, inside ten seconds."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        raw = rng.integers(0, 2**32, size=12_000, dtype=np.uint32).view(np.float32)
        vals = raw[np.isfinite(raw)][:10_000]
        assert vals.size == 10_000
        soft_bits = bitfloat.encode_many(vals).astype(np.float64)
        grads = bitfloat.bit_gradients_many(vals)
        eps = 1e-4
        worst = 0.0
        for j in range(32):
            hi = soft_bits.copy()
            hi[:, j] += eps
            lo = soft_bits.copy()
            lo[:, j] -= eps
            fd = (bitfloat.decode_relaxed_many(hi)
                  - bitfloat.decode_relaxed_many(lo)) / (2 * eps)
            denom = np.maximum(np.abs(grads[:, j]), np.abs(fd))
            live = denom > 0
            worst = max(worst, float(np.max(
                np.abs(grads[live, j] - fd[live]) / denom[live])))
        assert worst <= 1e-3
        assert time.perf_counter() - t0 < 10.0

    def test_03_special_exponent_flags_and_surrogate(self):
        """Every all-ones-exponent pattern decodes to a flag plus a finite
        surrogate, and the infinity surrogate is exactly FLT_MAX/33 with
        the sign kept: exhaustive over sign x (inf, 64 NaN mantissas)."""
        surrogate = float(FLT_MAX / np.float32(33.0))
        mantissas = np.random.default_rng(303).integers(1, 2**23, size=64,
                                                        dtype=np.uint32)
        for sign in (0, 1):
            inf_bits = np.uint32((sign << 31) | (0xFF << 23))
            r = bitfloat.decode(bitfloat.encode(bitfloat.pattern_to_float(inf_bits)))
            assert r.flag_inf and not r.flag_nan
            assert np.isfinite(r.value)
            assert abs(float(r.value)) == surrogate
            assert (float(r.value) < 0) == bool(sign)
            for m in mantissas:
                nan_bits = np.uint32((sign << 31) | (0xFF << 23) | int(m))
                r = bitfloat.decode(bitfloat.encode(bitfloat.pattern_to_float(nan_bits)))
                assert r.flag_nan and not r.flag_inf
                assert np.isfinite(r.value)


class TestGradientGate:
    def test_04_layer_ops_match_finite_differences(self):
        """Linear, convolution, relu, flatten, logit pick, column patch,
        and the softmax loss each pass 100 seeded gradient-vs-finite-
        difference instances at 1e-3 relative, within thirty seconds.
        Gradients come from the production layer backward, graph backward
        and loss functions."""
        t0 = time.perf_counter()
        f32 = np.float32

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-6)

        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            x64 = rng.normal(size=(3, 5))
            w64 = rng.normal(size=(4, 5))
            b64 = rng.normal(size=4)
            r = rng.normal(size=(3, 4))
            layer = Linear(w64, b64)
            x = x64.astype(f32)
            _, cache = layer.forward(x)
            gx, (gw, gb) = layer.backward(r.astype(f32), cache, True)
            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))
            ref = lambda: float(((x64 @ w64.T + b64) * r).sum())
            for got, want in zip([gx, gw, gb], fd_grads(ref, [x64, w64, b64])):
                close(got, want)

        for s in range(100):
            rng = np.random.default_rng(2000 + s)
            x64 = rng.normal(size=(2, 2, 5, 5))
            w64 = rng.normal(size=(3, 2, 3, 3))
            b64 = rng.normal(size=3)
            r = rng.normal(size=(2, 3, 3, 3))
            layer = Conv2d(w64, b64)
            x = x64.astype(f32)
            _, cache = layer.forward(x)
            gx, (gw, gb) = layer.backward(r.astype(f32), cache, True)
            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))

            def conv_ref():
                n, _, h, wd = x64.shape
                o, _, kh, kw = w64.shape
                oh, ow = h - kh + 1, wd - kw + 1
                out = np.zeros((n, o, oh, ow))
                for i in range(kh):
                    for j in range(kw):
                        out += np.einsum("nchw,oc->nohw",
                                         x64[:, :, i:i + oh, j:j + ow],
                                         w64[:, :, i, j])
                out += b64[None, :, None, None]
                return float((out * r).sum())

            for got, want in zip([gx, gw, gb], fd_grads(conv_ref, [x64, w64, b64])):
                close(got, want)

        for s in range(100):
            rng = np.random.default_rng(3000 + s)
            # keep inputs away from the kink so FD stays one-sided
            x64 = rng.choice([-1.0, 1.0], size=(4, 6)) * rng.uniform(0.1, 2.0, size=(4, 6))
            r = rng.normal(size=(4, 6))
            x = x64.astype(f32)
            _, cache = Relu().forward(x)
            gx, _ = Relu().backward(r.astype(f32), cache, True)
            x64 = x.astype(np.float64)
            close(gx, fd_grads(lambda: float((np.maximum(x64, 0) * r).sum()),
                               [x64])[0])

        for s in range(100):
            rng = np.random.default_rng(7000 + s)
            x64 = rng.normal(size=(2, 3, 2, 2))
            r = rng.normal(size=(2, 12))
            x = x64.astype(f32)
            _, cache = Flatten().forward(x)
            gx, _ = Flatten().backward(r.astype(f32), cache, True)
            x64 = x.astype(np.float64)
            close(gx, fd_grads(lambda: float((x64.reshape(2, 12) * r).sum()),
                               [x64])[0])

        for s in range(100):
            rng = np.random.default_rng(4000 + s)
            x64 = rng.normal(size=(5, 4))
            idx = rng.integers(0, 4, size=5)
            x = x64.astype(f32)
            _, gx = picked_logit_sum(x, idx)
            x64 = x.astype(np.float64)
            close(gx, fd_grads(lambda: float(x64[np.arange(5), idx].sum()),
                               [x64])[0])

        for s in range(100):
            # an output fault overwrites one column of a linear layer's
            # output; the overwritten values are constants to backward
            rng = np.random.default_rng(6000 + s)
            x64 = rng.normal(size=(4, 5))
            w64 = rng.normal(size=(6, 5))
            b64 = rng.normal(size=6)
            col = int(rng.integers(0, 6))
            bit = int(rng.choice([*range(23), 31]))  # mantissa or sign: stays finite
            r = rng.normal(size=(4, 6))
            model = Model([Linear(w64, b64)], input_shape=(5,))
            x = x64.astype(f32)
            g = ComputationGraph()
            out, _ = model.forward_graph(g, x, [ActivationFault(0, col, bit)])
            g.backward(r.astype(f32))
            layer = model.layers[0]
            vals = out[:, col].astype(np.float64)
            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))

            def patch_ref():
                out = x64 @ w64.T + b64
                out[:, col] = vals
                return float((out * r).sum())

            for got, want in zip([layer.weight.grad, layer.bias.grad],
                                 fd_grads(patch_ref, [w64, b64])):
                close(got, want)

        for s in range(100):
            rng = np.random.default_rng(5000 + s)
            z64 = rng.normal(size=(3, 4)) * 1.5
            labels = rng.integers(0, 4, size=3)
            z = z64.astype(f32)
            _, gz = softmax_cross_entropy(z, labels)
            z64 = z.astype(np.float64)

            def xent_ref():
                m = z64 - z64.max(axis=1, keepdims=True)
                lse = np.log(np.exp(m).sum(axis=1))
                return float((lse - m[np.arange(3), labels]).mean())

            close(gz, fd_grads(xent_ref, [z64])[0])

        assert time.perf_counter() - t0 < 30.0

    def test_05_conductance_completeness(self):
        """Per-layer conductance sums reproduce the prediction gap within
        2% relative at 64 steps on 20 seeded inputs of a three-layer MLP,
        inside sixty seconds."""
        t0 = time.perf_counter()
        model = build_mlp((1, 1, 8), [16, 12], 4, seed=21)
        rng = np.random.default_rng(55)
        images = (3.0 * rng.normal(0.0, 1.0, size=(20, 1, 1, 8))).astype(np.float32)
        baseline = make_baseline("zeros", model)
        classes, _ = predict(model, images)
        parts_by_layer = conductance_components(model, images, baseline, steps=64)
        picked = np.arange(20)
        fx = model.apply(images)[picked, classes]
        rep = np.broadcast_to(baseline.tensor[None], images.shape).copy()
        fb = model.apply(rep)[picked, classes]
        gap = fx - fb
        assert np.abs(gap).min() > 0
        for layer_id, parts in parts_by_layer.items():
            err = np.abs(parts.sum(axis=1) - gap)
            assert np.all(err <= 0.02 * np.abs(gap)), f"layer {layer_id}"
        assert time.perf_counter() - t0 < 60.0


class TestSamplerGate:
    def test_06_draw_frequencies_match_weights(self):
        """Chi-square p > 0.01 at 1e5 draws for all four bit schemes and
        both neuron stages on a fixed two-output model, and the linear
        scheme hits the 32:1 top-to-bottom bit ratio within 10%."""
        w = np.array([[0.5, -1.25, 2.0, 3.5], [0.125, 4.0, -0.75, 1.5]],
                     dtype=np.float32)
        model = Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 4))
        probe = np.ones((4, 1, 1, 4), dtype=np.float32)
        draws = 100_000

        for scheme in ("G", "E", "L", "R"):
            sampler = build_sampler(SamplerConfig(code=f"{scheme}BRNw", seed=17),
                                    None, model, probe_images=probe)
            bits = np.bincount([s.bit_index for s in sampler.sample(draws)],
                               minlength=32)
            if scheme == "G":
                # value-dependent weights: the expected bit law is the
                # uniform mixture over the 8 per-weight distributions
                per = bitfloat.bit_weights_many("gradient", w.reshape(-1))
                per = per / per.sum(axis=1, keepdims=True)
                probs = per.mean(axis=0)
            else:
                name = {"E": "exponential", "L": "linear", "R": "uniform"}[scheme]
                probs = bitfloat.bit_weights(name)
                probs = probs / probs.sum()
            assert chi2_pvalue(bits, probs) > 0.01, f"bit scheme {scheme}"
            if scheme == "L":
                ratio = bits[31] / bits[0]
                assert 32.0 * 0.9 <= ratio <= 32.0 * 1.1

        scores = np.array([1.0, 3.0, 0.5, 2.5, 4.0, 0.25, 1.75, 5.0],
                          dtype=np.float32)
        amap = AttributionMap(target_kind="neuron_weight", scores={1: scores},
                              model_checksum=model_checksum(model), seed=0,
                              steps=0, sample_count=4, baseline_kind="")
        for stage, attributions, probs in (
                ("I", amap, scores / scores.sum()),
                ("R", None, np.full(8, 1 / 8))):
            sampler = build_sampler(SamplerConfig(code=f"RB{stage}Nw", seed=31),
                                    attributions, model, probe_images=probe)
            elems = np.bincount([s.element_index for s in sampler.sample(draws)],
                                minlength=8)
            assert chi2_pvalue(elems, probs) > 0.01, f"neuron stage {stage}"


class TestCampaignGate:
    def test_07_worker_count_determinism(self, tmp_path):
        """Records and their CSV bytes agree across 1, 2, and 8 workers
        once rows are in ordinal order; the per-record timing column is
        measured rather than derived, so it is pinned to zero before the
        byte comparison."""
        model, dataset = _dominant_weight_setup()
        amap = attribute_all(model, dataset, AttributionConfig("neuron_weight"))
        thresholds = (0.0, 0.05, 0.1)
        runs = []
        for workers in (1, 2, 8):
            result = run_campaign(model, dataset,
                                  CampaignConfig(code="GBINw", thresholds=thresholds,
                                                 sample_budget=300, seeds=(7, 13),
                                                 workers=workers), amap)
            canon = [dataclasses.replace(r, wallclock_ns=0) for r in result.records]
            path = tmp_path / f"records_w{workers}.csv"
            save_records(canon, thresholds, path)
            runs.append((canon, path.read_bytes()))
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert runs[0][1] == runs[1][1] == runs[2][1]
        ordered = sorted(runs[0][0], key=lambda r: r.sort_key())
        assert [r.sample_ordinal for r in ordered if r.seed == 7] == list(range(300))

    def test_08_exhaustive_census_recall(self):
        """On a micro-model with at most 2048 fault sites, a site-by-site
        sweep (no campaign code involved) fixes the census; the exhaustive
        campaign reproduces its membership with recall 1.0, and a partial
        campaign reports recall equal to its distinct-hit ratio.  Five
        minutes tops."""
        t0 = time.perf_counter()
        ds = synth_blobs(3, 40, dims=6, spread=0.25, seed=9, center_scale=0.6)
        train_set, test_set = train_test_split(ds, test_fraction=0.25)
        model = build_mlp((1, 1, 6), [], 3, seed=2)
        train(model, train_set, epochs=6, batch_size=8, lr=0.05,
              optimizer="adam", seed=3)
        base = evaluate(model, test_set)
        assert base == 1.0  # keeps every drop nonnegative, so census at 0.0 is total

        thresholds = (0.0, 0.05, 0.1)
        sites = enumerate_sites(model, "neuron_weight")
        assert len(sites) <= 2048
        census = {t: set() for t in thresholds}
        for site in sites:
            acc, _ = evaluate_with_fault(model, test_set, site)
            for t in thresholds:
                if base - acc >= t:
                    census[t].add(site)
        assert census[0.0] == set(sites)
        assert len(census[0.05]) > 0

        full = run_campaign(model, test_set,
                            CampaignConfig(code="RBRNw", thresholds=thresholds,
                                           seeds=(11,), exhaustive=True))
        hits = census_from_records(full.records, thresholds)
        assert all(hits[t] == census[t] for t in thresholds)
        assert compute_recall(full.records, thresholds, census) == [1.0, 1.0, 1.0]

        partial = run_campaign(model, test_set,
                               CampaignConfig(code="RBRNw", thresholds=thresholds,
                                              seeds=(11,), sample_budget=200))
        got = compute_recall(partial.records, thresholds, census)
        distinct = census_from_records(partial.records, thresholds)
        assert got == [len(distinct[t]) / len(census[t]) for t in thresholds]
        assert time.perf_counter() - t0 < 300.0

    def test_09_guided_beats_uniform_precision(self, trained_cnn_campaigns):
        """Attribution-guided weight sampling reaches at least 3x the mean
        precision@0.05 of uniform-random sampling over 5 seeds x 500
        samples, on both the constructed dominant-weight model and the
        trained toy CNN, within ten minutes."""
        t0 = time.perf_counter()
        model, dataset = _dominant_weight_setup()
        amap = attribute_all(model, dataset, AttributionConfig("neuron_weight"))
        common = dict(thresholds=(0.0, 0.05), sample_budget=500,
                      seeds=(11, 23, 37, 47, 59), workers=4)
        res_g = run_campaign(model, dataset,
                             CampaignConfig(code="GBINw", **common), amap)
        res_r = run_campaign(model, dataset, CampaignConfig(code="RBRNw", **common))
        summary = report(res_g.records + res_r.records, (0.0, 0.05),
                         series_threshold=0.05)
        mean_at = {row[0]: row[2] for row in summary.rows if row[1] == 0.05}
        assert mean_at["GBINw"] >= 3 * mean_at["RBRNw"]

        cnn_summary, cnn_secs = trained_cnn_campaigns
        cnn_at = {row[0]: row[2] for row in cnn_summary.rows if row[1] == 0.05}
        assert cnn_at["GBINw"] >= 3 * cnn_at["RBRNw"]
        assert (time.perf_counter() - t0) + cnn_secs < 600.0

    def test_10_running_precision_settles_early(self, trained_cnn_campaigns):
        """The guided code's 5-seed mean running precision at sample 50 sits
        within 0.1 of its value at sample 500 on the trained toy CNN."""
        summary, _ = trained_cnn_campaigns
        series = summary.series["GBINw"]
        assert len(series) >= 500
        assert abs(float(series[49]) - float(series[499])) <= 0.1


class TestTrainingGate:
    def test_11_hardened_model_resists_trained_faults(self):
        """Hardening against five attribution-guided output faults keeps
        clean accuracy within 0.03 of baseline and faulted accuracy within
        0.02 of post-hardening clean accuracy, while a random-hardened
        control loses at least twice as much under the guided faults.
        Fifteen minutes tops."""
        t0 = time.perf_counter()
        ds = synth_blobs(3, 200, dims=12, spread=0.15, seed=5, center_scale=0.3)
        train_set, test_set = train_test_split(ds, test_fraction=0.25)
        common = dict(warmup_epochs=3, fat_epochs=60, faults_per_round=5,
                      simulations_per_epoch=0, lr=0.01, batch_size=1,
                      optimizer="adam", seed=4)
        _, main = fat_train(build_mlp((1, 1, 12), [16], 3, seed=4),
                            train_set, test_set,
                            FatConfig(code="GBINo", adversary_code="RBRNo", **common))
        _, ctrl = fat_train(build_mlp((1, 1, 12), [16], 3, seed=4),
                            train_set, test_set,
                            FatConfig(code="RBRNo", adversary_code="GBINo", **common))
        assert abs(main.post_fat_accuracy - main.baseline_accuracy) <= 0.03
        assert abs(main.accuracy_under_trained_faults - main.post_fat_accuracy) <= 0.02
        main_drop = max(0.0, main.post_fat_accuracy - main.accuracy_under_trained_faults)
        ctrl_drop = max(0.0, ctrl.post_fat_accuracy - ctrl.accuracy_under_adversary_faults)
        assert ctrl_drop > 0
        assert ctrl_drop >= 2 * main_drop
        assert time.perf_counter() - t0 < 900.0

    def test_12_guided_faults_reach_critical_sooner(self):
        """Median evaluations to three consecutive critical faults at drop
        threshold 0.05 is at most half as large for the guided output code
        as for the uniform-random one, across 5 seeds, none censored."""
        model, dataset = _dominant_weight_setup()
        medians = {}
        for code in ("GBINo", "RBRNo"):
            evals = []
            for seed in (11, 23, 37, 47, 59):
                r = measure_latency_to_critical(model, dataset, code, 0.05, 3,
                                                seed=seed)
                assert not r.censored, (code, seed)
                evals.append(r.evaluations_needed)
            medians[code] = float(np.median(evals))
        assert medians["GBINo"] <= 0.5 * medians["RBRNo"]


class TestDataGate:
    def test_13_idx_ingestion_and_magic_rejection(self, tmp_path):
        """An idx pair in the FashionMNIST test-set layout (10000 x 28 x 28)
        loads as [10000, 1, 28, 28] float32 in [0, 1]; corrupting the magic
        number makes the command line exit with code 3."""
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=(10000, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10000, dtype=np.uint8)
        images_path = tmp_path / "t10k-images-idx3-ubyte"
        labels_path = tmp_path / "t10k-labels-idx1-ubyte"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 10000, 28, 28)
                                + pixels.tobytes())
        labels_path.write_bytes(struct.pack(">II", 0x801, 10000) + labels.tobytes())
        ds = load_idx(images_path, labels_path)
        assert ds.images.shape == (10000, 1, 28, 28)
        assert ds.images.dtype == np.float32
        assert float(ds.images.min()) >= 0.0 and float(ds.images.max()) <= 1.0
        assert ds.labels.shape == (10000,)

        bad_path = tmp_path / "bad-images-idx3-ubyte"
        bad_path.write_bytes(struct.pack(">IIII", 0xDEAD, 10000, 28, 28)
                             + pixels.tobytes())
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": {"kind": "idx", "train_images": str(bad_path),
                        "train_labels": str(labels_path)},
            "train": {"epochs": 1},
        }))
        proc = subprocess.run([sys.executable, "-m", "sdcprobe.cli", "train",
                               "--config", str(config_path),
                               "--out", str(tmp_path / "model.npz")],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: data:")
