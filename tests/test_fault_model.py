"""Sampler tests: code grammar, alias fidelity, stream determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sdcprobe import bitfloat, fault_model
from sdcprobe.attribution import AttributionMap
from sdcprobe.errors import ConfigError, DataFormatError, UsageError
from sdcprobe.fault_model import (FaultSite, SamplerConfig, all_codes, build_alias_table,
                                  build_sampler, enumerate_sites, load_fault_csv,
                                  parse_code, save_fault_csv)
from sdcprobe.nnet import Flatten, Linear, Model, build_mlp, model_checksum


def tiny_weight_model(values):
    """Flatten + one linear layer whose weight holds the given values."""
    w = np.asarray(values, dtype=np.float32)
    return Model([Flatten(), Linear(w, np.zeros(w.shape[0], dtype=np.float32))],
                 input_shape=(1, 1, w.shape[1]))


def attribution_for(model, target_kind, scores):
    return AttributionMap(target_kind=target_kind,
                          scores={lid: np.asarray(s, dtype=np.float32)
                                  for lid, s in scores.items()},
                          model_checksum=model_checksum(model))


def chi2_pvalue(counts, probs, min_expected=5.0):
    """Goodness-of-fit p-value with low-expectation bins pooled.

    chi-squared needs every expected count above ~5; schemes like the
    exponential one put astronomically little mass on low bits, so those
    bins are merged before testing.
    """
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    probs = probs / probs.sum()
    expected = probs * counts.sum()
    order = np.argsort(expected)
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for i in order:
        acc_c += counts[i]
        acc_e += expected[i]
        if acc_e >= min_expected:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        if merged_e:
            merged_c[-1] += acc_c
            merged_e[-1] += acc_e
        else:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
    if len(merged_e) < 2:
        return 1.0
    merged_e = np.asarray(merged_e)
    merged_e *= np.asarray(merged_c).sum() / merged_e.sum()
    return stats.chisquare(merged_c, f_exp=merged_e).pvalue


class TestCodeGrammar:
    def test_all_sixteen_codes_round_trip(self):
        """parse(str(code)) is the identity on the full code set."""
        codes = all_codes()
        assert len(codes) == 16
        for c in codes:
            assert parse_code(str(c)) == c

    def test_gbino_fields(self):
        c = parse_code("GBINo")
        assert c.bit_scheme == "G"
        assert c.neuron_scheme == "I"
        assert c.target == "o"
        assert c.bit_scheme_name == "gradient"
        assert c.target_kind == "neuron_output"
        assert c.needs_attributions

    @pytest.mark.parametrize("bad", ["XBINo", "gbino", "GBIN", "GBINx", "GBRNoo",
                                     "GBQNo", "G-IN-o", "", "GBINO"])
    def test_malformed_codes_rejected_with_grammar(self, bad):
        """Errors spell out the three-field grammar."""
        with pytest.raises(ConfigError, match="grammar"):
            parse_code(bad)

    def test_site_validation(self):
        with pytest.raises(UsageError):
            FaultSite(0, "weights", 0, 0)
        with pytest.raises(UsageError):
            FaultSite(0, "neuron_output", 0, 32)

    def test_uniform_mix_range(self):
        with pytest.raises(ConfigError):
            SamplerConfig(code="RBRNo", uniform_mix=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SamplerConfig(code="RBRNo", seed=-1)


class TestAliasTable:
    def test_matches_categorical_frequencies(self):
        """[1, 3] weights draw the second bucket three times as often."""
        prob, alias = build_alias_table(np.array([1.0, 3.0]))
        rng = np.random.default_rng(11)
        draws = np.array([fault_model.alias_draw(prob, alias, u[0], u[1])
                          for u in rng.random((100_000, 2))])
        counts = np.bincount(draws, minlength=2)
        assert chi2_pvalue(counts, [0.25, 0.75]) > 0.01

    def test_single_bucket(self):
        prob, alias = build_alias_table(np.array([2.0]))
        assert fault_model.alias_draw(prob, alias, 0.99, 0.99) == 0

    def test_rejects_bad_weights(self):
        for bad in ([], [0.0, 0.0], [1.0, -1.0], [np.inf, 1.0]):
            with pytest.raises(UsageError):
                build_alias_table(np.array(bad, dtype=np.float64))


class TestNeuronStage:
    def test_importance_weights_respected(self):
        """Attribution scores [1, 3] give the pooled elements 1:3 draw odds."""
        model = tiny_weight_model([[1.0, 2.0]])
        attr = attribution_for(model, "neuron_weight", {1: [1.0, 3.0]})
        sampler = build_sampler(SamplerConfig(code="RBINw", seed=5), attr, model)
        sites = sampler.sample(20_000)
        counts = np.bincount([s.element_index for s in sites], minlength=2)
        assert chi2_pvalue(counts, [0.25, 0.75]) > 0.01

    def test_pool_spans_layers_jointly(self):
        """Importance mass concentrated in the second layer dominates draws
        even though the first layer has more elements."""
        w1 = np.zeros((3, 4), dtype=np.float32)
        w2 = np.zeros((2, 3), dtype=np.float32)
        model = Model([Flatten(),
                       Linear(w1, np.zeros(3, dtype=np.float32)),
                       Linear(w2, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 4))
        attr = attribution_for(model, "neuron_weight",
                               {1: np.full(12, 0.01), 2: np.full(6, 10.0)})
        sampler = build_sampler(SamplerConfig(code="RBINw", seed=2), attr, model)
        sites = sampler.sample(4000)
        frac_second = np.mean([s.layer_id == 2 for s in sites])
        # expected 60/60.12 ~ 0.998
        assert frac_second > 0.98

    def test_dominant_element_hit_rate(self):
        """An element holding 99% of the mass is drawn at least 95% of the
        time across 1e3 draws."""
        model = tiny_weight_model([[0.5, -0.25, 1.5, 2.0]])
        attr = attribution_for(model, "neuron_weight", {1: [0.001, 0.001, 0.001, 0.297]})
        sampler = build_sampler(SamplerConfig(code="GBINw", seed=3), attr, model)
        sites = sampler.sample(1000)
        hits = sum(s.element_index == 3 for s in sites)
        assert hits >= 950

    def test_uniform_scheme_ignores_attributions(self):
        model = tiny_weight_model([[1.0, 2.0, 3.0]])
        sampler = build_sampler(SamplerConfig(code="RBRNw", seed=9), None, model)
        sites = sampler.sample(30_000)
        counts = np.bincount([s.element_index for s in sites], minlength=3)
        assert chi2_pvalue(counts, np.full(3, 1 / 3)) > 0.01

    def test_all_zero_scores_fall_back_to_uniform(self, caplog):
        model = tiny_weight_model([[1.0, 2.0]])
        attr = attribution_for(model, "neuron_weight", {1: [0.0, 0.0]})
        with caplog.at_level("WARNING"):
            sampler = build_sampler(SamplerConfig(code="RBINw", seed=1), attr, model)
        assert "uniform" in caplog.text
        counts = np.bincount([s.element_index for s in sampler.sample(10_000)],
                             minlength=2)
        assert chi2_pvalue(counts, [0.5, 0.5]) > 0.01

    def test_importance_without_attributions_rejected(self):
        model = tiny_weight_model([[1.0, 2.0]])
        with pytest.raises(ConfigError, match="requires attributions"):
            build_sampler(SamplerConfig(code="GBINw"), None, model)

    def test_target_kind_mismatch_rejected(self):
        model = tiny_weight_model([[1.0, 2.0]])
        attr = attribution_for(model, "neuron_output", {0: [1.0, 1.0], 1: [1.0]})
        with pytest.raises(ConfigError, match="target"):
            build_sampler(SamplerConfig(code="RBINw"), attr, model)

    def test_checksum_mismatch_rejected(self):
        model = tiny_weight_model([[1.0, 2.0]])
        attr = AttributionMap(target_kind="neuron_weight",
                              scores={1: np.array([1.0, 1.0], dtype=np.float32)},
                              model_checksum="not-this-model")
        with pytest.raises(ConfigError, match="checksum"):
            build_sampler(SamplerConfig(code="RBINw"), attr, model)


class TestBitStage:
    def draw_bits(self, code, draws, seed=0, values=(0.5, -0.25, 1.5, 2.0)):
        model = tiny_weight_model([list(values)])
        sampler = build_sampler(SamplerConfig(code=code, seed=seed), None, model)
        sites = sampler.sample(draws)
        return np.bincount([s.bit_index for s in sites], minlength=32)

    def test_uniform_bits(self):
        counts = self.draw_bits("RBRNw", 100_000, seed=21)
        assert chi2_pvalue(counts, np.full(32, 1 / 32)) > 0.01

    def test_exponential_bits(self):
        counts = self.draw_bits("EBRNw", 100_000, seed=22)
        probs = 2.0 ** np.arange(32)
        assert chi2_pvalue(counts, probs / probs.sum()) > 0.01
        # sign bit lands about twice as often as the top exponent bit
        ratio = counts[31] / counts[30]
        assert 1.8 < ratio < 2.2

    def test_linear_bits(self):
        counts = self.draw_bits("LBRNw", 100_000, seed=23)
        probs = np.arange(1, 33, dtype=np.float64)
        assert chi2_pvalue(counts, probs / probs.sum()) > 0.01

    def test_linear_top_to_bottom_ratio(self):
        """Bit 31 is weighted 32x bit 0; the empirical ratio at 1e5 draws
        lands within 10%."""
        counts = self.draw_bits("LBRNw", 100_000, seed=40)
        assert counts[0] > 0
        ratio = counts[31] / counts[0]
        assert abs(ratio - 32.0) / 32.0 < 0.10

    def test_gradient_bits_follow_value_mixture(self):
        """With a uniform neuron stage the bit histogram matches the average
        of each element's gradient-magnitude distribution."""
        values = (0.5, -0.25, 1.5, 2.0)
        counts = self.draw_bits("GBRNw", 100_000, seed=24, values=values)
        per_elem = bitfloat.bit_weights_many("gradient", np.array(values, dtype=np.float32))
        per_elem = per_elem / per_elem.sum(axis=1, keepdims=True)
        mixture = per_elem.mean(axis=0)
        assert chi2_pvalue(counts, mixture) > 0.01

    def test_gradient_on_outputs_uses_probe_activations(self):
        """The per-element bit CDFs come from mean clean activations on the
        probe batch."""
        w = np.eye(2, dtype=np.float32)
        model = Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 2))
        probe = np.array([[[[1.0, 2.0]]], [[[3.0, 4.0]]]], dtype=np.float32)
        sampler = build_sampler(SamplerConfig(code="GBRNo", seed=0), None, model,
                                probe_images=probe)
        # pool holds only the linear outputs (flatten aliases the raw input);
        # identity weights make their probe means (2, 3)
        for g, v in enumerate([2.0, 3.0]):
            w32 = bitfloat.bit_weights("gradient", np.float32(v))
            cdf = np.cumsum(w32) / w32.sum()
            np.testing.assert_allclose(sampler._bit_cdf[g], cdf, rtol=1e-12)

    def test_gradient_on_outputs_needs_probe(self):
        model = tiny_weight_model([[1.0, 2.0]])
        with pytest.raises(ConfigError, match="probe"):
            build_sampler(SamplerConfig(code="GBRNo"), None, model)


class TestStreamDeterminism:
    def make(self, seed=7, mix=0.0):
        model = tiny_weight_model([[0.5, -0.25, 1.5, 2.0]])
        return build_sampler(SamplerConfig(code="GBRNw", seed=seed, uniform_mix=mix),
                             None, model)

    def test_batching_invariant(self):
        """One request for 10 sites equals any split of the same ordinals."""
        s = self.make()
        whole = s.sample(10)
        split = s.sample(4) + s.sample(6, start_ordinal=4)
        assert whole == split
        assert whole == [s.sample_at(k) for k in range(10)]

    def test_two_samplers_same_seed_agree(self):
        assert self.make(seed=13).sample(50) == self.make(seed=13).sample(50)

    def test_different_seeds_differ(self):
        assert self.make(seed=1).sample(50) != self.make(seed=2).sample(50)

    def test_interleaved_workers_cover_the_same_stream(self):
        """Ordinals handed to alternating consumers reproduce the serial
        sequence."""
        s = self.make(seed=3, mix=0.2)
        serial = s.sample(40)
        worker_a = [s.sample_at(k) for k in range(0, 40, 2)]
        worker_b = [s.sample_at(k) for k in range(1, 40, 2)]
        merged = [None] * 40
        merged[0::2], merged[1::2] = worker_a, worker_b
        assert merged == serial

    def test_sample_rejects_nonpositive_counts(self):
        with pytest.raises(UsageError):
            self.make().sample(0)

    def test_negative_ordinal_rejected(self):
        """An ordinal below 0 owns no stream: UsageError, not numpy's
        OverflowError from the uint64 entropy words."""
        s = self.make()
        with pytest.raises(UsageError, match="start_ordinal >= 0"):
            s.sample_at(-1)
        with pytest.raises(UsageError, match="start_ordinal >= 0"):
            s.sample(3, -2)


class TestScaleInvariance:
    def build_with_scores(self, scores):
        model = tiny_weight_model([[0.5, -0.25, 1.5, 2.0]])
        attr = attribution_for(model, "neuron_weight", {1: scores})
        return build_sampler(SamplerConfig(code="GBINw", seed=17), attr, model)

    def test_power_of_two_scaling_is_bit_identical(self):
        base = self.build_with_scores([1.0, 2.0, 3.0, 4.0]).sample(500)
        scaled = self.build_with_scores([4.0, 8.0, 12.0, 16.0]).sample(500)
        assert base == scaled

    def test_arbitrary_positive_scaling_is_bit_identical(self):
        # non-dyadic factor; normalization keeps the alias table identical
        base = self.build_with_scores([1.0, 2.0, 3.0, 4.0]).sample(500)
        scaled = self.build_with_scores([3.7, 7.4, 11.1, 14.8]).sample(500)
        assert base == scaled


class TestUniformMix:
    def test_mix_one_is_uniform_over_sites(self):
        """rho = 1 bypasses both stages: the joint (element, bit) histogram
        is uniform."""
        model = tiny_weight_model([[0.5, -0.25, 1.5, 2.0]])
        attr = attribution_for(model, "neuron_weight", {1: [100.0, 1.0, 1.0, 1.0]})
        sampler = build_sampler(SamplerConfig(code="GBINw", seed=6, uniform_mix=1.0),
                                attr, model)
        sites = sampler.sample(50_000)
        joint = np.zeros(4 * 32)
        for s in sites:
            joint[s.element_index * 32 + s.bit_index] += 1
        assert chi2_pvalue(joint, np.full(128, 1 / 128)) > 0.01

    def test_positive_mix_reaches_every_site(self):
        """With rho > 0 and importance mass pinned on one element, every
        (element, bit) pair still shows up."""
        model = tiny_weight_model([[0.5, -0.25]])
        attr = attribution_for(model, "neuron_weight", {1: [1e6, 1e-6]})
        sampler = build_sampler(SamplerConfig(code="EBINw", seed=8, uniform_mix=0.3),
                                attr, model)
        seen = {(s.element_index, s.bit_index) for s in sampler.sample(10_000)}
        assert len(seen) == 2 * 32

    def test_zero_mix_never_leaves_the_weighted_stages(self):
        model = tiny_weight_model([[0.5, -0.25]])
        attr = attribution_for(model, "neuron_weight", {1: [1.0, 0.0]})
        sampler = build_sampler(SamplerConfig(code="RBINw", seed=4, uniform_mix=0.0),
                                attr, model)
        assert all(s.element_index == 0 for s in sampler.sample(2000))


class TestSiteEnumeration:
    def test_counts_and_order(self):
        model = tiny_weight_model([[1.0, 2.0, 3.0]])
        sites = enumerate_sites(model, "neuron_weight")
        assert len(sites) == 3 * 32
        assert sites[0] == FaultSite(1, "neuron_weight", 0, 0)
        assert sites[-1] == FaultSite(1, "neuron_weight", 2, 31)
        outputs = enumerate_sites(model, "neuron_output")
        # the flatten stage aliases its input, so only the linear head counts
        assert len(outputs) == 1 * 32
        assert all(s.layer_id == 1 for s in outputs)

    def test_search_space_size_matches(self):
        model = tiny_weight_model([[1.0, 2.0, 3.0]])
        sampler = build_sampler(SamplerConfig(code="RBRNw"), None, model)
        assert sampler.n_elements * 32 == len(enumerate_sites(model, "neuron_weight"))


class TestFaultCsv:
    def test_round_trip(self, tmp_path):
        sites = [FaultSite(1, "neuron_weight", 5, 30),
                 FaultSite(0, "neuron_output", 0, 0)]
        path = tmp_path / "faults.csv"
        save_fault_csv(sites, path)
        assert load_fault_csv(path) == sites
        header = path.read_text().splitlines()[0]
        assert header == "layer_id,target_kind,element_index,bit_index"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "faults.csv"
        path.write_text("layer,kind,elem,bit\n0,neuron_weight,0,0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_fault_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "faults.csv"
        path.write_text("layer_id,target_kind,element_index,bit_index\n0,neuron_weight,xx,0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_fault_csv(path)

    def test_bad_bit_rejected(self, tmp_path):
        path = tmp_path / "faults.csv"
        path.write_text("layer_id,target_kind,element_index,bit_index\n0,neuron_weight,0,55\n")
        with pytest.raises(DataFormatError):
            load_fault_csv(path)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        """Bytes that are not UTF-8 raise DataFormatError, as load_records
        does, not UnicodeDecodeError."""
        path = tmp_path / "faults.csv"
        path.write_bytes(b"\xff\xfe,\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_fault_csv(path)


def numpy_uniforms(seed, ordinal):
    return np.random.default_rng(np.random.SeedSequence((seed, ordinal))).random(4)


def reference_sample_at(sampler, ordinal):
    """One draw the per-ordinal way: a numpy generator for (seed, ordinal),
    then the uniform-mix branch or the alias draw and the bit stage, then
    the layer lookup.  FaultSampler.sample must agree with it exactly."""
    u = numpy_uniforms(sampler.config.seed, ordinal)
    if u[0] < sampler.config.uniform_mix:
        g = min(int(u[1] * sampler.n_elements), sampler.n_elements - 1)
        bit = min(int(u[3] * 32), 31)
    else:
        prob, alias = sampler._alias_prob, sampler._alias_alias
        i = int(u[1] * prob.size)
        g = i if u[2] < prob[i] else int(alias[i])
        cdf = sampler._bit_cdf if sampler._bit_cdf.ndim == 1 else sampler._bit_cdf[g]
        bit = min(int(np.searchsorted(cdf, u[3], side="right")), 31)
    li = int(np.searchsorted(sampler.offsets, g, side="right")) - 1
    return FaultSite(sampler.layer_ids[li], sampler.code.target_kind,
                     int(g - sampler.offsets[li]), bit)


class TestReferenceStream:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           start=st.one_of(st.just(0), st.integers(0, 2**32 + 8),
                           st.integers(2**32 - 4, 2**32 + 4),
                           st.integers(2**32, 2**64 - 9)),
           n=st.integers(1, 8))
    def test_block_uniforms_are_numpys_bits(self, seed, start, n):
        """Row i is numpy's random(4) for SeedSequence((seed, start + i)),
        bit for bit, also across the 2**32 word boundary of the ordinal."""
        want = np.array([numpy_uniforms(seed, k) for k in range(start, start + n)])
        got = fault_model._stream_uniforms(seed, start, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 5,
                                      2**66 + 12345])
    @pytest.mark.parametrize("start", [0, 2**32 - 2, 2**64 - 2])
    def test_extra_entropy_words(self, seed, start):
        """Seeds and ordinals of 2**32 and more take extra entropy words; a
        67-bit seed plus a 3-word ordinal overflow the 4-word pool."""
        want = np.array([numpy_uniforms(seed, k) for k in range(start, start + 4)])
        assert fault_model._stream_uniforms(seed, start, 4).tobytes() == want.tobytes()


class TestBlockDrawMatchesReference:
    """sample(n, start) against the per-draw reference loop."""

    def sampler(self, code, mix, seed=21):
        model = build_mlp((1, 1, 4), [5], 3, seed=1)
        lids = model.weight_layer_ids()
        rng = np.random.default_rng(0)
        scores = {}
        for lid in lids:
            s = rng.uniform(0.0, 1.0, model.layers[lid].weight.data.size)
            s[::3] = 0.0  # zero-weight alias buckets
            scores[lid] = s
        attr = attribution_for(model, "neuron_weight", scores) if code[2] == "I" else None
        return build_sampler(SamplerConfig(code=code, seed=seed, uniform_mix=mix),
                             attr, model)

    @pytest.mark.parametrize("code", ["GBINw", "EBINw", "LBRNw", "GBRNw"])
    @pytest.mark.parametrize("mix", [0.0, 0.3, 1.0])
    def test_block_equals_reference(self, code, mix):
        s = self.sampler(code, mix)
        assert s._bit_cdf.ndim == (2 if code[0] == "G" else 1)
        want = [reference_sample_at(s, k) for k in range(300, 500)]
        assert s.sample(200, 300) == want
        assert [s.sample_at(k) for k in (300, 499)] == [want[0], want[-1]]

    def test_zero_weight_buckets_never_drawn(self):
        s = self.sampler("EBINw", 0.0)
        zero = {g for g in range(s.n_elements) if s.neuron_probs[g] == 0.0}
        drawn = {int(s.offsets[s.layer_ids.index(site.layer_id)]) + site.element_index
                 for site in s.sample(3000)}
        assert zero and not drawn & zero


class TestWithSeed:
    """A sampler moved to another seed by with_seed shares its tables and
    draws exactly what a fresh build for that seed draws."""

    model = build_mlp((1, 1, 4), [5], 3, seed=1)

    def build(self, code, mix, seed):
        attr = None
        if code[2] == "I":
            kind = fault_model.TARGET_CODES[code[4]]
            lids, counts = fault_model._element_pool(self.model, kind)
            rng = np.random.default_rng(7)
            attr = attribution_for(self.model, kind,
                                   {lid: rng.uniform(0.0, 1.0, count)
                                    for lid, count in zip(lids, counts)})
        return build_sampler(SamplerConfig(code=code, uniform_mix=mix, seed=seed),
                             attr, self.model)

    @settings(max_examples=60, deadline=None)
    @given(code=st.sampled_from(["GBINw", "RBRNo", "EBINo", "LBRNw"]),
           mix=st.sampled_from([0.0, 0.3]), built_seed=st.integers(0, 2**40),
           seed=st.integers(0, 2**40), n=st.integers(1, 40), start=st.integers(0, 2**34))
    def test_shared_tables_draw_what_a_fresh_build_draws(self, code, mix, built_seed,
                                                         seed, n, start):
        built = self.build(code, mix, built_seed)
        moved = built.with_seed(seed)
        assert moved.sample(n, start) == self.build(code, mix, seed).sample(n, start)
        assert moved._alias_prob is built._alias_prob and moved._bit_cdf is built._bit_cdf
        assert (built.config.seed, moved.config.seed) == (built_seed, seed)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            self.build("LBRNw", 0.0, 1).with_seed(-1)