"""Certified-harmless output faults against the full recompute.

PrefixCache.certify stores the baseline as the outcome of every output
fault it proves harmless.  Each certified site's full recompute
(evaluate_with_fault without a cache) must give exactly that baseline; the
constructed models below sit just past the bound and must not certify.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcprobe.campaign import CampaignConfig, run_campaign
from sdcprobe.data import Dataset, synth_blobs, train_test_split
from sdcprobe.fault_model import FaultSite, enumerate_sites, site_code
from sdcprobe import injector
from sdcprobe.injector import PrefixCache, evaluate_with_fault
from sdcprobe.nnet import (Conv2d, Flatten, Linear, Model, Relu, build_cnn, build_mlp,
                           train)

# below float32's smallest normal, 2^-126, so layer outputs turn subnormal
TINY = np.float32(2.0 ** -135)


def _trained(model, image_shape, dims, seed, rows=300):
    """The model briefly trained on blobs, and a test set of `rows` rows
    (two evaluation chunks) whose last 20 images are scaled down to
    subnormal size."""
    data = synth_blobs(3, 150, dims=dims, spread=0.35, seed=seed, image_shape=image_shape,
                       center_scale=0.5)
    train_set, test_set = train_test_split(data, test_fraction=rows / len(data))
    train(model, train_set, epochs=3, batch_size=16, lr=0.01, optimizer="adam", seed=seed)
    images = test_set.images.copy()
    images[-20:] *= TINY
    return model, Dataset(images, test_set.labels, split="test")


@pytest.fixture(scope="module")
def cnn_case():
    """The benchmark's api CNN shape, conv-relu-conv-relu-flatten-linear-relu-linear."""
    return _trained(build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=1), (1, 6, 6), 36, seed=5)


@pytest.fixture(scope="module")
def mlp_case():
    return _trained(build_mlp((1, 1, 12), [16, 8], 3, seed=2), (1, 1, 12), 12, seed=7)


def _certified(model, dataset, sites):
    """The sites a fresh cache certifies, each checked against its full
    recompute, and the cache."""
    cache = PrefixCache(model, dataset)
    cache.certify(model, sites)
    certified = [s for s in dict.fromkeys(sites) if site_code(s) in cache.outcomes]
    assert cache.certified == len(certified)
    for site in certified:
        assert evaluate_with_fault(model, dataset, site) == cache.baseline, site
    return certified, cache


@st.composite
def output_sites(draw, model, dataset):
    """Output sites leaning on the logits layer, on elements whose clean
    value is zero or subnormal in some sample, and on exponent bits."""
    layers = [lid for lid, layer in enumerate(model.layers) if layer.computes]
    lid = draw(st.one_of(st.just(layers[-1]), st.sampled_from(layers)))
    _, acts = model.apply(dataset.images, return_activations=True)
    values = np.abs(acts[lid].reshape(len(dataset), -1))
    small = np.flatnonzero((values < np.finfo(np.float32).tiny).any(axis=0))
    elements = st.integers(0, values.shape[1] - 1)
    if small.size:
        elements = st.one_of(st.sampled_from(small.tolist()), elements)
    bits = st.one_of(st.integers(23, 30), st.integers(0, 31))
    return FaultSite(lid, "neuron_output", draw(elements), draw(bits))


class TestCertifiedIsTheBaseline:
    @pytest.mark.parametrize("case", ["cnn_case", "mlp_case"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_output_sites(self, request, case, data):
        model, dataset = request.getfixturevalue(case)
        _certified(model, dataset, data.draw(st.lists(output_sites(model, dataset),
                                                      min_size=1, max_size=40)))

    @pytest.mark.parametrize("case", ["cnn_case", "mlp_case"])
    def test_every_site_of_sampled_elements(self, request, case):
        """All 32 bits of a few elements of every layer: the low mantissa
        bits certify, and the certified sites include subnormal and zero
        clean values."""
        model, dataset = request.getfixturevalue(case)
        sites = [s for s in enumerate_sites(model, "neuron_output")
                 if s.element_index % 7 == 0]
        certified, _ = _certified(model, dataset, sites)
        assert 0 < len(certified) < len(sites)
        assert {0, 1, 2} <= {s.bit_index for s in certified}
        _, acts = model.apply(dataset.images, return_activations=True)
        assert any((np.abs(acts[s.layer_id].reshape(len(dataset), -1)[:, s.element_index])
                    < np.finfo(np.float32).tiny).any() for s in certified)

    def test_tables_stay_within_the_cache_bytes(self, cnn_case):
        model, dataset = cnn_case
        cache = PrefixCache(model, dataset)
        cache.certify(model, enumerate_sites(model, "neuron_output"))
        assert set(cache._tolerances) == {0, 1, 2, 3, 5, 6, 7}
        assert sum(t.nbytes for t in cache._tolerances.values()) <= cache.nbytes

    def test_weight_sites_and_an_uncached_dataset_build_nothing(self, cnn_case, monkeypatch):
        model, dataset = cnn_case
        cache = PrefixCache(model, dataset)
        cache.certify(model, enumerate_sites(model, "neuron_weight")[:500])
        assert cache.certified == 0 and not cache.outcomes and not cache._tolerances
        cache.stores_activations = False
        cache.certify(model, enumerate_sites(model, "neuron_output")[:500])
        assert cache.certified == 0 and not cache.outcomes and not cache._tolerances

    def test_slices_of_a_large_block_certify_the_same_sites(self, mlp_case, monkeypatch):
        """A check holds at most STACK_BYTES of float64 [samples, sites],
        and a table build of float64 [elements, rows]: slices of 7 sites and
        of 2100 elements x rows give the same tables and certify the same
        sites as whole blocks and chunks."""
        model, dataset = mlp_case
        sites = enumerate_sites(model, "neuron_output")[::3]
        _, whole = _certified(model, dataset, sites)
        monkeypatch.setattr(injector, "STACK_BYTES", 8 * len(dataset) * 7)
        _, sliced = _certified(model, dataset, sites)
        assert sliced.outcomes == whole.outcomes and sliced.certified == whole.certified
        for lid, table in whole._tolerances.items():
            assert np.array_equal(sliced._tolerances[lid], table, equal_nan=True)

    def test_a_strided_conv_without_bias(self):
        """The transposed |W| map of a stride-2 conv equals the dense
        matrix's, and every certified site before or after that conv, which
        has no bias, is the baseline."""
        rng = np.random.default_rng(0)
        conv = Conv2d(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), None, stride=2)
        first = Conv2d(rng.normal(size=(2, 2, 1, 1)).astype(np.float32), np.ones(2, np.float32))
        model = Model([first, Relu(), conv, Relu(), Flatten(),
                       _linear(rng.normal(size=(3, 27)), [0, 0, 0])], (2, 7, 7))
        dense = conv.jvp(None, np.eye(98, dtype=np.float32).reshape(98, 2, 7, 7))
        a = rng.random((4, 27))
        assert np.allclose(injector._abs_transpose(conv, a, (2, 7, 7)),
                           a @ np.abs(dense.reshape(98, 27).astype(np.float64)).T,
                           rtol=1e-12, atol=0)
        images = rng.normal(size=(40, 2, 7, 7)).astype(np.float32)
        dataset = Dataset(images, model.apply(images).argmax(axis=1), split="test")
        certified, _ = _certified(model, dataset, enumerate_sites(model, "neuron_output"))
        assert certified

    def test_sites_with_an_outcome_or_no_element_are_left_alone(self, mlp_case):
        model, dataset = mlp_case
        cache = PrefixCache(model, dataset)
        known = FaultSite(5, "neuron_output", 0, 0)
        cache.outcomes[site_code(known)] = (0.5, False)
        cache.certify(model, [known, FaultSite(5, "neuron_output", 99, 0),
                              FaultSite(9, "neuron_output", 0, 0)])
        assert cache.outcomes == {site_code(known): (0.5, False)} and cache.certified == 0


def _dataset(rows, labels):
    images = np.array(rows, dtype=np.float32).reshape(len(rows), 1, 1, -1)
    return Dataset(images, np.array(labels, dtype=np.int64), split="test")


def _linear(weight, bias):
    return Linear(np.array(weight, dtype=np.float32), np.array(bias, dtype=np.float32))


class TestConstructedModelsDoNotCertify:
    def test_a_top1_gap_just_above_the_exact_change(self):
        """Flipping bit 23 of 1.5 gives 0.75, which lowers logit 0 of
        1000000.8125 by 0.75, less than its gap of 0.8125 to logit 1.  In
        exact arithmetic that is harmless, but rounding at 10^6 moves each
        logit by up to 2^-24 of it, about 0.06, and the bound counts both
        passes, so the site is not certified.  A flip of bit 0 is."""
        model = Model([Flatten(), _linear(np.eye(2), [0, 0]),
                       _linear([[1, 0], [0, 0]], [999999.3125, 1e6])], (1, 1, 2))
        dataset = _dataset([[1.5, 0.0]], [0])
        assert model.apply(dataset.images).tolist() == [[1000000.8125, 1e6]]
        certified, _ = _certified(model, dataset, [FaultSite(1, "neuron_output", 0, 23),
                                                   FaultSite(1, "neuron_output", 0, 0)])
        assert certified == [FaultSite(1, "neuron_output", 0, 0)]

    def test_a_row_whose_clean_logits_tie(self):
        """Row 0's logits tie; a site is certified only when no row ties,
        even a sign flip of a zero output, which changes no value."""
        model = Model([Flatten(), _linear([[1, 0], [0, 1], [0, 0]], [0, 0, 0]), Relu(),
                       _linear([[1, 0, 1], [0, 1, 1]], [0, 0])], (1, 1, 2))
        sites = [FaultSite(2, "neuron_output", 2, 31), FaultSite(3, "neuron_output", 1, 0)]
        tied = _dataset([[3.0, 3.0], [5.0, 1.0]], [0, 0])
        assert model.apply(tied.images)[0].tolist() == [3.0, 3.0]
        assert _certified(model, tied, sites)[0] == []
        untied = _dataset([[4.0, 3.0], [5.0, 1.0]], [0, 0])
        assert _certified(model, untied, sites)[0] == sites

    def test_a_gap_equal_to_the_change(self):
        """Flipping bit 22 of logit 1 (3.0) gives 2.0, which ties logit 0, so
        argmax moves to class 0; a gap that equals the change is not enough."""
        model = Model([Flatten(), _linear(np.zeros((2, 1)), [2.0, 3.0])], (1, 1, 1))
        dataset = _dataset([[0.0]], [1])
        site = FaultSite(1, "neuron_output", 1, 22)
        assert evaluate_with_fault(model, dataset, site) == (0.0, False)
        assert _certified(model, dataset, [site])[0] == []

    def test_a_flip_that_overflows_into_a_zero_weight(self):
        """Bit 30 of 0.75 gives 1.5 * 2^127; times 2 it overflows to inf,
        which the next layer multiplies by a zero weight, so every logit is
        NaN.  The fault reaches no logit through a nonzero weight, so only
        the cap on every later layer keeps it from certifying; a flip
        straight to inf (bit 30 of 1.0) fails on its own."""
        model = Model([Flatten(), _linear([[1]], [0]), _linear([[2]], [0]), Relu(),
                       _linear([[0], [0]], [1, 0])], (1, 1, 1))
        sites = [FaultSite(1, "neuron_output", 0, 30), FaultSite(2, "neuron_output", 0, 0)]
        certified, cache = _certified(model, _dataset([[0.75]], [0]), sites)
        assert evaluate_with_fault(model, cache.dataset, sites[0]) == (1.0, True)
        assert certified == [sites[1]]
        inf_site = [FaultSite(1, "neuron_output", 0, 30)]
        assert _certified(model, _dataset([[1.0]], [0]), inf_site)[0] == []

    def test_a_poisoned_baseline_certifies_nothing(self):
        model = Model([Flatten(), _linear([[1], [0]], [0, 0])], (1, 1, 1))
        dataset = _dataset([[1.0], [np.inf]], [0, 0])
        cache = PrefixCache(model, dataset)
        assert cache.baseline[1]
        assert _certified(model, dataset, [FaultSite(1, "neuron_output", 0, 0)])[0] == []


def _micro_cnn():
    data = synth_blobs(3, 20, dims=25, spread=0.35, seed=3, image_shape=(1, 5, 5),
                       center_scale=0.5)
    train_set, test_set = train_test_split(data, test_fraction=0.5)
    model = build_cnn((1, 5, 5), [2, 2], 2, 4, 3, seed=3)
    train(model, train_set, epochs=4, batch_size=8, lr=0.02, optimizer="adam", seed=3)
    return model, test_set


def _micro_mlp():
    data = synth_blobs(3, 20, dims=4, spread=0.25, seed=4)
    train_set, test_set = train_test_split(data, test_fraction=0.5)
    model = build_mlp((1, 1, 4), [5], 3, seed=4)
    train(model, train_set, epochs=4, batch_size=8, lr=0.05, optimizer="adam", seed=4)
    return model, test_set


class TestExhaustiveCampaign:
    @pytest.mark.parametrize("make", [_micro_cnn, _micro_mlp])
    def test_equals_a_site_by_site_sweep(self, make):
        """Every output site of a micro model, through a campaign that
        certifies before it stacks, against each site's full recompute."""
        model, dataset = make()
        result = run_campaign(model, dataset, CampaignConfig(
            code="RBRNo", thresholds=(0.0, 0.05), seeds=(1,), exhaustive=True))
        for r in result.records:
            assert (r.faulty_accuracy, r.poisoned) == evaluate_with_fault(model, dataset,
                                                                          r.site), r.site
        certified = PrefixCache.shared(model, dataset).certified
        assert 0 < certified < len(result.records)
