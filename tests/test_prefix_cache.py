"""Prefix-cached, stacked fault evaluation against the full recompute.

evaluate_with_fault(..., prefix=cache) reruns only the layers from the
fault onward, for a stack of same-layer sites at once; without prefix it
reruns the whole model for one site.  Both must return the same
(accuracy, poisoned) for every site, bit for bit.
"""

import gc
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcprobe.campaign import CampaignConfig, run_campaign
from sdcprobe.data import Dataset, synth_blobs, train_test_split
from sdcprobe.errors import ConfigError, UsageError
from sdcprobe.fault_model import FaultSite
from sdcprobe import injector
from sdcprobe.injector import PrefixCache, evaluate_with_fault, faults_active
from sdcprobe.nnet import build_cnn, build_mlp, evaluate_detailed, model_checksum, train
from sdcprobe.nnet.training import EVAL_BATCH

ROWS = 300  # more than one 256-row evaluation chunk


def _blobs(image_shape, dims, seed):
    data = synth_blobs(3, 150, dims=dims, spread=0.35, seed=seed,
                       image_shape=image_shape, center_scale=0.5)
    return train_test_split(data, test_fraction=ROWS / len(data))


@pytest.fixture(scope="module")
def cnn_case():
    """The acceptance CNN, briefly trained, with a 300-row test set."""
    train_set, test_set = _blobs((1, 6, 6), 36, seed=5)
    model = build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=1)
    train(model, train_set, epochs=3, batch_size=16, lr=0.01, optimizer="adam", seed=3)
    return model, test_set, PrefixCache(model, test_set)


@pytest.fixture(scope="module")
def mlp_case():
    train_set, test_set = _blobs((1, 1, 12), 12, seed=7)
    model = build_mlp((1, 1, 12), [16, 8], 3, seed=2)
    train(model, train_set, epochs=3, batch_size=16, lr=0.01, optimizer="adam", seed=4)
    return model, test_set, PrefixCache(model, test_set)


def _layer_sizes(model, kind):
    """{layer id: number of elements} a site of this kind may target."""
    if kind == "neuron_weight":
        return {lid: model.layers[lid].weight.data.size for lid in model.weight_layer_ids()}
    return {lid: int(np.prod(shape)) for lid, shape in enumerate(model.output_shapes())}


@st.composite
def sites(draw, model):
    kind = draw(st.sampled_from(["neuron_weight", "neuron_output"]))
    sizes = _layer_sizes(model, kind)
    lid = draw(st.sampled_from(sorted(sizes)))
    element = draw(st.integers(0, sizes[lid] - 1))
    bit = draw(st.integers(0, 31))
    return FaultSite(lid, kind, element, bit)


def _assert_holds_only_inputs(cache, dataset):
    """Every chunk holds only its input: a view of its EVAL_BATCH rows of
    the dataset, so the cache keeps no activation."""
    starts = range(0, len(dataset), EVAL_BATCH)
    assert len(cache.chunks) == len(starts)
    for lo, chunk in zip(starts, cache.chunks):
        assert len(chunk) == 1
        assert np.shares_memory(chunk[0], dataset.images)
        assert np.array_equal(chunk[0], dataset.images[lo:lo + EVAL_BATCH])


def _assert_holds_every_output(cache, model, dataset):
    """Every chunk holds its input followed by every layer's clean output."""
    starts = range(0, len(dataset), EVAL_BATCH)
    assert len(cache.chunks) == len(starts)
    for lo, chunk in zip(starts, cache.chunks):
        x = dataset.images[lo:lo + EVAL_BATCH]
        _, acts = model.apply(x, return_activations=True)
        assert len(chunk) == 1 + len(model.layers)
        for got, want in zip(chunk, [x] + acts):
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _over_budget(model, dataset):
    """A cache built with a budget one byte short of its activations."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(injector, "PREFIX_CACHE_BYTES", PrefixCache(model, dataset).nbytes - 1)
        cache = PrefixCache(model, dataset)
    _assert_holds_only_inputs(cache, dataset)
    return cache


@st.composite
def stacks(draw, model, most):
    """1..most distinct sites of one layer and kind, as a stack holds them;
    bits lean on 0, 23, 30 and 31."""
    kind = draw(st.sampled_from(["neuron_weight", "neuron_output"]))
    sizes = _layer_sizes(model, kind)
    lid = draw(st.sampled_from(sorted(sizes)))
    bits = st.one_of(st.sampled_from([0, 23, 30, 31]), st.integers(0, 31))
    site = st.builds(FaultSite, st.just(lid), st.just(kind),
                     st.integers(0, sizes[lid] - 1), bits)
    return draw(st.lists(site, min_size=1, max_size=most, unique=True))


def _assert_stack_same(model, dataset, cache, stack):
    """One stacked pass gives every site's full-recompute outcome and
    leaves the model as it was."""
    before = model_checksum(model)
    got = cache.evaluate_stack(model, stack)
    assert model_checksum(model) == before
    assert got == [evaluate_with_fault(model, dataset, site) for site in stack], stack
    return got


def _assert_same(model, dataset, cache, site):
    before = model_checksum(model)
    full = evaluate_with_fault(model, dataset, site)
    cached = evaluate_with_fault(model, dataset, site, prefix=cache)
    assert cached == full, site
    assert model_checksum(model) == before
    return full


class TestMatchesFullRecompute:
    def test_baseline_is_the_clean_evaluation(self, cnn_case, mlp_case):
        for model, dataset, cache in (cnn_case, mlp_case):
            assert cache.baseline == evaluate_detailed(model, dataset)
            assert len(cache.chunks) == 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_cnn_sites(self, cnn_case, data):
        model, dataset, cache = cnn_case
        _assert_same(model, dataset, cache, data.draw(sites(model)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_mlp_sites(self, mlp_case, data):
        model, dataset, cache = mlp_case
        _assert_same(model, dataset, cache, data.draw(sites(model)))

    @pytest.mark.parametrize("case", ["cnn_case", "mlp_case"])
    @pytest.mark.parametrize("kind", ["neuron_weight", "neuron_output"])
    def test_first_and_last_layers(self, request, case, kind):
        model, dataset, cache = request.getfixturevalue(case)
        sizes = _layer_sizes(model, kind)
        for lid in (min(sizes), max(sizes)):
            for element in (0, sizes[lid] - 1):
                for bit in (0, 23, 30, 31):
                    _assert_same(model, dataset, cache, FaultSite(lid, kind, element, bit))

    def test_poisoned_weight_site(self, mlp_case):
        """A weight of 1.5 with bit 30 flipped is NaN, which poisons every
        sample; the cached path must report it the same way."""
        model, dataset, _ = mlp_case
        replica = model.copy()
        replica.layers[1].weight.data[0, 0] = 1.5
        cache = PrefixCache(replica, dataset)
        _, poisoned = _assert_same(replica, dataset, cache,
                                   FaultSite(1, "neuron_weight", 0, 30))
        assert poisoned

    def test_poisoned_output_sites(self, cnn_case):
        """Exponent-bit flips of every conv output element: some push
        inf/NaN through the network, and all match the full recompute."""
        model, dataset, cache = cnn_case
        outcomes = [_assert_same(model, dataset, cache, FaultSite(lid, "neuron_output", e, 30))
                    for lid in (0, 2) for e in range(_layer_sizes(model, "neuron_output")[lid])]
        assert any(poisoned for _, poisoned in outcomes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_model_with_a_pinned_weight_fault(self, cnn_case, data):
        """A weight fault already on the model is part of the cached
        activations and of every resumed pass, including a site on the same
        layer and the same site again, which flips the bit back."""
        model, dataset, _ = cnn_case
        replica = model.copy()
        with faults_active(replica, [FaultSite(2, "neuron_weight", 5, 29)]):
            cache = PrefixCache(replica, dataset)
            assert cache.baseline == evaluate_detailed(replica, dataset)
            _assert_same(replica, dataset, cache, data.draw(sites(replica)))
            _assert_same(replica, dataset, cache, FaultSite(2, "neuron_weight", 5, 29))
            _assert_same(replica, dataset, cache, FaultSite(2, "neuron_weight", 6, 30))

    def test_cache_is_read_only(self, cnn_case):
        _, _, cache = cnn_case
        for chunk in cache.chunks:
            for a in chunk:
                with pytest.raises(ValueError):
                    a.reshape(-1)[0] = 1.0


@pytest.fixture(scope="module")
def cnn_over(cnn_case):
    model, dataset, _ = cnn_case
    return model, dataset, _over_budget(model, dataset)


@pytest.fixture(scope="module")
def mlp_over(mlp_case):
    model, dataset, _ = mlp_case
    return model, dataset, _over_budget(model, dataset)


CASES = ["cnn_case", "mlp_case", "cnn_over", "mlp_over"]


class TestStackedEvaluation:
    def test_stack_size_follows_the_byte_budget(self, cnn_case, mlp_case, cnn_over):
        """K variants of float64 activations over the largest chunk, and of
        the largest weight, fit STACK_BYTES: 4 for the CNN's 179 and 12 for
        the MLP's 63 activations per sample on 256 rows, over budget or
        not."""
        for (model, _, cache), k in ((cnn_case, 4), (mlp_case, 12), (cnn_over, 4)):
            activations = EVAL_BATCH * sum(int(np.prod(s)) for s in model.output_shapes())
            widest = max(model.layers[i].weight.data.size for i in model.weight_layer_ids())
            assert cache.stack_size == k == injector.STACK_BYTES // (8 * (activations + widest))

    def test_a_wide_weight_on_few_rows_stacks_alone(self):
        """Five rows through a 2048x2048 layer: one copy of the weight in
        float64 is 32 MiB, so no stack holds two."""
        model = build_mlp((1, 1, 2048), [], 2048, seed=0)
        images = np.ones((5, 1, 1, 2048), dtype=np.float32)
        cache = PrefixCache(model, Dataset(images, np.zeros(5, dtype=np.int64), split="test"))
        assert cache.stack_size == 1

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_stacks(self, request, case, data):
        model, dataset, cache = request.getfixturevalue(case)
        _assert_stack_same(model, dataset, cache, data.draw(stacks(model, cache.stack_size)))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", ["neuron_weight", "neuron_output"])
    def test_first_and_last_layers_in_stacks_of_every_size(self, request, case, kind):
        """Bits 0, 23, 30 and 31 of the first and last element of the first
        and last layer, in stacks of 1..K sites."""
        model, dataset, cache = request.getfixturevalue(case)
        sizes = _layer_sizes(model, kind)
        for lid in (min(sizes), max(sizes)):
            sites = [FaultSite(lid, kind, e, b) for e in (0, sizes[lid] - 1)
                     for b in (0, 23, 30, 31)]
            for k in range(1, cache.stack_size + 1):
                _assert_stack_same(model, dataset, cache, sites[:k])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_blocks_through_evaluate_with_fault(self, cnn_case, data):
        """Blocks of mixed kinds and layers, with repeats, evaluated the way
        a campaign does it, with the rest of the block ahead and a stack
        size of 1..K: every outcome equals the full recompute, and each
        distinct site enters one stack once."""
        model, dataset, full = cnn_case
        block = data.draw(st.lists(st.sampled_from(data.draw(
            st.lists(sites(model), min_size=1, max_size=12))), min_size=1, max_size=24))
        cache = PrefixCache(model, dataset)
        cache.stack_size = data.draw(st.integers(1, full.stack_size))
        stacked = []
        evaluate_stack = cache.evaluate_stack
        cache.evaluate_stack = lambda m, stack: stacked.extend(stack) or evaluate_stack(m, stack)
        for i, site in enumerate(block):
            outcome = cache.outcomes.get(site)
            if outcome is None:
                outcome = evaluate_with_fault(model, dataset, site, prefix=cache,
                                              ahead=block[i + 1:])
            assert outcome == evaluate_with_fault(model, dataset, site), site
        assert sorted(stacked, key=repr) == sorted(set(block), key=repr)

    @pytest.mark.parametrize("over", [False, True])
    def test_poisoned_and_non_finite_stacks(self, mlp_case, cnn_case, over):
        """The NaN weight of test_poisoned_weight_site stacked with clean
        flips of its layer, and exponent flips of every first-conv output
        element in stacks of K."""
        model, dataset, _ = mlp_case
        replica = model.copy()
        replica.layers[1].weight.data[0, 0] = 1.5
        cache = _over_budget(replica, dataset) if over else PrefixCache(replica, dataset)
        stack = [FaultSite(1, "neuron_weight", 0, 30), FaultSite(1, "neuron_weight", 0, 3),
                 FaultSite(1, "neuron_weight", 5, 31), FaultSite(1, "neuron_weight", 7, 30)]
        outcomes = _assert_stack_same(replica, dataset, cache, stack)
        assert outcomes[0][1] and not outcomes[1][1]
        model, dataset, _ = cnn_case
        cache = _over_budget(model, dataset) if over else PrefixCache(model, dataset)
        sites = [FaultSite(0, "neuron_output", e, 30)
                 for e in range(_layer_sizes(model, "neuron_output")[0])]
        k = cache.stack_size
        outcomes = [o for lo in range(0, len(sites), k)
                    for o in _assert_stack_same(model, dataset, cache, sites[lo:lo + k])]
        assert any(poisoned for _, poisoned in outcomes)
        assert not all(poisoned for _, poisoned in outcomes)

    @pytest.mark.parametrize("over", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_model_with_a_pinned_weight_fault(self, cnn_case, over, data):
        """The weight fault already on the model is in every variant, and a
        stack on its layer may hold it again (which cancels it) beside
        others."""
        model, dataset, _ = cnn_case
        replica = model.copy()
        with faults_active(replica, [FaultSite(2, "neuron_weight", 5, 29)]):
            cache = _over_budget(replica, dataset) if over else PrefixCache(replica, dataset)
            _assert_stack_same(replica, dataset, cache, [
                FaultSite(2, "neuron_weight", 5, 29), FaultSite(2, "neuron_weight", 6, 30),
                FaultSite(2, "neuron_weight", 5, 31)][:cache.stack_size])
            _assert_stack_same(replica, dataset, cache,
                               data.draw(stacks(replica, cache.stack_size)))

    def test_a_bad_site_ahead_is_left_out(self, mlp_case):
        """Sites ahead that name no element, or sit on another layer or
        kind, or already have an outcome, stay out of the stack; the stack
        fills with the first fitting ones, in order."""
        model, dataset, _ = mlp_case
        cache = PrefixCache(model, dataset)
        cache.stack_size = 3
        site = FaultSite(1, "neuron_weight", 0, 3)
        known = FaultSite(1, "neuron_weight", 1, 3)
        evaluate_with_fault(model, dataset, known, prefix=cache)
        ahead = [FaultSite(1, "neuron_weight", 10**6, 3), FaultSite(3, "neuron_weight", 0, 3),
                 FaultSite(1, "neuron_output", 0, 3), known, site,
                 FaultSite(1, "neuron_weight", 2, 3), FaultSite(1, "neuron_weight", 3, 3),
                 FaultSite(1, "neuron_weight", 4, 3)]
        outcome = evaluate_with_fault(model, dataset, site, prefix=cache, ahead=ahead)
        assert outcome == evaluate_with_fault(model, dataset, site)
        assert list(cache.outcomes) == [known, site] + ahead[5:7]
        with pytest.raises(UsageError, match="out of range"):
            evaluate_with_fault(model, dataset, ahead[0], prefix=cache)


class TestByteBudget:
    def test_size_is_every_stored_layer_output(self, cnn_case, mlp_case):
        for _, _, cache in (cnn_case, mlp_case):
            assert cache.nbytes == sum(a.nbytes for chunk in cache.chunks for a in chunk[1:])

    def test_default_idx_cnn_on_a_full_test_set_is_over_budget(self):
        """The CLI's default CNN on a 10000-image 28x28 test set would need
        about 590 MB of activations, so the cache keeps none."""
        model = build_cnn((1, 28, 28), [4, 8], 3, 32, 10, seed=0)
        per_sample = sum(int(np.prod(s)) for s in model.output_shapes())
        assert 4 * 10000 * per_sample > injector.PREFIX_CACHE_BYTES

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_over_budget_falls_back_to_the_full_recompute(self, cnn_case, data):
        model, dataset, full_cache = cnn_case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(injector, "PREFIX_CACHE_BYTES", full_cache.nbytes - 1)
            cache = PrefixCache(model, dataset)
        _assert_holds_only_inputs(cache, dataset)
        assert cache.baseline == evaluate_detailed(model, dataset)
        _assert_same(model, dataset, cache, data.draw(sites(model)))

    def test_exactly_at_budget_is_cached(self, mlp_case, monkeypatch):
        model, dataset, full_cache = mlp_case
        monkeypatch.setattr(injector, "PREFIX_CACHE_BYTES", full_cache.nbytes)
        _assert_holds_every_output(PrefixCache(model, dataset), model, dataset)

    @pytest.mark.parametrize("case", ["cnn_case", "mlp_case"])
    @pytest.mark.parametrize("kind", ["neuron_weight", "neuron_output"])
    def test_over_budget_first_and_last_layers(self, request, case, kind):
        model, dataset, _ = request.getfixturevalue(case)
        cache = _over_budget(model, dataset)
        sizes = _layer_sizes(model, kind)
        for lid in (min(sizes), max(sizes)):
            for element in (0, sizes[lid] - 1):
                for bit in (0, 23, 30, 31):
                    _assert_same(model, dataset, cache, FaultSite(lid, kind, element, bit))

    def test_over_budget_poisoned_sites(self, mlp_case, cnn_case):
        """The NaN weight of test_poisoned_weight_site and exponent flips
        of every first-conv output element, evaluated from the inputs."""
        model, dataset, _ = mlp_case
        replica = model.copy()
        replica.layers[1].weight.data[0, 0] = 1.5
        _, poisoned = _assert_same(replica, dataset, _over_budget(replica, dataset),
                                   FaultSite(1, "neuron_weight", 0, 30))
        assert poisoned
        model, dataset, _ = cnn_case
        cache = _over_budget(model, dataset)
        outcomes = [_assert_same(model, dataset, cache, FaultSite(0, "neuron_output", e, 30))
                    for e in range(_layer_sizes(model, "neuron_output")[0])]
        assert any(poisoned for _, poisoned in outcomes)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_over_budget_model_with_a_pinned_weight_fault(self, cnn_case, data):
        """A pass from the inputs runs with the weight fault already on the
        model and the evaluated one, including a site on the same layer and
        the same site again."""
        model, dataset, _ = cnn_case
        replica = model.copy()
        with faults_active(replica, [FaultSite(2, "neuron_weight", 5, 29)]):
            cache = _over_budget(replica, dataset)
            assert cache.baseline == evaluate_detailed(replica, dataset)
            _assert_same(replica, dataset, cache, data.draw(sites(replica)))
            _assert_same(replica, dataset, cache, FaultSite(2, "neuron_weight", 5, 29))
            _assert_same(replica, dataset, cache, FaultSite(2, "neuron_weight", 6, 30))

    def test_over_budget_build_holds_one_chunk_of_activations(self, mlp_case):
        """Building over budget on 3000 rows (12 chunks) never holds half of
        the activations a cache within budget keeps: one chunk's layer
        outputs and their temporaries peak at about a quarter."""
        model, dataset, _ = mlp_case
        big = Dataset(np.tile(dataset.images, (10, 1, 1, 1)), np.tile(dataset.labels, 10),
                      split="test")
        per_sample = 4 * sum(int(np.prod(s)) for s in model.output_shapes())
        with pytest.MonkeyPatch.context() as m:
            m.setattr(injector, "PREFIX_CACHE_BYTES", 0)
            tracemalloc.start()
            try:
                cache = PrefixCache(model, big)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        _assert_holds_only_inputs(cache, big)
        assert cache.baseline == evaluate_detailed(model, big)
        assert peak < per_sample * len(big) / 2


class TestSharedAcrossWorkers:
    def test_eight_threads_with_fast_switching_match_the_full_recompute(self, cnn_case):
        """Eight threads, each evaluating on its own replica, share one cache
        while the interpreter switches threads every microsecond; every
        result still equals the site's full recompute, so no thread saw
        another's patched activations or weight flip."""
        model, dataset, cache = cnn_case
        site_list = [r.site for code in ("RBRNo", "RBRNw")
                     for r in run_campaign(model, dataset, CampaignConfig(
                         code=code, thresholds=(0.0,), sample_budget=40,
                         seeds=(3, 4))).records]
        tls = threading.local()

        def evaluate(site):
            if not hasattr(tls, "model"):
                tls.model = model.copy()
            return evaluate_with_fault(tls.model, dataset, site, prefix=cache)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(evaluate, site_list))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 160
        for site, got in zip(site_list, results):
            assert got == evaluate_with_fault(model, dataset, site), site


class TestMismatchedCache:
    def test_other_dataset_refused(self, mlp_case):
        model, dataset, cache = mlp_case
        other = Dataset(dataset.images.copy(), dataset.labels.copy(), split="test")
        with pytest.raises(UsageError, match="different dataset"):
            evaluate_with_fault(model, other, FaultSite(1, "neuron_weight", 0, 3),
                                prefix=cache)

    def test_model_with_other_layers_refused(self, mlp_case):
        _, dataset, cache = mlp_case
        other = build_mlp((1, 1, 12), [16], 3, seed=2)
        with pytest.raises(UsageError, match="other layers"):
            evaluate_with_fault(other, dataset, FaultSite(1, "neuron_weight", 0, 3),
                                prefix=cache)

    def test_replica_accepted(self, mlp_case):
        model, dataset, cache = mlp_case
        _assert_same(model.copy(), dataset, cache, FaultSite(1, "neuron_weight", 0, 3))

    def test_refusal_leaves_the_model_clean(self, mlp_case):
        model, dataset, cache = mlp_case
        before = model_checksum(model)
        other = Dataset(dataset.images.copy(), dataset.labels.copy(), split="test")
        with pytest.raises(UsageError, match="different dataset"):
            evaluate_with_fault(model, other, FaultSite(1, "neuron_weight", 0, 3),
                                prefix=cache)
        assert model_checksum(model) == before
        assert set(vars(model)) == {"layers", "input_shape", "in_shapes"}

    def test_empty_dataset_refused(self, mlp_case):
        model, dataset, _ = mlp_case
        empty = Dataset(dataset.images[:0], dataset.labels[:0], split="test")
        with pytest.raises(UsageError, match="empty"):
            PrefixCache(model, empty)


def _campaign_outcomes(model, dataset):
    """(site, accuracy, poisoned) of a short output-fault campaign, which
    evaluates through the shared cache; each must equal a full recompute on
    the model and dataset as they are now."""
    cfg = CampaignConfig(code="RBRNo", thresholds=(0.0, 0.05), sample_budget=40, seeds=(1,))
    result = run_campaign(model, dataset, cfg)
    assert result.baseline_accuracy == evaluate_detailed(model, dataset)[0]
    outcomes = [(r.site, r.faulty_accuracy, r.poisoned) for r in result.records]
    for site, accuracy, poisoned in outcomes:
        assert (accuracy, poisoned) == evaluate_with_fault(model, dataset, site), site
    return outcomes


def _weight_changed(model, dataset):
    model.layers[model.weight_layer_ids()[0]].weight.data[0] *= -4.0
    return model, dataset


def _image_changed(model, dataset):
    """Overwrite one correctly classified image with a correctly classified
    image of another class, so the clean accuracy moves."""
    right = model.apply(dataset.images).argmax(axis=1) == dataset.labels
    i = int(np.flatnonzero(right)[0])
    j = int(np.flatnonzero(right & (dataset.labels != dataset.labels[i]))[0])
    dataset.images[i] = dataset.images[j]
    return model, dataset


def _weight_fault_injected(model, dataset):
    """Bit 30 of a weight set in place, as a faults_active block sets it."""
    model.layers[1].weight.data.reshape(-1).view(np.uint32)[0] ^= np.uint32(1 << 30)
    return model, dataset


def _second_model(model, dataset):
    return model.copy(), dataset


def _equal_dataset(model, dataset):
    return model, Dataset(dataset.images.copy(), dataset.labels.copy(), split="test")


class TestSharedCache:
    @pytest.mark.parametrize("change, outcomes_move", [
        (_weight_changed, True), (_image_changed, True), (_weight_fault_injected, True),
        (_second_model, False), (_equal_dataset, False)])
    def test_a_changed_key_rebuilds_the_cache(self, mlp_case, change, outcomes_move):
        """The shared cache is handed out again only for the same, unchanged
        model and dataset objects; any change gives a new, empty cache
        whose outcomes match a fresh evaluation."""
        model, dataset, _ = mlp_case
        model = model.copy()
        dataset = Dataset(dataset.images.copy(), dataset.labels.copy(), split="test")
        first = PrefixCache.shared(model, dataset)
        before = _campaign_outcomes(model, dataset)
        assert PrefixCache.shared(model, dataset) is first and first.outcomes
        model, dataset = change(model, dataset)
        second = PrefixCache.shared(model, dataset)
        assert second is not first and not second.outcomes
        after = _campaign_outcomes(model, dataset)
        assert PrefixCache.shared(model, dataset) is second
        assert (after != before) == outcomes_move

    def test_the_slot_keeps_no_model_alive(self, mlp_case):
        model, dataset, _ = mlp_case
        replica = model.copy()
        cache = weakref.ref(PrefixCache.shared(replica, dataset))
        alive = weakref.ref(replica)
        del replica
        gc.collect()
        assert alive() is None and cache() is None

    def test_the_process_holds_one_cache(self, mlp_case):
        model, dataset, _ = mlp_case
        a, b = model.copy(), model.copy()
        first = weakref.ref(PrefixCache.shared(a, dataset))
        second = PrefixCache.shared(b, dataset)
        gc.collect()
        assert first() is None
        assert PrefixCache.shared(b, dataset) is second
        PrefixCache.clear_shared()
        assert PrefixCache.shared(b, dataset) is not second


class TestResumableApply:
    def test_resumed_pass_equals_the_full_pass(self, cnn_case):
        model, dataset, _ = cnn_case
        x = dataset.images[:40]
        logits, acts = model.apply(x, return_activations=True)
        for start in range(1, len(model.layers) + 1):
            resumed = model.apply(acts[start - 1], start=start)
            assert np.array_equal(resumed.view(np.uint32), logits.view(np.uint32))

    def test_start_checks_the_input_shape(self, cnn_case):
        model, dataset, _ = cnn_case
        with pytest.raises(ConfigError, match="input of layer 2"):
            model.apply(dataset.images[:4], start=2)
        with pytest.raises(UsageError, match="out of range"):
            model.apply(dataset.images[:4], start=len(model.layers) + 1)
