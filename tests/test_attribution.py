"""Attribution oracles.

Conductance is checked against closed forms on linear models (where the path
integral is exact for any step count) and against the completeness identity
on nonlinear ones.  Weight attribution is checked against finite differences
and its defining signed-sum structure.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcprobe import attribution
from sdcprobe.attribution import (
    AttributionConfig,
    AttributionMap,
    Baseline,
    attribute_all,
    conductance,
    conductance_components,
    eligible_layers,
    load_attribution,
    make_baseline,
    save_attribution,
    weight_sums,
)
from sdcprobe.data import Dataset, synth_blobs
from sdcprobe.errors import ConfigError, DataFormatError, UsageError
from sdcprobe.nnet import (ComputationGraph, Flatten, Linear, Model, Relu, build_cnn,
                           build_mlp, model_checksum)
from sdcprobe.nnet.autodiff import picked_logit_sum
from sdcprobe.nnet.training import predict


def zeros_baseline(model):
    return make_baseline("zeros", model)


def linear_model(w):
    w = np.asarray(w, dtype=np.float32)
    return Model([Flatten(), Linear(w)], (1, 1, w.shape[1]))


class TestConductanceClosedForm:
    def test_single_linear_model_path_integral_exact(self):
        # F(x) = w·x, baseline 0: Cond at the output element of the predicted
        # class equals w·x itself, for any number of steps.
        w = np.array([[0.5, -2.0, 1.0], [0.1, 0.1, 0.1]], dtype=np.float32)
        model = linear_model(w)
        x = np.array([2.0, 1.0, 4.0], dtype=np.float32)
        logits = w.astype(np.float64) @ x.astype(np.float64)
        pred = int(np.argmax(logits))
        for steps in (1, 7):
            scores = conductance(model, 1, x.reshape(1, 1, 1, 3),
                                 zeros_baseline(model), steps)
            np.testing.assert_allclose(scores[pred], abs(logits[pred]), rtol=1e-5)
            other = 1 - pred
            assert scores[other] == 0.0  # gradient of F w.r.t. the losing logit is 0

    def test_input_layer_conductance_matches_per_feature_products(self):
        # Through the flatten layer, Cond_i = w_pred[i] * x_i exactly.
        w = np.array([[0.5, -2.0, 1.0]], dtype=np.float32)
        model = linear_model(w)
        x = np.array([2.0, 1.0, 4.0], dtype=np.float32)
        scores = conductance(model, 0, x.reshape(1, 1, 1, 3),
                             zeros_baseline(model), steps=3)
        np.testing.assert_allclose(scores, np.abs(w[0] * x), rtol=1e-5)

    def test_baseline_input_gives_zero_scores(self):
        model = build_mlp((1, 1, 4), [5], classes=3, seed=0)
        x = np.zeros((2, 1, 1, 4), dtype=np.float32)
        for lid in range(len(model.layers)):
            scores = conductance(model, lid, x, zeros_baseline(model), steps=4)
            np.testing.assert_array_equal(scores, np.zeros_like(scores))

    def test_layer_id_range_checked(self):
        model = build_mlp((1, 1, 4), [], classes=2, seed=0)
        with pytest.raises(UsageError):
            conductance(model, 5, np.ones((1, 1, 1, 4), dtype=np.float32),
                        zeros_baseline(model), steps=2)


class TestConductanceCompleteness:
    """Sum over a layer's elements of signed conductance equals
    F(x) - F(x') for every layer, up to midpoint-rule error."""

    def f_values(self, model, images, baseline, classes):
        logits_x = model.apply(images)
        logits_b = model.apply(np.broadcast_to(baseline.tensor[None],
                                               images.shape).copy())
        rows = np.arange(images.shape[0])
        return (logits_x[rows, classes].astype(np.float64),
                logits_b[rows, classes].astype(np.float64))

    def test_completeness_on_random_mlp(self):
        model = build_mlp((1, 1, 6), [10, 8], classes=3, seed=12)
        rng = np.random.default_rng(7)
        images = rng.normal(0.5, 0.4, size=(20, 1, 1, 6)).astype(np.float32)
        baseline = zeros_baseline(model)
        from sdcprobe.nnet.training import predict
        classes = predict(model, images)[0]
        comps = conductance_components(model, images, baseline, steps=64,
                                       classes=classes)
        fx, fb = self.f_values(model, images, baseline, classes)
        target = fx - fb
        for lid in range(len(model.layers)):
            total = comps[lid].sum(axis=1)
            err = np.abs(total - target)
            assert np.all(err <= 0.02 * np.abs(target) + 1e-9), \
                f"layer {lid}: max rel err {np.max(err / np.abs(target))}"

    def test_riemann_refinement_shrinks(self):
        model = build_mlp((1, 1, 5), [8], classes=2, seed=3)
        rng = np.random.default_rng(11)
        images = rng.normal(0.4, 0.3, size=(8, 1, 1, 5)).astype(np.float32)
        baseline = zeros_baseline(model)
        score_at = {m: conductance(model, 1, images, baseline, steps=m)
                    for m in (8, 16, 32)}
        d1 = np.linalg.norm(score_at[16] - score_at[8])
        d2 = np.linalg.norm(score_at[32] - score_at[16])
        assert d2 <= d1 + 1e-12


def reference_components(model, images, baseline, steps, classes, batch_size):
    """Conductance the plain way: at every step a recorded forward, a
    backward to every layer output, and a tangent pass that recomputes each
    layer's output from the model input."""
    n = images.shape[0]
    out = {lid: np.zeros((n, int(np.prod(s))), dtype=np.float64)
           for lid, s in enumerate(model.output_shapes())}
    x_prime = baseline.tensor[None]
    for lo in range(0, n, batch_size):
        xb, cb = images[lo:lo + batch_size], classes[lo:lo + batch_size]
        nb = xb.shape[0]
        dx = xb - x_prime
        for m in range(steps):
            xa = (x_prime + ((m + 0.5) / steps) * dx).astype(np.float32)
            g = ComputationGraph()
            logits, _ = model.forward_graph(g, xa)
            grads = g.backward(picked_logit_sum(logits, cb)[1], outputs=True)
            a, t, tans = xa, dx, []
            for layer in model.layers:
                t = layer.jvp(a, t)
                a = layer.apply(a)
                tans.append(t)
            for lid, grad in enumerate(grads):
                term = grad.astype(np.float64) * tans[lid].astype(np.float64)
                out[lid][lo:lo + nb] += term.reshape(nb, -1) / steps
    return out


@st.composite
def attribution_cases(draw):
    """A layer stack, a batch, a baseline, a step count and the scalarized
    classes.  The MLPs without hidden layers have no ReLU at all."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["mlp", "relu_first", "cnn"]))
    if kind == "mlp":
        hidden = draw(st.lists(st.integers(1, 6), max_size=2))
        model = build_mlp((1, 1, 5), hidden, classes=3, seed=seed)
    elif kind == "relu_first":
        f32 = np.float32
        model = Model([Relu(), Flatten(),
                       Linear(rng.normal(size=(4, 5)).astype(f32), rng.normal(size=4).astype(f32)),
                       Relu(), Linear(rng.normal(size=(3, 4)).astype(f32))], (1, 1, 5))
    else:
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=5, classes=3, seed=seed)
    n = draw(st.integers(1, 12))
    images = rng.normal(0.2, 1.0, size=(n,) + model.input_shape).astype(np.float32)
    if draw(st.booleans()):
        baseline = zeros_baseline(model)
    else:
        baseline = Baseline("zeros", rng.normal(size=model.input_shape))
    if draw(st.booleans()):   # the true_class scalarization
        classes = rng.integers(0, 3, size=n)
    else:
        classes = predict(model, images)[0]
    return model, images, baseline, draw(st.integers(1, 8)), classes, draw(st.integers(1, 5))


class TestConductanceEngine:
    @settings(max_examples=80, deadline=None)
    @given(attribution_cases())
    def test_matches_reference_bit_for_bit(self, case):
        model, images, baseline, steps, classes, batch_size = case
        with pytest.MonkeyPatch.context() as mp:   # the chunk size is EVAL_BATCH
            mp.setattr(attribution, "EVAL_BATCH", batch_size)
            got = conductance_components(model, images, baseline, steps, classes=classes)
        want = reference_components(model, images, baseline, steps, classes, batch_size)
        assert sorted(got) == sorted(want)
        for lid in want:
            assert got[lid].tobytes() == want[lid].tobytes(), f"layer {lid}"

    def test_parameter_gradients_left_as_found(self):
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=5, classes=3, seed=2)
        images = np.random.default_rng(4).normal(size=(5, 1, 6, 6)).astype(np.float32)
        params = model.parameters()
        before = [np.full(p.data.shape, 7.0, dtype=np.float32) for p in params]
        for p, grad in zip(params, before):
            p.grad = grad
        conductance_components(model, images, zeros_baseline(model), steps=3)
        assert all(p.grad is grad for p, grad in zip(params, before))
        assert all((grad == 7.0).all() for grad in before)
        for p in params:
            p.grad = None
        conductance_components(model, images, zeros_baseline(model), steps=3)
        assert all(p.grad is None for p in params)


class TestWeightAttribution:
    def test_scalar_linear_gradient_is_input(self):
        # L(x) = w·x with one weight: dL/dw = x = 3
        model = linear_model([[1.0]])
        sums = weight_sums(model, np.array([[[[3.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(sums[1], [3.0])

    def test_opposite_inputs_cancel_before_absolute_value(self):
        model = linear_model([[1.0]])
        x = np.array([3.0, -3.0], dtype=np.float32).reshape(2, 1, 1, 1)
        np.testing.assert_array_equal(weight_sums(model, x)[1], [0.0])

    def test_matches_finite_difference_on_mlp(self):
        model = build_mlp((1, 1, 5), [6], classes=3, seed=8)
        rng = np.random.default_rng(2)
        images = rng.normal(0.3, 0.5, size=(7, 1, 1, 5)).astype(np.float32)
        from sdcprobe.nnet.training import predict
        classes = predict(model, images)[0]

        sums = weight_sums(model, images, classes=classes)
        for lid in model.weight_layer_ids():
            got = sums[lid]
            layer = model.layers[lid]
            w64 = layer.weight.data.astype(np.float64)

            def total_logit():
                keep = layer.weight.data.copy()
                layer.weight.data = w64.astype(np.float32)
                logits = model.apply(images).astype(np.float64)
                layer.weight.data = keep
                return float(logits[np.arange(7), classes].sum())

            eps = 1e-3
            fd = np.zeros(w64.size)
            flat = w64.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = total_logit()
                flat[i] = keep - eps
                lo = total_logit()
                flat[i] = keep
                fd[i] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(got, fd, rtol=1e-3, atol=1e-4)

    def test_linear_in_input_set_on_signed_accumulator(self):
        model = build_mlp((1, 1, 4), [5], classes=2, seed=1)
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 1, 1, 4)).astype(np.float32)
        b = rng.normal(size=(4, 1, 1, 4)).astype(np.float32)
        from sdcprobe.nnet.training import predict
        ca = predict(model, a)[0]
        cb = predict(model, b)[0]
        both = np.concatenate([a, b])
        cboth = np.concatenate([ca, cb])
        sums = [weight_sums(model, x, classes=c) for x, c in ((a, ca), (b, cb), (both, cboth))]
        for lid in model.weight_layer_ids():
            sa, sb, sab = (s[lid] for s in sums)
            # float32 gradient buffers bound the match at single precision;
            # a structurally wrong accumulator (abs before sum) misses by O(1)
            np.testing.assert_allclose(sab, sa + sb, rtol=1e-5, atol=1e-6)

    def test_one_forward_per_chunk_for_every_layer(self, monkeypatch):
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=5, classes=3, seed=2)
        ds = synth_blobs(3, 100, 36, 0.3, seed=5, image_shape=(1, 6, 6))
        rows = []
        forward_graph = Model.forward_graph

        def counted(self, g, x, *args, **kwargs):
            rows.append(len(x))
            return forward_graph(self, g, x, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_graph", counted)
        amap = attribute_all(model, ds, AttributionConfig("neuron_weight"))
        assert rows == [256, 44]
        assert sorted(amap.scores) == model.weight_layer_ids() == [0, 2, 5, 7]
        monkeypatch.undo()
        sums = weight_sums(model, ds.images)
        for lid in model.weight_layer_ids():
            want = np.abs(sums[lid]).astype(np.float32)
            assert amap.scores[lid].tobytes() == want.tobytes()


class TestAttributeAll:
    def make_dataset(self):
        return synth_blobs(2, 30, 6, 0.3, seed=5)

    def test_zero_weight_model_all_zero_scores(self):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        amap = attribute_all(model, self.make_dataset(),
                             AttributionConfig("neuron_weight"))
        for arr in amap.scores.values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_deterministic_given_seed(self):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        ds = self.make_dataset()
        cfg = AttributionConfig("neuron_output", steps=4, sample_count=10, seed=3)
        a = attribute_all(model, ds, cfg)
        b = attribute_all(model, ds, cfg)
        for lid in a.scores:
            np.testing.assert_array_equal(a.scores[lid], b.scores[lid])

    def test_dominant_weight_takes_top_score(self):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        w = model.layers[1].weight
        w.data[2, 3] = 100.0 * np.abs(w.data).max()
        amap = attribute_all(model, self.make_dataset(),
                             AttributionConfig("neuron_weight"))
        lid = model.weight_layer_ids()[0]
        flat_idx = 2 * w.data.shape[1] + 3
        assert int(np.argmax(amap.scores[lid])) == flat_idx

    def test_eligible_layers(self):
        """Flatten owns no neuron outputs: its values alias the raw input."""
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        assert eligible_layers(model, "neuron_output") == [1, 2, 3]
        assert eligible_layers(model, "neuron_weight") == [1, 3]
        with pytest.raises(ConfigError):
            eligible_layers(model, "bias")

    def test_score_counts_match_element_counts(self):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        ds = self.make_dataset()
        amap = attribute_all(model, ds, AttributionConfig("neuron_output", steps=2))
        shapes = model.output_shapes()
        for lid, arr in amap.scores.items():
            assert arr.size == int(np.prod(shapes[lid]))


class TestAttributionFile:
    def test_round_trip(self, tmp_path):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        ds = synth_blobs(2, 10, 6, 0.3, seed=5)
        amap = attribute_all(model, ds, AttributionConfig("neuron_weight", seed=4))
        path = tmp_path / "attr.isat"
        save_attribution(amap, path)
        loaded = load_attribution(path)
        assert loaded.target_kind == amap.target_kind
        assert loaded.model_checksum == model_checksum(model)
        assert loaded.seed == 4
        assert loaded.sample_count == amap.sample_count
        assert sorted(loaded.scores) == sorted(amap.scores)
        for lid in amap.scores:
            np.testing.assert_array_equal(loaded.scores[lid], amap.scores[lid])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.isat"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_attribution(path)

    def test_truncation(self, tmp_path):
        model = build_mlp((1, 1, 6), [4], classes=2, seed=0)
        ds = synth_blobs(2, 10, 6, 0.3, seed=5)
        amap = attribute_all(model, ds, AttributionConfig("neuron_weight"))
        path = tmp_path / "attr.isat"
        save_attribution(amap, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_attribution(path)

    def test_a_layer_listed_twice_rejected(self, tmp_path):
        """A file whose second layer entry names the first layer's id again
        would load with the last entry's scores in place of the first's."""
        amap = AttributionMap("neuron_weight", {1: np.ones(24), 3: np.full(8, 7.0)}, "ck")
        path = tmp_path / "attr.isat"
        save_attribution(amap, path)
        blob = bytearray(path.read_bytes())
        second = len(blob) - (8 + 8 * 4)          # the header of layer 3's 8 scores
        assert struct.unpack_from("<II", blob, second) == (3, 8)
        struct.pack_into("<I", blob, second, 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError,
                           match=f"layer 1 listed twice, again at offset {second}"):
            load_attribution(path)

    def test_negative_scores_rejected(self):
        with pytest.raises(UsageError):
            AttributionMap("neuron_weight", {0: np.array([-1.0])}, "")

    def test_non_finite_scores_rejected(self):
        with pytest.raises(UsageError):
            AttributionMap("neuron_weight", {0: np.array([np.inf])}, "")


class TestBaseline:
    def test_dataset_mean(self):
        ds = synth_blobs(2, 10, 4, 0.2, seed=1)
        model = build_mlp((1, 1, 4), [], classes=2, seed=0)
        b = make_baseline("dataset_mean", model, ds)
        np.testing.assert_allclose(b.tensor, ds.images.mean(axis=0))

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_below_one_refused(self, count):
        with pytest.raises(ConfigError, match="sample_count"):
            AttributionConfig("neuron_output", sample_count=count)

    def test_unknown_kind(self):
        model = build_mlp((1, 1, 4), [], classes=2, seed=0)
        with pytest.raises(ConfigError):
            make_baseline("ones", model)

    def test_shape_mismatch_detected(self):
        model = build_mlp((1, 1, 4), [], classes=2, seed=0)
        bad = Baseline("zeros", np.zeros((1, 1, 5), dtype=np.float32))
        with pytest.raises(ConfigError):
            conductance(model, 0, np.ones((1, 1, 1, 4), dtype=np.float32), bad, 2)
