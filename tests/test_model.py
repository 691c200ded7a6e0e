"""Model/layer tests: forward oracles, JVP consistency, checkpoints."""

import struct

import numpy as np
import pytest

from sdcprobe.data import Dataset
from sdcprobe.errors import ConfigError, DataFormatError, UsageError
from sdcprobe.nnet import (
    ActivationFault,
    ComputationGraph,
    Conv2d,
    Flatten,
    Linear,
    Model,
    Relu,
    build_cnn,
    build_mlp,
    evaluate_detailed,
    load_checkpoint,
    model_checksum,
    save_checkpoint,
)
from sdcprobe.bitfloat import flip_bit, flip_bit_many


def conv2d_naive(x, w, b=None, stride=1):
    """Six-nested-loop reference convolution, float64 accumulator per cell."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=np.float32)
    for ni in range(n):
        for oi in range(o):
            for y0 in range(oh):
                for x0 in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += float(x[ni, ci, y0 * stride + i, x0 * stride + j]) \
                                     * float(w[oi, ci, i, j])
                    if b is not None:
                        acc += float(b[oi])
                    out[ni, oi, y0, x0] = np.float32(acc)
    return out


class TestConvForward:
    def test_matches_naive_reference_exactly_on_integer_tensors(self):
        # Integer-valued float32 tensors make every partial sum exactly
        # representable, so any summation order gives the same bits.
        rng = np.random.default_rng(0)
        x = rng.integers(-4, 5, size=(3, 2, 6, 6)).astype(np.float32)
        w = rng.integers(-4, 5, size=(4, 2, 3, 3)).astype(np.float32)
        b = rng.integers(-4, 5, size=4).astype(np.float32)
        layer = Conv2d(w, b)
        np.testing.assert_array_equal(layer.apply(x), conv2d_naive(x, w, b))

    def test_matches_naive_reference_on_continuous_tensors(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 7)).astype(np.float32)
        w = rng.normal(size=(2, 3, 2, 3)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        layer = Conv2d(w, b)
        np.testing.assert_allclose(layer.apply(x), conv2d_naive(x, w, b), rtol=1e-6)

    def test_stride_two(self):
        rng = np.random.default_rng(2)
        x = rng.integers(-3, 4, size=(1, 1, 7, 7)).astype(np.float32)
        w = rng.integers(-3, 4, size=(2, 1, 3, 3)).astype(np.float32)
        layer = Conv2d(w, stride=2)
        assert layer.apply(x).shape == (1, 2, 3, 3)
        np.testing.assert_array_equal(layer.apply(x), conv2d_naive(x, w, stride=2))

    def test_tape_forward_matches_apply(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
                       rng.normal(size=3).astype(np.float32))
        y, (cols, xshape) = layer.forward(x)
        np.testing.assert_array_equal(y, layer.apply(x))
        assert xshape == x.shape and cols.dtype == np.float64
        model = Model([layer], input_shape=(2, 5, 5))
        logits, _ = model.forward_graph(ComputationGraph(), x)
        np.testing.assert_array_equal(logits, model.apply(x))


class TestModelForward:
    def test_identity_linear_passthrough(self):
        model = Model([Flatten(), Linear(np.eye(3, dtype=np.float32))], (1, 1, 3))
        out = model.apply(np.array([[[[1.0, 2.0, 3.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_zero_weight_model_gives_zero_logits(self):
        model = build_mlp((1, 1, 4), [3], classes=2, seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        out = model.apply(np.ones((5, 1, 1, 4), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((5, 2), dtype=np.float32))

    def test_hand_computed_two_layer_mlp(self):
        # x=[1,0]: h = relu(W1 x) = relu([1,3]) = [1,3]; logits = W2 h = [1+6, 3] = [7,3]
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        w2 = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.float32)
        model = Model([Flatten(), Linear(w1), Relu(), Linear(w2)], (1, 1, 2))
        out = model.apply(np.array([1.0, 0.0], dtype=np.float32).reshape(1, 1, 1, 2))
        np.testing.assert_array_equal(out, [[7.0, 3.0]])

    def test_batch_shape_checked(self):
        model = build_mlp((1, 1, 4), [], classes=2, seed=0)
        with pytest.raises(ConfigError):
            model.apply(np.ones((2, 1, 1, 5), dtype=np.float32))

    def test_layer_composition_checked(self):
        with pytest.raises(ConfigError):
            Model([Flatten(), Linear(np.ones((2, 5), dtype=np.float32))], (1, 1, 3))

    def test_output_shapes(self):
        model = build_cnn((1, 8, 8), (3, 4), kernel=3, hidden=10, classes=2, seed=0)
        kinds = [l.kind for l in model.layers]
        assert kinds == ["conv2d", "relu", "conv2d", "relu", "flatten",
                         "linear", "relu", "linear"]
        shapes = model.output_shapes()
        assert shapes[0] == (3, 6, 6)
        assert shapes[2] == (4, 4, 4)
        assert shapes[4] == (64,)
        assert shapes[-1] == (2,)

    def test_tape_and_plain_forward_agree(self):
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=7)
        x = np.random.default_rng(5).normal(size=(4, 1, 6, 6)).astype(np.float32)
        g = ComputationGraph()
        logits_t, acts_t = model.forward_graph(g, x)
        logits, acts = model.apply(x, return_activations=True)
        np.testing.assert_array_equal(logits_t, logits)
        for a_t, a in zip(acts_t, acts):
            np.testing.assert_array_equal(a_t, a)


class TestActivationFaults:
    def test_fault_flips_one_column_in_both_paths(self):
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=7)
        x = np.random.default_rng(5).normal(size=(4, 1, 6, 6)).astype(np.float32)
        fault = ActivationFault(layer_id=1, element_index=10, bit_index=31)
        clean, clean_acts = model.apply(x, return_activations=True)
        faulty, faulty_acts = model.apply(x, output_faults=[fault], return_activations=True)

        flat_clean = clean_acts[1].reshape(4, -1)
        flat_faulty = faulty_acts[1].reshape(4, -1)
        for n in range(4):
            assert flat_faulty[n, 10] == flip_bit(flat_clean[n, 10], 31)
        mask = np.ones(flat_clean.shape[1], dtype=bool)
        mask[10] = False
        np.testing.assert_array_equal(flat_faulty[:, mask], flat_clean[:, mask])

        g = ComputationGraph()
        logits_t, _ = model.forward_graph(g, x, output_faults=[fault])
        np.testing.assert_array_equal(logits_t, faulty)

    def test_multiple_faults_on_one_layer(self):
        model = build_mlp((1, 1, 4), [6], classes=2, seed=3)
        x = np.random.default_rng(0).normal(size=(2, 1, 1, 4)).astype(np.float32)
        faults = [ActivationFault(1, 0, 31), ActivationFault(1, 3, 31)]
        _, acts = model.apply(x, output_faults=faults, return_activations=True)
        _, clean_acts = model.apply(x, return_activations=True)
        diff = (acts[1] != clean_acts[1]) | (np.signbit(acts[1]) != np.signbit(clean_acts[1]))
        assert set(np.nonzero(diff.any(axis=0))[0]) <= {0, 3}

    def test_patch_is_one_xor_equal_to_flipping_each_fault(self):
        """A layer's output faults are one XOR of a mask row into a copy:
        the same bits as flipping every fault's column in turn, with faults
        on one element combined (two bits flip, a repeated fault cancels).
        The faulted output here is a flatten view of the input, which is
        never written."""
        x = np.random.default_rng(4).normal(size=(5, 2, 3)).astype(np.float32)
        x[0, 0, 0] = np.nan
        frozen = x.copy()
        model = Model([Flatten(), Flatten(), Flatten()], (2, 3))
        faults = [ActivationFault(2, 1, 30), ActivationFault(2, 4, 0), ActivationFault(2, 4, 31),
                  ActivationFault(2, 5, 23), ActivationFault(2, 5, 23), ActivationFault(2, 0, 22)]
        want = x.reshape(5, -1).copy()
        for f in faults:
            want[:, f.element_index] = flip_bit_many(want[:, f.element_index], f.bit_index)
        got = model.apply(x, output_faults=faults)
        assert got.shape == (5, 6)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(got[:, 5].view(np.uint32), x[:, 1, 2].view(np.uint32))
        assert np.array_equal(x.view(np.uint32), frozen.view(np.uint32))

    def test_patch_rejects_bad_element_and_bit(self):
        model = Model([Flatten()], (6,))
        x = np.ones((2, 6), dtype=np.float32)
        with pytest.raises(UsageError, match="element 6 out of range"):
            model.apply(x, output_faults=[ActivationFault(0, 6, 0)])
        with pytest.raises(ValueError, match="out of range \\[0, 31\\]"):
            model.apply(x, output_faults=[ActivationFault(0, 1, 32)])

    @pytest.mark.parametrize("layer_id", [-1, 4, 99])
    def test_fault_on_a_missing_layer_refused(self, layer_id):
        """A fault on no layer of the model raises in every forward path
        instead of leaving the logits clean; one before a resumed pass's
        start layer is still the caller's business."""
        model = build_mlp((1, 1, 4), [5], 2, seed=1)
        x = np.ones((3, 1, 1, 4), dtype=np.float32)
        faults = [ActivationFault(1, 0, 30), ActivationFault(layer_id, 0, 30)]
        with pytest.raises(UsageError, match=f"layer id {layer_id} out of range"):
            model.apply(x, output_faults=faults)
        with pytest.raises(UsageError, match="out of range"):
            model.forward_graph(ComputationGraph(), x, output_faults=faults)
        with pytest.raises(UsageError, match="out of range"):
            evaluate_detailed(model, Dataset(x, np.zeros(3, dtype=np.int64), split="test"),
                              output_faults=faults)
        acts = model.apply(x, return_activations=True)[1]
        np.testing.assert_array_equal(
            model.apply(acts[1], start=2, output_faults=faults[:1]), model.apply(x))

    def test_fault_on_flatten_does_not_corrupt_previous_activation(self):
        model = build_cnn((1, 6, 6), (2, 2), kernel=3, hidden=4, classes=2, seed=1)
        x = np.abs(np.random.default_rng(2).normal(size=(2, 1, 6, 6))).astype(np.float32)
        fault = ActivationFault(layer_id=4, element_index=0, bit_index=31)
        _, acts = model.apply(x, output_faults=[fault], return_activations=True)
        _, clean_acts = model.apply(x, return_activations=True)
        np.testing.assert_array_equal(acts[3], clean_acts[3])


class TestStackedVariants:
    """Model.apply runs K variants in one pass, each bit-identical to its
    own pass, because every variant makes the BLAS calls of that pass."""

    # (K, N, I, O) of Linear layers.  At (2, 1, 16, 3) and at the last,
    # I=64, folding the K batches into one [K*N, I] product rounds most
    # float64 results differently under OpenBLAS 0.3 (4 of 6 and 9424 of
    # 11520), which is why the variant axis stays separate
    SHAPES = [(1, 45, 16, 16), (3, 45, 16, 3), (24, 45, 16, 16), (4, 256, 36, 16),
              (2, 1, 16, 3), (5, 7, 12, 16), (9, 300, 64, 10), (16, 45, 64, 16)]

    @pytest.mark.parametrize("k, n, i, o", SHAPES)
    def test_float64_stacked_matmuls_equal_per_slice_calls(self, k, n, i, o):
        rng = np.random.default_rng(k * 1000 + n)
        x = rng.normal(size=(k, n, i))
        w = rng.normal(size=(o, i))
        stack = rng.normal(size=(k, o, i))
        per_slice = np.stack([x[v] @ w.T for v in range(k)])
        assert np.array_equal((x @ w.T).view(np.uint64), per_slice.view(np.uint64))
        per_weight = np.stack([x[0] @ stack[v].T for v in range(k)])
        assert np.array_equal((x[0] @ stack.transpose(0, 2, 1)).view(np.uint64),
                              per_weight.view(np.uint64))

    @pytest.mark.parametrize("k, n, i, o", SHAPES)
    def test_linear_variants_equal_per_variant_passes(self, k, n, i, o):
        rng = np.random.default_rng(k + n)
        layer = Linear(rng.normal(size=(o, i)), rng.normal(size=o))
        x = rng.normal(size=(k * n, i)).astype(np.float32)
        stack = rng.normal(size=(k, o, i)).astype(np.float32)
        want = np.concatenate([layer.apply(x[v * n:(v + 1) * n]) for v in range(k)])
        assert np.array_equal(layer.apply(x, k).view(np.uint32), want.view(np.uint32))
        want = np.concatenate([Linear(stack[v], layer.bias.data).apply(x[:n])
                               for v in range(k)])
        got = layer.apply(x[:n], weights=stack)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_linear_variants_keep_the_per_variant_summation_order(self):
        """Rows of 2^60, 1 and -2^60 give 0 or 1 depending on the order a
        gemm sums them in, so float32 outputs show any change of order.
        A folded [K*N, I] product changes it for about half the rows."""
        k, n, i, o = 16, 45, 64, 16
        rng = np.random.default_rng(0)
        x = np.zeros((k * n, i), dtype=np.float32)
        for row in x:
            row[rng.choice(i, 3, replace=False)] = [2.0 ** 60, 1.0, -2.0 ** 60]
        stack = np.ones((k, o, i), dtype=np.float32)
        layer = Linear(stack[0])
        want = np.concatenate([layer.apply(v) for v in np.split(x, k)])
        assert 0 < np.count_nonzero(want) < want.size
        assert np.array_equal(layer.apply(x, k).view(np.uint32), want.view(np.uint32))
        got = layer.apply(x[:n], weights=stack)
        assert np.array_equal(got.view(np.uint32), np.tile(want[:n], (k, 1)).view(np.uint32))

    def test_conv_weight_stack_equals_per_variant_passes(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
        x = rng.normal(size=(45, 3, 6, 6)).astype(np.float32)
        stack = rng.normal(size=(5, 4, 3, 3, 3)).astype(np.float32)
        want = np.concatenate([Conv2d(w, layer.bias.data).apply(x) for w in stack])
        got = layer.apply(x, weights=stack)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_model_variants_equal_per_variant_passes(self):
        """Output variants stacked along the rows from layer 2, and weight
        variants of layer 2, against one pass per variant."""
        model = build_cnn((1, 6, 6), (3, 4), kernel=3, hidden=16, classes=3, seed=2)
        x = np.random.default_rng(1).normal(size=(45, 1, 6, 6)).astype(np.float32)
        h = model.apply(x, stop=2)
        assert np.array_equal(h, model.apply(x, return_activations=True)[1][1])
        variants = np.stack([h * (v + 1) for v in range(3)]).reshape(-1, *h.shape[1:])
        want = np.concatenate([model.apply(v, start=2) for v in np.split(variants, 3)])
        got = model.apply(variants, start=2, variants=3)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        w = model.layers[2].weight.data
        stack = np.stack([w, -w, 2 * w])
        want = []
        for v in stack:
            replica = model.copy()
            replica.layers[2].weight.data[...] = v
            want.append(replica.apply(h, start=2))
        got = model.apply(h, start=2, weights=stack)
        assert np.array_equal(got.view(np.uint32), np.concatenate(want).view(np.uint32))

    def test_weight_stack_must_fit_the_start_layer(self):
        model = build_mlp((1, 1, 4), [6], classes=2, seed=3)
        x = np.ones((2, 4), dtype=np.float32)
        with pytest.raises(UsageError, match="does not fit layer 1"):
            model.apply(x, start=1, weights=np.ones((2, 6, 5), dtype=np.float32))
        with pytest.raises(UsageError, match="does not fit layer 2"):
            model.apply(np.ones((2, 6), dtype=np.float32), start=2,
                        weights=np.ones((2, 6, 6), dtype=np.float32))


class TestJvp:
    def test_transpose_consistency_with_backward(self):
        # <grad_x, dx> must equal <r, J dx> when both sides share the same
        # linearization; holds per layer output.  grad_x chains the layers'
        # own backward (input gradients included) from layer lid down.
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=9)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 1, 6, 6)).astype(np.float32)
        dx = rng.normal(size=x.shape).astype(np.float32)
        _, acts = model.apply(x, return_activations=True)
        tans = model.jvp(x, dx, acts)
        for lid in range(len(model.layers)):
            r = rng.normal(size=acts[lid].shape).astype(np.float32)
            g = ComputationGraph()
            model.forward_graph(g, x)
            grad = r
            for layer, cache in zip(g.layers[lid::-1], g.caches[lid::-1]):
                grad, _ = layer.backward(grad, cache, True)
            lhs = float((grad.astype(np.float64) * dx).sum())
            rhs = float((r.astype(np.float64) * tans[lid]).sum())
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs))

    def test_jvp_matches_fd_on_kink_free_model(self):
        model = build_mlp((1, 1, 5), [], classes=3, seed=4)  # purely linear
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 1, 1, 5)).astype(np.float32)
        dx = rng.normal(size=x.shape).astype(np.float32)
        tans = model.jvp(x, dx, model.apply(x, return_activations=True)[1])
        eps = 1e-2
        fd = (model.apply(x + eps * dx).astype(np.float64)
              - model.apply(x - eps * dx).astype(np.float64)) / (2 * eps)
        np.testing.assert_allclose(tans[-1], fd, rtol=1e-3, atol=1e-4)

    def test_relu_tangent_masked(self):
        model = Model([Flatten(), Linear(np.eye(2, dtype=np.float32)), Relu()], (1, 1, 2))
        x = np.array([[-1.0, 2.0]], dtype=np.float32).reshape(1, 1, 1, 2)
        dx = np.ones_like(x)
        tans = model.jvp(x, dx, model.apply(x, return_activations=True)[1])
        np.testing.assert_array_equal(tans[-1], [[0.0, 1.0]])

    def test_resumed_pass_gives_the_same_tail(self):
        """With start=L, the tangents of layers L.. from the input of layer
        L and its tangent equal those of the full pass, bit for bit."""
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=9)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 1, 6, 6)).astype(np.float32)
        dx = rng.normal(size=x.shape).astype(np.float32)
        _, acts = model.apply(x, return_activations=True)
        tans = model.jvp(x, dx, acts)
        for start in range(1, len(model.layers) + 1):
            tail = model.jvp(acts[start - 1], tans[start - 1], acts[start:], start)
            assert len(tail) == len(model.layers) - start
            for got, want in zip(tail, tans[start:]):
                assert got.tobytes() == want.tobytes()
        with pytest.raises(UsageError):
            model.jvp(x, dx, acts[1:])
        with pytest.raises(ConfigError):
            model.jvp(x, dx, acts[2:], start=2)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_cnn((1, 7, 7), (2, 3), kernel=3, hidden=9, classes=4, seed=21)
        # exercise non-trivial bit patterns, including a subnormal
        model.layers[0].weight.data[0, 0, 0, 0] = np.float32(1e-41)
        path = tmp_path / "model.isdl"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert model_checksum(loaded) == model_checksum(model)
        assert loaded.input_shape == model.input_shape
        assert [l.kind for l in loaded.layers] == [l.kind for l in model.layers]
        for a, b in zip(loaded.parameters(), model.parameters()):
            np.testing.assert_array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.isdl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected_with_offset(self, tmp_path):
        model = build_mlp((1, 1, 3), [2], classes=2, seed=0)
        path = tmp_path / "model.isdl"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 5])
        with pytest.raises(DataFormatError, match="offset"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_mlp((1, 1, 3), [], classes=2, seed=0)
        path = tmp_path / "model.isdl"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(path)

    def test_malformed_layers_rejected_as_format_errors(self, tmp_path):
        """Weights of the wrong rank, a zero stride and layers that do not
        compose are defects of the file, not of the caller."""
        def ckpt(stride, wdims, in_dims=(1, 6, 6)):
            w = np.zeros(int(np.prod(wdims)), dtype="<f4").tobytes()
            return b"".join([b"ISDL", struct.pack("<2I", 1, len(in_dims)),
                             struct.pack(f"<{len(in_dims)}I", *in_dims),
                             struct.pack("<3I", 1, 0, stride), struct.pack("<I", len(wdims)),
                             struct.pack(f"<{len(wdims)}I", *wdims), w, struct.pack("<I", 0)])
        path = tmp_path / "bad.isdl"
        for blob, message in ((ckpt(1, (2, 3, 3)), "3 dims"), (ckpt(0, (2, 1, 3, 3)), "stride"),
                              (ckpt(1, (2, 2, 3, 3)), "compose")):
            path.write_bytes(blob)
            with pytest.raises(DataFormatError, match=message):
                load_checkpoint(path)
        path.write_bytes(ckpt(1, (2, 1, 3, 3)))
        assert load_checkpoint(path).output_shapes() == [(2, 4, 4)]

    def test_checksum_sensitive_to_single_bit(self):
        model = build_mlp((1, 1, 3), [2], classes=2, seed=0)
        before = model_checksum(model)
        w = model.layers[1].weight.data
        w.reshape(-1)[0] = flip_bit(w.reshape(-1)[0], 0)
        assert model_checksum(model) != before

    def test_copy_is_independent(self):
        model = build_mlp((1, 1, 3), [2], classes=2, seed=0)
        clone = model.copy()
        assert model_checksum(clone) == model_checksum(model)
        clone.layers[1].weight.data[0, 0] = 99.0
        assert model_checksum(clone) != model_checksum(model)


class TestBuilders:
    @pytest.mark.parametrize("kwargs", [dict(kernel=0), dict(kernel=-1),
                                        dict(conv_channels=[0, 4]), dict(conv_channels=[3, 0]),
                                        dict(hidden=0)])
    def test_cnn_refuses_sizes_below_one(self, kwargs):
        """A zero kernel, channel count or width would divide by zero in
        the init; it is refused before any weight is drawn."""
        with pytest.raises(UsageError, match="must be >= 1"):
            build_cnn(**{**dict(input_shape=(1, 6, 6), conv_channels=[3, 4], kernel=3,
                                hidden=16, classes=3, seed=0), **kwargs})

    @pytest.mark.parametrize("hidden", [[0], [4, 0], [-2]])
    def test_mlp_refuses_hidden_widths_below_one(self, hidden):
        with pytest.raises(UsageError, match="hidden width must be >= 1"):
            build_mlp((1, 1, 6), hidden, 3, seed=0)
