"""Layer backward and graph backward tests.

Every layer's backward, the graph walk and the two loss gradients are
checked against a central finite difference of an independent float64
reference implementation of the same operation (ε=1e-3, relative tolerance
1e-3 with a 1e-6 absolute floor).
"""

import numpy as np
import pytest

from sdcprobe.errors import UsageError
from sdcprobe.nnet import (ActivationFault, Conv2d, Flatten, Linear, Model, Relu,
                           build_cnn, build_mlp)
from sdcprobe.nnet.autodiff import (ComputationGraph, picked_logit_sum,
                                    softmax_cross_entropy)

RTOL, ATOL, EPS = 1e-3, 1e-6, 1e-3
f32 = np.float32


def fd_grads(loss_fn, arrays, eps=EPS):
    """Central finite differences of a float64 scalar function, per array."""
    grads = []
    for a in arrays:
        g = np.zeros(a.shape, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss_fn()
            flat[i] = keep - eps
            lo = loss_fn()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check(got_grads, fd):
    for got, want in zip(got_grads, fd):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def layer_grads(layer, x, r):
    """(input gradient, parameter gradients) of sum(r * layer(x))."""
    _, cache = layer.forward(x)
    return layer.backward(r.astype(f32), cache, True)


class TestOpGradients:
    """Per-op finite-difference oracle, 100 random instances each."""

    N_INSTANCES = 100

    def seeds(self):
        return range(self.N_INSTANCES)

    def test_linear(self):
        for s in self.seeds():
            rng = np.random.default_rng(1000 + s)
            x = rng.normal(size=(3, 5)).astype(f32)
            layer = Linear(rng.normal(size=(4, 5)), rng.normal(size=4))
            r = rng.normal(size=(3, 4))
            gx, (gw, gb) = layer_grads(layer, x, r)

            # float64 references over the same float32 values
            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))
            loss = lambda: float(((x64 @ w64.T + b64) * r).sum())
            check([gx, gw, gb], fd_grads(loss, [x64, w64, b64]))

    def test_conv2d(self):
        for s in range(30):  # heavier op: fewer, larger instances
            rng = np.random.default_rng(2000 + s)
            x = rng.normal(size=(2, 2, 5, 5)).astype(f32)
            layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
            r = rng.normal(size=(2, 3, 3, 3))
            gx, (gw, gb) = layer_grads(layer, x, r)

            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))

            # independent reference: explicit shifted sums, float64 throughout
            def conv_ref():
                n, _, h, wd = x64.shape
                o, _, kh, kw = w64.shape
                oh, ow = h - kh + 1, wd - kw + 1
                out = np.zeros((n, o, oh, ow))
                for i in range(kh):
                    for j in range(kw):
                        out += np.einsum("nchw,oc->nohw",
                                         x64[:, :, i:i + oh, j:j + ow], w64[:, :, i, j])
                out += b64[None, :, None, None]
                return float((out * r).sum())

            check([gx, gw, gb], fd_grads(conv_ref, [x64, w64, b64]))

    def test_relu(self):
        for s in self.seeds():
            rng = np.random.default_rng(3000 + s)
            # keep inputs away from the kink so FD stays one-sided
            x64 = rng.choice([-1.0, 1.0], size=(4, 6)) * rng.uniform(0.1, 2.0, size=(4, 6))
            r = rng.normal(size=(4, 6))
            x = x64.astype(f32)
            gx, grads = layer_grads(Relu(), x, r)
            assert grads == ()

            x64 = x.astype(np.float64)
            loss = lambda: float((np.maximum(x64, 0) * r).sum())
            check([gx], fd_grads(loss, [x64]))

    def test_pick_and_sum(self):
        for s in self.seeds():
            rng = np.random.default_rng(4000 + s)
            x = rng.normal(size=(5, 4)).astype(f32)
            idx = rng.integers(0, 4, size=5)
            value, gx = picked_logit_sum(x, idx)

            x64 = x.astype(np.float64)
            ref = lambda: float(x64[np.arange(5), idx].sum())
            assert value == pytest.approx(ref(), rel=1e-6)
            check([gx], fd_grads(ref, [x64]))

    def test_softmax_cross_entropy(self):
        for s in self.seeds():
            rng = np.random.default_rng(5000 + s)
            z = (rng.normal(size=(3, 4)) * 1.5).astype(f32)
            labels = rng.integers(0, 4, size=3)
            loss, gz = softmax_cross_entropy(z, labels)

            z64 = z.astype(np.float64)

            def ref():
                m = z64 - z64.max(axis=1, keepdims=True)
                lse = np.log(np.exp(m).sum(axis=1))
                return float((lse - m[np.arange(3), labels]).mean())

            assert loss == pytest.approx(ref(), rel=1e-6)
            check([gz], fd_grads(ref, [z64]))

    def test_column_patch(self):
        """An output fault's overwritten column is a constant to backward:
        the graph gradient of the faulted layer's parameters matches the
        finite difference of a forward whose column holds fixed values."""
        for s in self.seeds():
            rng = np.random.default_rng(6000 + s)
            x = rng.normal(size=(4, 5)).astype(f32)
            model = Model([Linear(rng.normal(size=(6, 5)), rng.normal(size=6)), Relu()],
                          input_shape=(5,))
            col = int(rng.integers(0, 6))
            bit = int(rng.choice([*range(23), 31]))
            r = rng.normal(size=(4, 6))

            g = ComputationGraph()
            _, acts = model.forward_graph(g, x, [ActivationFault(0, col, bit)])
            g.backward(r.astype(f32))

            layer = model.layers[0]
            vals = acts[0][:, col].astype(np.float64)
            x64, w64, b64 = (a.astype(np.float64) for a in (x, layer.weight.data,
                                                            layer.bias.data))

            def ref():
                out = x64 @ w64.T + b64
                out[:, col] = vals
                return float((np.maximum(out, 0) * r).sum())

            check([layer.weight.grad, layer.bias.grad], fd_grads(ref, [w64, b64]))

    def test_flatten(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 2, 2)).astype(f32)
        y, cache = Flatten().forward(x)
        assert y.shape == (2, 12)
        r = rng.normal(size=(2, 12)).astype(f32)
        gx, grads = Flatten().backward(r, cache, True)
        assert grads == ()
        np.testing.assert_array_equal(gx, r.reshape(2, 3, 2, 2))


class TestBackwardMechanics:
    def test_scalar_product_gradient(self):
        # loss = w·x with x=3, w=2: grad(w) = 3
        model = Model([Linear([[2.0]])], input_shape=(1,))
        g = ComputationGraph()
        model.forward_graph(g, [[3.0]])
        g.backward(np.ones((1, 1), dtype=f32))
        assert model.layers[0].weight.grad[0, 0] == 3.0

    def test_dead_relu_blocks_gradient(self):
        x = np.array([[-5.0]], dtype=f32)
        gx, _ = layer_grads(Relu(), x, np.ones((1, 1)))
        assert gx[0, 0] == 0.0

    def test_backward_requires_scalar(self):
        """backward takes the gradient of a scalar loss with respect to the
        logits, so a gradient of any other shape is refused."""
        model = build_mlp((1, 1, 3), [2], classes=2, seed=0)
        g = ComputationGraph()
        model.forward_graph(g, np.ones((2, 1, 1, 3), dtype=f32))
        with pytest.raises(UsageError):
            g.backward(np.float32(1.0))
        with pytest.raises(UsageError):
            g.backward(np.ones((2, 3), dtype=f32))

    def test_each_backward_overwrites_gradients(self):
        model = Model([Linear([[1.0]])], input_shape=(1,))
        w = model.layers[0].weight
        for _ in range(2):
            g = ComputationGraph()
            model.forward_graph(g, [[4.0]])
            g.backward(np.ones((1, 1), dtype=f32))
        assert w.grad[0, 0] == 4.0

    def test_softmax_gradients_sum_to_zero_per_sample(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 5)).astype(f32)
        _, gz = softmax_cross_entropy(z, rng.integers(0, 5, size=6))
        np.testing.assert_allclose(gz.sum(axis=1), np.zeros(6), atol=1e-7)

    def test_column_patch_injects_exact_values_and_blocks_grad(self):
        model = Model([Linear(np.eye(3, dtype=f32))], input_shape=(3,))
        x = np.arange(6, dtype=f32).reshape(2, 3) + 1
        g = ComputationGraph()
        out, _ = model.forward_graph(g, x, [ActivationFault(0, 1, 31)])
        np.testing.assert_array_equal(out[:, 1], -x[:, 1])
        np.testing.assert_array_equal(out[:, [0, 2]], x[:, [0, 2]])
        ones = np.ones((2, 3), dtype=f32)
        grads = g.backward(ones)
        # the faulted layer's own output gradient is reported as it arrived ...
        np.testing.assert_array_equal(grads[0], ones)
        # ... but the overwritten column passes nothing into the layer
        np.testing.assert_array_equal(model.layers[0].weight.grad,
                                      [[5, 7, 9], [0, 0, 0], [5, 7, 9]])

    def test_column_patch_rejects_bad_index(self):
        model = Model([Linear(np.eye(3, dtype=f32))], input_shape=(3,))
        for bad in (3, -1):
            with pytest.raises(UsageError):
                model.forward_graph(ComputationGraph(), np.ones((2, 3), dtype=f32),
                                    [ActivationFault(0, bad, 0)])
            with pytest.raises(UsageError):
                model.apply(np.ones((2, 3), dtype=f32), [ActivationFault(0, bad, 0)])

    def test_shape_mismatch_rejected(self):
        logits = np.ones((2, 3), dtype=f32)
        with pytest.raises(UsageError):
            softmax_cross_entropy(logits, [0, 1, 2])
        with pytest.raises(UsageError):
            picked_logit_sum(logits, [[0], [1]])
        with pytest.raises(UsageError):
            softmax_cross_entropy(logits[0], [0])

    def test_gradients_are_float32_with_positive_zero(self):
        # -1 * 0 gives -0.0 in the relu mask product; stored gradients,
        # like the zeros-plus-g accumulation they replace, carry +0.0
        x = np.array([[-1.0, 2.0]], dtype=f32)
        gx, _ = layer_grads(Relu(), x, np.array([[-1.0, -1.0]]))
        assert gx.dtype == np.float32
        assert not np.signbit(gx[0, 0]) and gx[0, 1] == -1.0
        layer = Linear(np.zeros((2, 2), dtype=f32), np.zeros(2, dtype=f32))
        gx, (gw, gb) = layer_grads(layer, np.array([[0.0, -0.0]], dtype=f32),
                                   np.array([[-0.0, -0.0]]))
        for a in (gx, gw, gb):
            assert a.dtype == np.float32 and not np.signbit(a).any()


class TestGraphWalk:
    def test_nothing_below_the_first_layer_with_parameters(self):
        """Training needs no gradient under the first parameterized layer:
        the walk stops there and never asks it for its input gradient."""
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=7)
        x = np.random.default_rng(5).normal(size=(4, 1, 6, 6)).astype(f32)
        asked = []
        for lid, layer in enumerate(model.layers):
            def spy(g, cache, need_gx, params=True, _orig=layer.backward, _lid=lid):
                asked.append((_lid, need_gx))
                return _orig(g, cache, need_gx, params)
            layer.backward = spy
        g = ComputationGraph()
        logits, _ = model.forward_graph(g, x)
        grads = g.backward(softmax_cross_entropy(logits, [0, 1, 2, 0])[1])
        assert asked == [(7, True), (6, True), (5, True), (4, True), (3, True),
                         (2, True), (1, True), (0, False)]
        assert all(gr is not None for gr in grads)
        assert all(p.grad is not None for p in model.parameters())

        mlp = build_mlp((1, 1, 4), [3], classes=2, seed=0)
        g = ComputationGraph()
        logits, _ = mlp.forward_graph(g, np.ones((2, 1, 1, 4), dtype=f32))
        glogits = np.ones_like(logits)
        assert g.backward(glogits)[0] is None          # flatten output: not needed
        full = g.backward(glogits, outputs=True)[0]    # conductance asks for it
        want = (glogits @ mlp.layers[3].weight.data * (g.caches[2] > 0)
                @ mlp.layers[1].weight.data)
        np.testing.assert_allclose(full, want, rtol=1e-6)

    def test_outputs_pass_writes_no_parameter_gradient(self):
        """outputs=True asks no layer for its parameter gradients, and its
        layer-output gradients equal the training pass's bit for bit where
        both compute them."""
        model = build_cnn((1, 6, 6), (2, 3), kernel=3, hidden=8, classes=3, seed=7)
        x = np.random.default_rng(5).normal(size=(4, 1, 6, 6)).astype(f32)
        g = ComputationGraph()
        logits, _ = model.forward_graph(g, x)
        glogits = softmax_cross_entropy(logits, [0, 1, 2, 0])[1]
        train_grads = g.backward(glogits)
        for p in model.parameters():
            p.grad = None
        out_grads = g.backward(glogits, outputs=True)
        assert all(p.grad is None for p in model.parameters())
        assert all(gr is not None for gr in out_grads)
        for a, b in zip(train_grads, out_grads):
            assert a.tobytes() == b.tobytes()


class TestMlpGradcheck:
    """Spec-level oracle: every parameter gradient of a random 3-layer MLP
    matches a finite difference of an independent float64 forward."""

    def test_three_layer_mlp(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 6)).astype(f32)
        labels = rng.integers(0, 3, size=4)
        w1, b1 = rng.normal(size=(8, 6)) * 0.5, rng.normal(size=8) * 0.1
        w2, b2 = rng.normal(size=(5, 8)) * 0.5, rng.normal(size=5) * 0.1
        w3, b3 = rng.normal(size=(3, 5)) * 0.5, rng.normal(size=3) * 0.1
        model = Model([Linear(w1, b1), Relu(), Linear(w2, b2), Relu(), Linear(w3, b3)],
                      input_shape=(6,))

        g = ComputationGraph()
        logits, _ = model.forward_graph(g, x)
        g.backward(softmax_cross_entropy(logits, labels)[1])

        params = model.parameters()
        arrays = [p.data.astype(np.float64) for p in params]
        xf = x.astype(np.float64)

        def ref():
            a1, c1, a2, c2, a3, c3 = arrays
            h1 = np.maximum(xf @ a1.T + c1, 0)
            h2 = np.maximum(h1 @ a2.T + c2, 0)
            z = h2 @ a3.T + c3
            m = z - z.max(axis=1, keepdims=True)
            lse = np.log(np.exp(m).sum(axis=1))
            return float((lse - m[np.arange(4), labels]).mean())

        fd = fd_grads(ref, arrays)
        for p, want in zip(params, fd):
            np.testing.assert_allclose(p.grad, want, rtol=1e-3, atol=1e-6)
