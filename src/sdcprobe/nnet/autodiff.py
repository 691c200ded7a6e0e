"""Tape-based reverse-mode automatic differentiation over float32 arrays.

A ComputationGraph records operation nodes in construction order; backward()
walks them in exact reverse order, so the tape itself is the topological
order.  Tensors store float32 data (the fault model is defined over 32-bit
patterns); matrix products run through float64 internally and are rounded
once on output.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import UsageError


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def _mm(a, b):
    """Matrix product with float64 accumulation, rounded to float32 once."""
    return (_f64(a) @ _f64(b)).astype(np.float32)


class Tensor:
    """One node of the tape: a float32 array plus an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "name", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), name=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.parents = tuple(parents)
        self.name = name
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accum_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += np.asarray(g, dtype=np.float32)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


@functools.lru_cache(maxsize=64)
def _patch_index(c, h, w, kh, kw, stride):
    """Read-only [C*kh*kw, OH*OW] flat offsets into one [C,H,W] sample:
    row (ci, i, j), column (oy, ox) reads x[ci, oy*stride + i, ox*stride + j]."""
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    ci, i, j = np.ix_(np.arange(c), np.arange(kh), np.arange(kw))
    rows = (ci * h + i) * w + j                                      # [C, kh, kw]
    cols = (np.arange(oh)[:, None] * w + np.arange(ow)) * stride     # [OH, OW]
    idx = rows.reshape(-1, 1) + cols.reshape(1, -1)
    idx.flags.writeable = False
    return idx


def _im2col(x, kh, kw, stride):
    """[N,C,H,W] -> float64 [N, C*kh*kw, OH*OW] patch matrix, one gather.

    The float32 -> float64 cast is exact and elementwise, so casting the
    input before the gather gives the same values as casting the patches;
    the gathered matrix is the matmul operand as it stands.
    """
    n, c, h, w = x.shape
    idx = _patch_index(c, h, w, kh, kw, stride)
    return (_f64(x.reshape(n, c * h * w)).take(idx, axis=1),
            (h - kh) // stride + 1, (w - kw) // stride + 1)


def _col2im(gcols, xshape, kh, kw, stride):
    """Adjoint of _im2col: scatter-add patch gradients back to [N,C,H,W]."""
    n, c, h, w = xshape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    g6 = gcols.reshape(n, c, kh, kw, oh, ow)
    gx = np.zeros(xshape, dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g6[:, :, i, j]
    return gx


class ComputationGraph:
    """Ordered tape of operation nodes; backward runs in reverse order."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def _add(self, t: Tensor) -> Tensor:
        self.nodes.append(t)
        return t

    def leaf(self, data, requires_grad=False, name=None) -> Tensor:
        return self._add(Tensor(data, requires_grad=requires_grad, name=name))

    def linear(self, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
        """y = x @ w.T (+ b); x: [N, I], w: [O, I], b: [O]."""
        if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
            raise UsageError(f"linear shape mismatch: x {x.data.shape} vs w {w.data.shape}")
        y64 = _f64(x.data) @ _f64(w.data).T
        if b is not None:
            y64 = y64 + _f64(b.data)
        parents = (x, w) if b is None else (x, w, b)
        out = Tensor(y64.astype(np.float32), requires_grad=True, op="linear", parents=parents)

        def backward(g):
            g64 = _f64(g)
            if x.requires_grad:
                x.accum_grad(g64 @ _f64(w.data))
            if w.requires_grad:
                w.accum_grad(g64.T @ _f64(x.data))
            if b is not None and b.requires_grad:
                b.accum_grad(g64.sum(axis=0))

        out._backward = backward
        return self._add(out)

    def conv2d(self, x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
        """Valid (no-padding) 2-d convolution; x: [N,C,H,W], w: [O,C,kh,kw]."""
        if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
            raise UsageError(f"conv2d shape mismatch: x {x.data.shape} vs w {w.data.shape}")
        n = x.data.shape[0]
        o, _, kh, kw = w.data.shape
        cols64, oh, ow = _im2col(x.data, kh, kw, stride)
        wf64 = _f64(w.data.reshape(o, -1))
        y64 = np.matmul(wf64, cols64)                     # [N, O, OH*OW]
        if b is not None:
            y64 = y64 + _f64(b.data)[None, :, None]
        y = y64.reshape(n, o, oh, ow).astype(np.float32)
        parents = (x, w) if b is None else (x, w, b)
        out = Tensor(y, requires_grad=True, op="conv2d", parents=parents)

        def backward(g):
            gflat = _f64(g).reshape(n, o, oh * ow)
            if w.requires_grad:
                gw = np.matmul(gflat, cols64.transpose(0, 2, 1)).sum(axis=0)
                w.accum_grad(gw.reshape(w.data.shape))
            if x.requires_grad:
                gcols = np.matmul(wf64.T, gflat)          # [N, C*kh*kw, OH*OW]
                x.accum_grad(_col2im(gcols, x.data.shape, kh, kw, stride))
            if b is not None and b.requires_grad:
                b.accum_grad(gflat.sum(axis=(0, 2)))

        out._backward = backward
        return self._add(out)

    def relu(self, x: Tensor) -> Tensor:
        out = Tensor(np.maximum(x.data, 0), requires_grad=True, op="relu", parents=(x,))

        def backward(g):
            if x.requires_grad:
                x.accum_grad(g * (x.data > 0))

        out._backward = backward
        return self._add(out)

    def flatten(self, x: Tensor) -> Tensor:
        n = x.data.shape[0]
        out = Tensor(x.data.reshape(n, -1), requires_grad=True, op="flatten", parents=(x,))

        def backward(g):
            if x.requires_grad:
                x.accum_grad(np.asarray(g).reshape(x.data.shape))

        out._backward = backward
        return self._add(out)

    def pick_class_logits(self, logits: Tensor, classes) -> Tensor:
        """out[i] = logits[i, classes[i]]; classes: int array [N]."""
        idx = np.asarray(classes, dtype=np.int64)
        if logits.data.ndim != 2 or idx.shape != (logits.data.shape[0],):
            raise UsageError("pick_class_logits expects [N, classes] logits and [N] indices")
        rows = np.arange(idx.shape[0])
        out = Tensor(logits.data[rows, idx], requires_grad=True,
                     op="pick_class_logits", parents=(logits,))

        def backward(g):
            if logits.requires_grad:
                gl = np.zeros_like(logits.data)
                gl[rows, idx] = g
                logits.accum_grad(gl)

        out._backward = backward
        return self._add(out)

    def sum(self, x: Tensor) -> Tensor:
        out = Tensor(np.float32(_f64(x.data).sum()), requires_grad=True,
                     op="sum", parents=(x,))

        def backward(g):
            if x.requires_grad:
                x.accum_grad(np.full(x.data.shape, np.asarray(g), dtype=np.float32))

        out._backward = backward
        return self._add(out)

    def softmax_cross_entropy(self, logits: Tensor, labels) -> Tensor:
        """Mean cross-entropy over the batch; labels: int array [N]."""
        y = np.asarray(labels, dtype=np.int64)
        if logits.data.ndim != 2 or y.shape != (logits.data.shape[0],):
            raise UsageError("softmax_cross_entropy expects [N, classes] logits and [N] labels")
        n = y.shape[0]
        with np.errstate(all="ignore"):  # non-finite logits propagate to the loss
            z = _f64(logits.data)
            z = z - z.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=1))
            loss = np.float32((lse - z[np.arange(n), y]).mean())
            probs = np.exp(z - lse[:, None])              # softmax, float64
        out = Tensor(loss, requires_grad=True, op="softmax_cross_entropy", parents=(logits,))

        def backward(g):
            if logits.requires_grad:
                gl = probs.copy()
                gl[np.arange(n), y] -= 1.0
                logits.accum_grad(gl * (_f64(g) / n))

        out._backward = backward
        return self._add(out)

    def column_patch(self, x: Tensor, element_index: int, values) -> Tensor:
        """Replace x[:, element_index] (per-sample flat indexing) with the
        given values.  The patched column blocks gradient flow: the injected
        values are treated as constants."""
        n = x.data.shape[0]
        flat_len = x.data.size // n
        if not 0 <= element_index < flat_len:
            raise UsageError(f"element_index {element_index} out of range [0, {flat_len})")
        patched = x.data.copy()
        patched.reshape(n, -1)[:, element_index] = np.asarray(values, dtype=np.float32)
        out = Tensor(patched, requires_grad=True, op="column_patch", parents=(x,))

        def backward(g):
            if x.requires_grad:
                gx = np.array(g, dtype=np.float32, copy=True)
                gx.reshape(n, -1)[:, element_index] = 0.0
                x.accum_grad(gx)

        out._backward = backward
        return self._add(out)

    def backward(self, loss: Tensor):
        """Populate grads of everything the scalar ``loss`` depends on.

        Float warnings are suppressed: backward through fault-poisoned
        activations legitimately produces non-finite intermediates, which the
        callers detect and handle.
        """
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.accum_grad(np.ones_like(loss.data))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for node in reversed(self.nodes):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)

    def zero_grad(self):
        for node in self.nodes:
            node.zero_grad()
