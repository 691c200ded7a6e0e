"""Reverse-mode differentiation of a sequential layer stack over float32.

Every model here is a plain chain of layers, so there is no general tape:
Model.forward_graph() records each layer's backward cache in a
ComputationGraph, and its backward() calls the layers' backward in
reverse: for training, down to the first layer with parameters; for
conductance, down to the first layer, with no parameter gradient.  Matrix
products run through float64 and are rounded once to float32.  Every
gradient passed between layers or stored on a parameter is rounded to
float32 and has +0.0 added, which makes -0.0 into +0.0.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import UsageError


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def _grad(a):
    """A gradient as stored: rounded to float32, with -0.0 made +0.0."""
    return np.asarray(a, dtype=np.float32) + np.float32(0)


class Tensor:
    """A parameter: float32 data plus the gradient of the last backward.
    The data is a private copy, since optimizers and weight faults write
    into it in place; it is row-major, so that its flat view, through which
    weight faults are set, is a view and not a copy."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float32, order="C")
        self.grad = None


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


def _check_logits(logits, idx, what):
    if logits.ndim != 2 or idx.shape != (logits.shape[0],):
        raise UsageError(f"expected [N, classes] logits and [N] {what}, got "
                         f"{logits.shape} and {idx.shape}")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient with respect to
    the logits: (float32 loss, float32 [N, classes]).  Non-finite logits
    propagate into both."""
    y = np.asarray(labels, dtype=np.int64)
    _check_logits(logits, y, "labels")
    n = y.shape[0]
    rows = np.arange(n)
    with np.errstate(all="ignore"):
        z = _f64(logits)
        z = z - np.maximum.reduce(z, axis=1, keepdims=True)
        lse = np.log(np.add.reduce(np.exp(z), axis=1))
        # the mean as numpy computes it: one pairwise sum, then / n
        loss = np.float32(np.add.reduce(lse - z[rows, y]) / n)
        gl = np.exp(z - lse[:, None])                     # softmax, float64
        gl[rows, y] -= 1.0
        return loss, _grad(gl * (1.0 / n))


def picked_logit_sum(logits, classes):
    """Sum over the batch of logits[i, classes[i]] and its gradient, the
    one-hot mask: (float32 value, float32 [N, classes])."""
    idx = np.asarray(classes, dtype=np.int64)
    _check_logits(logits, idx, "class indices")
    rows = np.arange(idx.shape[0])
    glogits = np.zeros(logits.shape, dtype=np.float32)
    glogits[rows, idx] = 1.0
    return np.float32(_f64(logits[rows, idx]).sum()), glogits


class ComputationGraph:
    """Record of one forward pass: the layers, their backward caches, the
    logits' shape and the output faults patched in."""

    def __init__(self):
        self.layers, self.caches, self.out_shape, self.faults = [], [], None, {}

    def record(self, layers, caches, out_shape, faults):
        """faults maps a layer index to the output faults patched into it."""
        self.layers, self.caches = list(layers), caches
        self.out_shape, self.faults = out_shape, faults

    def backward(self, glogits, outputs=False):
        """Propagate glogits, the loss gradient with respect to the logits,
        back through the recorded layers and return each layer's output
        gradient (of the output the next layer saw).  Columns that output
        faults overwrote are constants and pass no gradient into their
        layer.

        By default this is the training pass: it writes .grad on every
        parameter, and nothing below the first layer with parameters is
        computed (None there).  With outputs=True, as conductance needs, it
        returns the gradient of every layer's output and computes and
        writes no parameter gradient.  The model input's gradient is never
        computed.  Float warnings are suppressed: fault-poisoned values
        legitimately go non-finite, and the callers handle that."""
        if np.shape(glogits) != self.out_shape:
            raise UsageError(f"backward needs the gradient of a scalar loss with respect to "
                             f"the logits {self.out_shape}, got shape {np.shape(glogits)}")
        layers = self.layers
        stop = 0 if outputs else next(   # lowest layer whose output gradient is wanted
            (i for i, layer in enumerate(layers) if layer.params()), len(layers))
        grads = [None] * len(layers)
        g = glogits
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for lid in range(len(layers) - 1, stop - 1, -1):
                grads[lid] = g
                if lid in self.faults:
                    g = g.copy()
                    g.reshape(g.shape[0], -1)[:, [f.element_index for f in self.faults[lid]]] = 0.0
                layer = layers[lid]
                g, pgrads = layer.backward(g, self.caches[lid], lid > stop, params=not outputs)
                for p, pg in zip(layer.params(), pgrads):
                    p.grad = pg
        return grads
