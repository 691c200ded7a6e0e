"""Layer stack, forward and backward passes, checkpoint format.

A Model is an ordered list of layers (conv2d / linear / relu / flatten)
over float32 parameters.  Each layer has one forward(x, variants) ->
(y, cache), for x holding the batches of several model variants stacked
along its rows; its apply gives that forward's output, and its
backward(g, cache, need_gx) returns the input gradient (if asked) and the
parameter gradients.  Model.apply() runs the layers' apply for evaluation
and campaigns; forward_graph() runs their forward and keeps the caches in
a ComputationGraph, whose backward() serves training and attribution.
Both honor activation faults (a bit flipped in one element of a layer's
output, in every sample) as one XOR per layer with a stack of mask rows,
one per variant (bitfloat.xor_bits, which the injector's fault stacks
also use); faults_active() hands a fault set's output faults to a with
block and holds its weight faults' bits set in place for the block.
backward(..., params=False) skips the parameter gradients, for passes
that want only the gradients of the layer outputs.  Each layer's
jvp(x, t) maps the tangent t of its input x to the tangent of its
output; Model.jvp() chains them over activations recorded by a forward
pass, which conductance uses.

apply() is resumable: with start=L its input is the input of layer L (the
output of layer L-1), and only layers L.. run.  Since a layer's arithmetic
depends only on its input batch, resuming from a stored clean activation
gives the same bits as the full pass over the same batch.  It can stop
early (stop=M) and run K variants of the model at once: K batches stacked
along the rows, or K weights of layer start.  The same variant axis
serves training: a model whose parameters have a leading [K, ...] axis
runs K models' forward_graph and backward in one pass, each variant on
its own rows once a layer with parameters or output faults has split the
batch.  Weightless layers and Conv2d's per-sample gemm see the
[K*N, ...] stack as one batch; Linear keeps a variant axis, and a
stacked Conv2d a [K, N, ...] one, so that each variant makes its own BLAS
calls.  A single pass is the K = 1 case of the same code.
"""

from __future__ import annotations

import copy
import hashlib
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..bitfloat import bit_mask, flip_bit_many, xor_bits
from ..errors import ConfigError, UsageError
from ..fileio import Reader, atomic_write
from .autodiff import ComputationGraph, Tensor, _col2im, _f64, _grad, _im2col

# flip_bit_many is no longer called here, but perfbench's tracer wraps it
# at this lookup site, so it stays a name of the module
__all__ = [
    "ActivationFault", "Conv2d", "Flatten", "Linear", "Model", "Relu", "build_cnn",
    "build_mlp", "check_site", "faults_active", "flip_bit_many", "load_checkpoint",
    "model_checksum", "save_checkpoint", "site_error",
]


@dataclass(frozen=True)
class ActivationFault:
    """Bit flip applied to one element of a layer's output on every forward."""
    layer_id: int
    element_index: int
    bit_index: int


def _mask_row(faults, size):
    """The uint32 XOR mask over a layer's `size` output elements of every
    fault in faults.  Faults on one element combine by XOR, so a fault
    listed twice cancels, as two flips of one bit do."""
    mask = np.zeros(size, dtype=np.uint32)
    for f in faults:
        if not 0 <= f.element_index < size:
            raise UsageError(f"output fault element {f.element_index} out of range "
                             f"[0, {size}) at layer {f.layer_id}")
        mask[f.element_index] ^= bit_mask(f.bit_index)
    return mask


def site_error(model, site):
    """Why a fault site (layer_id, target_kind, element_index) names no
    element of the model, or None if it does."""
    lid, element = site.layer_id, site.element_index
    if not 0 <= lid < len(model.layers):
        return f"layer id {lid} out of range"
    if site.target_kind == "neuron_weight":
        layer = model.layers[lid]
        if getattr(layer, "weight", None) is None:
            return f"layer {lid} ({layer.kind}) has no weights"
        size, what = layer.weight.data.size, "weights"
    else:
        size, what = math.prod(model.in_shapes[lid + 1]), "output elements"
    if not 0 <= element < size:
        return f"element {element} out of range for layer {lid} ({size} {what})"
    return None


def check_site(model, site):
    """Raise UsageError unless the site names an element of the model."""
    error = site_error(model, site)
    if error is not None:
        raise UsageError(error)


@contextmanager
def faults_active(model, sites):
    """Every distinct site in the set active for the with block, which gets
    (output_faults, repin): the output faults to pass to its forward passes,
    and a repin that sets each weight fault's bit again after the block
    writes the weights (None without weight sites).

    On entry every site is checked to name an element of the model, and a
    site listed twice counts once, since two flips of one bit cancel.  Each
    weight site's bit is then set to the complement of its original value,
    and on exit, also when the block raises, set back to that value.  The
    other 31 bits of the weight are never written, so the restore is exact
    even on NaN patterns.
    """
    # pins: (flat uint32 view of the weight, element, bit mask, faulted bit)
    # per weight site; optimizers write p.data in place, so the views stay valid
    output_faults, pins = [], []
    for s in dict.fromkeys(sites):
        check_site(model, s)
        if s.target_kind != "neuron_weight":
            output_faults.append(ActivationFault(s.layer_id, s.element_index, s.bit_index))
        else:
            words = model.layers[s.layer_id].weight.data.reshape(-1).view(np.uint32)
            mask = np.uint32(1 << s.bit_index)
            pins.append((words, s.element_index, mask, ~words[s.element_index] & mask))

    def repin():
        for words, e, mask, faulted in pins:
            words[e] = (words[e] & ~mask) | faulted
    try:
        repin()
        yield output_faults, repin if pins else None
    finally:
        for words, e, mask, faulted in pins:
            words[e] = (words[e] & ~mask) | (faulted ^ mask)


class _Weighted:
    """Shared parameter handling of the layers that carry a weight."""

    def _init_params(self, weight, bias, ndim, layout):
        self.weight = Tensor(weight)
        self.bias = None if bias is None else Tensor(bias)
        if self.weight.data.ndim != ndim:
            raise UsageError(f"{self.kind} weight must be {layout}, got {self.weight.data.shape}")

    def params(self):
        return (self.weight,) if self.bias is None else (self.weight, self.bias)


class Conv2d(_Weighted):
    kind = "conv2d"
    computes = True

    def __init__(self, weight, bias=None, stride=1):
        self._init_params(weight, bias, 4, "[O,C,kh,kw]")
        self.stride = int(stride)
        if self.stride < 1:
            raise UsageError(f"conv2d stride must be >= 1, got {self.stride}")

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ConfigError(f"conv2d expects (C,H,W) input, got {in_shape}")
        o, c, kh, kw = self.weight.data.shape
        ci, h, w = in_shape
        if ci != c or h < kh or w < kw:
            raise ConfigError(f"conv2d weight {self.weight.data.shape} incompatible with input {in_shape}")
        return (o, (h - kh) // self.stride + 1, (w - kw) // self.stride + 1)

    def _gemm(self, x, variants=1, weights=None, bias=True):
        """(outputs, backward cache) of x: one gemm per sample and variant,
        stacked [K*N, O, OH, OW].  The variants come from x, holding
        `variants` batches stacked along its rows, from the weights, a
        [K,O,C,kh,kw] stack (weights=, or the layer's own), or from both;
        then variant k's samples meet weight k."""
        w = self.weight.data if weights is None else weights
        o, _, kh, kw = w.shape[-4:]
        cols, oh, ow = _im2col(x, kh, kw, self.stride)
        if variants > 1 and w.ndim > 4:   # variant k's samples meet weight k
            cols = cols.reshape(variants, -1, *cols.shape[1:])         # [K, N, C*kh*kw, OH*OW]
        # a stack's weights get a length-1 axis that broadcasts over the samples
        y = np.matmul(_f64(w.reshape(w.shape[:-4] + (1, o, -1))), cols)  # [(K,) N, O, OH*OW]
        if bias and self.bias is not None:
            y += _f64(self.bias.data)[..., None, :, None]
        return y.reshape(-1, o, oh, ow).astype(np.float32), (cols, x.shape)

    def forward(self, x, variants=1):
        return self._gemm(x, variants)

    def apply(self, x, variants=1, weights=None):
        """forward's output.  Every sample is its own gemm, so the batches
        of several variants stacked along x's rows pass as one batch, and a
        stack of weights runs one batch x through each (see _gemm)."""
        return self._gemm(x, variants, weights)[0]

    def backward(self, g, cache, need_gx, params=True):
        cols, xshape = cache
        w = self.weight.data
        o, _, kh, kw = w.shape[-4:]
        lead = w.shape[:-4]                      # (K,) for a stack of weights
        gflat = _f64(g).reshape(lead + (-1, o, g.shape[2] * g.shape[3]))  # [(K,) N, O, OH*OW]
        gx = None
        if need_gx:
            wt = _f64(w.reshape(lead + (o, -1))).swapaxes(-1, -2)        # [(K,) C*kh*kw, O]
            if lead:
                wt = wt[:, None]
            gx = _grad(_col2im(np.matmul(wt, gflat), xshape, kh, kw, self.stride))
        if not params:
            return gx, ()
        gw = np.matmul(gflat, cols.swapaxes(-1, -2)).sum(axis=-3)
        pgrads = (_grad(gw.reshape(w.shape)),)
        if self.bias is not None:
            pgrads += (_grad(gflat.sum(axis=(-3, -1))),)
        return gx, pgrads

    def jvp(self, x, t):
        return self._gemm(t, bias=False)[0]


class Linear(_Weighted):
    kind = "linear"
    computes = True

    def __init__(self, weight, bias=None):
        self._init_params(weight, bias, 2, "[O,I]")

    def out_shape(self, in_shape):
        o, i = self.weight.data.shape
        if len(in_shape) != 1 or in_shape[0] != i:
            raise ConfigError(f"linear weight {self.weight.data.shape} incompatible with input {in_shape}")
        return (o,)

    def _product(self, x, variants=1, weights=None, bias=True):
        """(outputs, backward cache) of x: x @ W.T in float64, rounded once,
        [K*N, O].  For x holding `variants` batches stacked along its rows,
        [K*N, I], for a [K,O,I] stack of weights (weights=, or the layer's
        own), or both, the variant axis stays separate: variant k is its own
        [N,I] @ [I,O] product, the BLAS call a single pass makes.  Folding
        the K batches into one [K*N, I] product rounds some float64 rows
        differently."""
        x64, w64 = _f64(x), _f64(self.weight.data if weights is None else weights)
        if variants > 1:  # a reshape would add ~1 µs to every batch-1 call
            x64 = x64.reshape(variants, -1, x.shape[1])
        y = x64 @ w64.swapaxes(-1, -2)
        if bias and self.bias is not None:
            b = _f64(self.bias.data)
            y += b if b.ndim == 1 else b[:, None]    # a stack's bias meets its variant's rows
        if y.ndim > 2:
            y = y.reshape(-1, y.shape[-1])
        return y.astype(np.float32), (x64, w64)

    def forward(self, x, variants=1):
        return self._product(x, variants)

    def apply(self, x, variants=1, weights=None):
        """forward's output for a stack of variants (see _product)."""
        return self._product(x, variants, weights)[0]

    def backward(self, g, cache, need_gx, params=True):
        x64, w64 = cache
        g64 = _f64(g)
        if w64.ndim > 2:   # a stack of weights: [K, N, O] against [K, O, I]
            g64 = g64.reshape(len(w64), -1, g.shape[-1])
        gx = _grad(g64 @ w64) if need_gx else None
        if gx is not None and gx.ndim > 2:
            gx = gx.reshape(-1, gx.shape[-1])
        if not params:
            return gx, ()
        pgrads = (_grad(g64.swapaxes(-1, -2) @ x64),)
        if self.bias is not None:
            pgrads += (_grad(np.add.reduce(g64, axis=-2)),)
        return gx, pgrads

    def jvp(self, x, t):
        return self._product(t, bias=False)[0]


class Relu:
    kind = "relu"
    computes = True

    def params(self):
        return ()

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, variants=1):
        return np.maximum(x, 0), x

    def apply(self, x, variants=1):
        return self.forward(x)[0]

    def backward(self, g, x, need_gx, params=True):
        return (_grad(g * (x > 0)) if need_gx else None), ()

    def jvp(self, x, t):
        return t * (x > 0)


class Flatten:
    kind = "flatten"
    # reshape only: its "output" aliases the upstream tensor (or the raw
    # input), so it owns no neuron outputs to attribute or fault
    computes = False

    def params(self):
        return ()

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, x, variants=1):
        return x.reshape(x.shape[0], -1), x.shape

    def apply(self, x, variants=1):
        return self.forward(x)[0]

    def backward(self, g, xshape, need_gx, params=True):
        return (_grad(g.reshape(xshape)) if need_gx else None), ()

    def jvp(self, x, t):
        return t.reshape(t.shape[0], -1)


_KIND_TAGS = {"conv2d": 0, "linear": 1, "relu": 2, "flatten": 3}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


class Model:
    """Ordered layer stack with a fixed per-sample input shape."""

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        # walking the shapes validates the composition eagerly; in_shapes[L]
        # is the per-sample input shape of layer L, in_shapes[-1] the logits'
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        self.in_shapes = tuple(shapes)

    def output_shapes(self):
        """Per-sample output shape of every layer, in order."""
        return list(self.in_shapes[1:])

    def parameters(self):
        return [p for layer in self.layers for p in layer.params()]

    def weight_layer_ids(self):
        return [i for i, l in enumerate(self.layers) if getattr(l, "weight", None) is not None]

    def _check_batch(self, x, start=0):
        x = np.asarray(x, dtype=np.float32)
        expected = self.in_shapes[start]
        if x.shape[1:] != expected:
            where = "model input" if start == 0 else f"input of layer {start}"
            raise ConfigError(f"batch shape {x.shape[1:]} does not match {where} {expected}")
        return x

    def _masks(self, fault_lists):
        """Per faulted layer id, (the uint32 XOR masks of V variants' output
        faults, [V, 1, E] for the layer's E output elements, and where they
        are nonzero), from one fault list per variant; a layer id the model
        lacks raises."""
        masks: dict = {}
        for k, faults in enumerate(fault_lists):
            for f in faults:
                if not 0 <= f.layer_id < len(self.layers):
                    raise UsageError(f"output fault layer id {f.layer_id} out of range")
                masks.setdefault(f.layer_id, [[] for _ in fault_lists])[k].append(f)
        for lid, per in masks.items():
            size = math.prod(self.in_shapes[lid + 1])
            mask = np.stack([_mask_row(faults, size) for faults in per])[:, None]
            masks[lid] = (mask, mask != 0)
        return masks

    def apply(self, x, output_faults=(), return_activations=False, start=0, stop=None,
              variants=1, weights=None):
        """Plain forward pass; returns logits [N, classes].

        With start=L, x is the input of layer L and only layers L.. run;
        faults on earlier layers are then the caller's business, and the
        activations returned (with return_activations) are those of layers
        L.. only.  With stop=M, layers M.. do not run, and the result is
        the input of layer M.

        One pass can run K variants of the model, each on the same rows:
        with variants=K, x holds K batches stacked along its rows; with
        weights, a [K, *shape] stack of weights for layer start, x is one
        batch and variant k runs layer start with weights[k].  The result
        stacks the variants' outputs, [K*N, ...], and each variant's rows
        are bit-identical to a pass of that variant alone, since every
        layer makes per-variant (Linear) or per-sample (Conv2d) BLAS calls.

        Runs with numpy float warnings suppressed: injected faults are meant
        to push inf/NaN through the network, and evaluation must not warn or
        mask them.
        """
        stop = len(self.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(self.layers):
            raise UsageError(f"layer range {start}..{stop} out of range")
        if weights is not None:
            weight = getattr(self.layers[start], "weight", None) if start < stop else None
            if weight is None or weights.shape[1:] != weight.data.shape:
                raise UsageError(f"a weight stack of shape {weights.shape} does not fit "
                                 f"layer {start}")
            variants = 1  # the stack runs on one batch
        x, acts = self._forward(x, self._masks([output_faults]), start, stop, None,
                                variants, weights)
        return (x, acts) if return_activations else x

    def forward_graph(self, g: ComputationGraph, x, output_faults=()):
        """The same forward pass, with each layer's backward cache recorded
        in g; returns (logits, per-layer activations).  g.backward(glogits)
        then gives the gradients."""
        return self._graph(g, x, self._masks([output_faults]))

    def _graph(self, g, x, masks):
        """forward_graph with the output faults given as _masks made them."""
        caches = []
        logits, acts = self._forward(x, masks, 0, len(self.layers), caches)
        g.record(self.layers, caches, logits.shape, masks)
        return logits, acts

    def _forward(self, x, masks, start, stop, caches, variants=1, weights=None):
        """Layers start..stop-1 over x, holding `variants` batches stacked
        along its rows; with a caches list, each layer runs its forward and
        its cache is appended, otherwise its apply runs, with the weight
        stack on layer start.

        A layer's output holds as many variants as its rows hold batches:
        one batch meets a stack of weights, or a [K, 1, E] mask stack of
        output faults, as K batches from then on."""
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            x = self._check_batch(x, start)
            rows = len(x) // variants   # per variant
            acts = []
            for lid in range(start, stop):
                layer = self.layers[lid]
                if caches is not None:
                    x, cache = layer.forward(x, variants)
                    caches.append(cache)
                elif weights is not None and lid == start:
                    x = layer.apply(x, weights=weights)
                else:
                    x = layer.apply(x, variants)
                variants = len(x) // rows if rows else 1
                if lid in masks:
                    mask = masks[lid][0]
                    x = xor_bits(x.reshape(variants, -1, mask.shape[-1]),
                                 mask).reshape((-1,) + x.shape[1:])
                    variants = max(variants, len(mask))
                acts.append(x)
            return x, acts

    def jvp(self, x, dx, acts, start=0):
        """Forward-mode pass along dx: the tangent of every layer's output
        from layer start on.

        x is the input of layer start and dx its tangent; acts are the
        outputs of layers start.. recorded by a forward pass over x
        (forward_graph or apply with return_activations), so no layer's
        output is computed again.  Only a ReLU reads its input; the tangents
        of conv2d, linear and flatten do not depend on it.
        """
        if not 0 <= start <= len(self.layers):
            raise UsageError(f"start layer {start} out of range")
        x = self._check_batch(x, start)
        dx = np.asarray(dx, dtype=np.float32)
        if dx.shape != x.shape:
            raise UsageError(f"tangent shape {dx.shape} != input shape {x.shape}")
        if len(acts) != len(self.layers) - start:
            raise UsageError(f"need the outputs of layers {start}.., got {len(acts)}")
        tans, t = [], dx
        for layer, a in zip(self.layers[start:], [x] + list(acts[:-1])):
            t = layer.jvp(a, t)
            tans.append(t)
        return tans

    def copy(self):
        """Independent copy: no parameter array is shared."""
        return copy.deepcopy(self)


def model_checksum(model: Model) -> str:
    """SHA-256 over layer kinds, shapes, strides and exact parameter bytes.

    A stride of 1 adds nothing, so checksums from before strides were
    hashed still hold for the stride-1 models they were made on.
    """
    h = hashlib.sha256()
    h.update(repr(model.input_shape).encode())
    for layer in model.layers:
        h.update(layer.kind.encode())
        if getattr(layer, "stride", 1) != 1:
            h.update(f"stride {layer.stride}".encode())
        w = getattr(layer, "weight", None)
        if w is not None:
            h.update(repr(w.data.shape).encode())
            h.update(w.data.astype("<f4").tobytes())
            if layer.bias is not None:
                h.update(layer.bias.data.astype("<f4").tobytes())
    return h.hexdigest()


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def build_mlp(input_shape, hidden, classes, seed):
    """flatten -> [linear -> relu]* -> linear, fan-in uniform init, zero bias."""
    if seed < 0:
        raise UsageError(f"model seed must be >= 0, got {seed}")
    if any(width < 1 for width in hidden):
        raise UsageError(f"every hidden width must be >= 1, got {list(hidden)}")
    rng = np.random.default_rng(seed)
    dims = [int(np.prod(input_shape))] + list(hidden) + [classes]
    layers: list = [Flatten()]
    for i in range(len(dims) - 1):
        w = _uniform_init(rng, (dims[i + 1], dims[i]), dims[i])
        layers.append(Linear(w, np.zeros(dims[i + 1], dtype=np.float32)))
        if i < len(dims) - 2:
            layers.append(Relu())
    return Model(layers, input_shape)


def build_cnn(input_shape, conv_channels, kernel, hidden, classes, seed):
    """conv-relu-conv-relu-flatten-linear-relu-linear."""
    if seed < 0:
        raise UsageError(f"model seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    c1, c2 = conv_channels
    if min(c1, c2, kernel, hidden) < 1:
        raise UsageError(f"conv channels, kernel and hidden width must be >= 1; got "
                         f"{list(conv_channels)}, {kernel} and {hidden}")
    if 2 * (kernel - 1) >= min(h, w):  # two valid convs leave an h - 2(kernel - 1) map
        raise UsageError(f"kernel {kernel} leaves no output of two convolutions on a "
                         f"{h}x{w} input")
    layers: list = []
    w1 = _uniform_init(rng, (c1, c, kernel, kernel), c * kernel * kernel)
    layers += [Conv2d(w1, np.zeros(c1, dtype=np.float32)), Relu()]
    w2 = _uniform_init(rng, (c2, c1, kernel, kernel), c1 * kernel * kernel)
    layers += [Conv2d(w2, np.zeros(c2, dtype=np.float32)), Relu()]
    h2, w2d = h - 2 * (kernel - 1), w - 2 * (kernel - 1)
    flat = c2 * h2 * w2d
    layers.append(Flatten())
    w3 = _uniform_init(rng, (hidden, flat), flat)
    layers += [Linear(w3, np.zeros(hidden, dtype=np.float32)), Relu()]
    w4 = _uniform_init(rng, (classes, hidden), hidden)
    layers.append(Linear(w4, np.zeros(classes, dtype=np.float32)))
    return Model(layers, input_shape)


# Checkpoint format, little-endian throughout:
#   magic "ISDL" | version u32 | input ndim u32 | input dims u32[] |
#   layer count u32 | per layer: kind u32, then for conv2d: stride u32;
#   for conv2d/linear: weight ndim u32, dims u32[], float32 data,
#   has_bias u32, bias data.
CHECKPOINT_MAGIC = b"ISDL"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path):
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    out.append(struct.pack("<I", len(model.input_shape)))
    out.append(struct.pack(f"<{len(model.input_shape)}I", *model.input_shape))
    out.append(struct.pack("<I", len(model.layers)))
    for layer in model.layers:
        out.append(struct.pack("<I", _KIND_TAGS[layer.kind]))
        if layer.kind == "conv2d":
            out.append(struct.pack("<I", layer.stride))
        if layer.kind in ("conv2d", "linear"):
            w = layer.weight.data
            out.append(struct.pack("<I", w.ndim))
            out.append(struct.pack(f"<{w.ndim}I", *w.shape))
            out.append(w.astype("<f4").tobytes())
            if layer.bias is not None:
                out.append(struct.pack("<I", 1))
                out.append(layer.bias.data.astype("<f4").tobytes())
            else:
                out.append(struct.pack("<I", 0))
    atomic_write(path, b"".join(out))


def load_checkpoint(path) -> Model:
    """Parse a checkpoint.  Any defect of the file, including layers that do
    not compose, raises DataFormatError."""
    r = Reader(path)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise r.fail(f"expected magic {CHECKPOINT_MAGIC!r} at offset 0, got {magic!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise r.fail(f"unsupported checkpoint version {version}")
    ndim = r.u32("input ndim")
    input_shape = tuple(r.u32(f"input dim {i}") for i in range(ndim))
    count = r.u32("layer count")
    layers: list = []
    for li in range(count):
        tag = r.u32(f"layer {li} kind")
        kind = _TAG_KINDS.get(tag)
        if kind is None:
            raise r.fail(f"unknown layer kind tag {tag} at offset {r.offset - 4}")
        if kind == "relu":
            layers.append(Relu())
            continue
        if kind == "flatten":
            layers.append(Flatten())
            continue
        stride = r.u32(f"layer {li} stride") if kind == "conv2d" else 1
        if stride < 1:
            raise r.fail(f"layer {li} has stride 0 at offset {r.offset - 4}")
        wndim = r.u32(f"layer {li} weight ndim")
        if wndim != (4 if kind == "conv2d" else 2):
            raise r.fail(f"layer {li} ({kind}) weight has {wndim} dims at offset {r.offset - 4}")
        wshape = tuple(r.u32(f"layer {li} weight dim {d}") for d in range(wndim))
        weight = r.f32_array(math.prod(wshape), wshape, f"layer {li} weight data")
        bias = None
        if r.u32(f"layer {li} has_bias"):
            bias = r.f32_array(wshape[0], (wshape[0],), f"layer {li} bias data")
        layers.append(Conv2d(weight, bias, stride=stride) if kind == "conv2d"
                      else Linear(weight, bias))
    r.finish()
    try:
        return Model(layers, input_shape)
    except ConfigError as exc:
        raise r.fail(f"layers do not compose: {exc}") from exc
