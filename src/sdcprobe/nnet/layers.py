"""Layer stack, forward passes, checkpoint format.

A Model is an ordered list of layers (conv2d / linear / relu / flatten)
over float32 parameters.  Three forward paths exist:

  apply()          plain numpy, used by evaluation and campaigns
  forward_graph()  tape-recorded, used by training and attribution
  jvp()            forward-mode directional derivative, used by conductance

All three share the same layer arithmetic, and all three honor activation
faults: a bit flipped in one element of a layer's output, applied per sample
at the same within-sample position.  apply() and the injector's prefix
cache patch outputs through one helper, patch_outputs().

apply() is resumable: with start=L its input is the input of layer L (the
output of layer L-1), and only layers L.. run.  Since a layer's arithmetic
depends only on its input batch, resuming from a stored clean activation
gives the same bits as the full pass over the same batch.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from ..bitfloat import flip_bit_many
from ..errors import ConfigError, DataFormatError, UsageError
from ..fileio import atomic_write
from .autodiff import ComputationGraph, Tensor, _f64, _im2col


@dataclass(frozen=True)
class ActivationFault:
    """Bit flip applied to one element of a layer's output on every forward."""
    layer_id: int
    element_index: int
    bit_index: int


def patch_outputs(x, faults):
    """Copy of one layer's output batch with every fault's bit flipped in
    each sample; x itself is never written (it may be a flatten view or a
    shared cached activation)."""
    x = x.copy()
    flat = x.reshape(x.shape[0], -1)
    for f in faults:
        flat[:, f.element_index] = flip_bit_many(flat[:, f.element_index], f.bit_index)
    return x


class Conv2d:
    kind = "conv2d"
    computes = True

    def __init__(self, weight, bias=None, stride=1):
        self.weight = weight if isinstance(weight, Tensor) else Tensor(weight, requires_grad=True)
        self.bias = None if bias is None else (
            bias if isinstance(bias, Tensor) else Tensor(bias, requires_grad=True))
        self.stride = int(stride)
        if self.weight.data.ndim != 4:
            raise UsageError(f"conv2d weight must be [O,C,kh,kw], got {self.weight.data.shape}")

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ConfigError(f"conv2d expects (C,H,W) input, got {in_shape}")
        o, c, kh, kw = self.weight.data.shape
        ci, h, w = in_shape
        if ci != c or h < kh or w < kw:
            raise ConfigError(f"conv2d weight {self.weight.data.shape} incompatible with input {in_shape}")
        return (o, (h - kh) // self.stride + 1, (w - kw) // self.stride + 1)

    def apply(self, x):
        o, _, kh, kw = self.weight.data.shape
        cols, oh, ow = _im2col(x, kh, kw, self.stride)
        y = np.matmul(_f64(self.weight.data.reshape(o, -1)), cols)
        if self.bias is not None:
            y = y + _f64(self.bias.data)[None, :, None]
        return y.reshape(x.shape[0], o, oh, ow).astype(np.float32)

    def tape(self, g: ComputationGraph, x: Tensor) -> Tensor:
        return g.conv2d(x, self.weight, self.bias, stride=self.stride)

    def jvp(self, x, t):
        y = self.apply(x)
        o, _, kh, kw = self.weight.data.shape
        cols, oh, ow = _im2col(t, kh, kw, self.stride)
        ty = np.matmul(_f64(self.weight.data.reshape(o, -1)), cols)
        return y, ty.reshape(t.shape[0], o, oh, ow).astype(np.float32)


class Linear:
    kind = "linear"
    computes = True

    def __init__(self, weight, bias=None):
        self.weight = weight if isinstance(weight, Tensor) else Tensor(weight, requires_grad=True)
        self.bias = None if bias is None else (
            bias if isinstance(bias, Tensor) else Tensor(bias, requires_grad=True))
        if self.weight.data.ndim != 2:
            raise UsageError(f"linear weight must be [O,I], got {self.weight.data.shape}")

    def out_shape(self, in_shape):
        o, i = self.weight.data.shape
        if len(in_shape) != 1 or in_shape[0] != i:
            raise ConfigError(f"linear weight {self.weight.data.shape} incompatible with input {in_shape}")
        return (o,)

    def apply(self, x):
        y = _f64(x) @ _f64(self.weight.data).T
        if self.bias is not None:
            y = y + _f64(self.bias.data)
        return y.astype(np.float32)

    def tape(self, g: ComputationGraph, x: Tensor) -> Tensor:
        return g.linear(x, self.weight, self.bias)

    def jvp(self, x, t):
        return self.apply(x), (_f64(t) @ _f64(self.weight.data).T).astype(np.float32)


class Relu:
    kind = "relu"
    computes = True

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def apply(self, x):
        return np.maximum(x, 0)

    def tape(self, g: ComputationGraph, x: Tensor) -> Tensor:
        return g.relu(x)

    def jvp(self, x, t):
        return np.maximum(x, 0), t * (x > 0)


class Flatten:
    kind = "flatten"
    # reshape only: its "output" aliases the upstream tensor (or the raw
    # input), so it owns no neuron outputs to attribute or fault
    computes = False

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def apply(self, x):
        return x.reshape(x.shape[0], -1)

    def tape(self, g: ComputationGraph, x: Tensor) -> Tensor:
        return g.flatten(x)

    def jvp(self, x, t):
        return x.reshape(x.shape[0], -1), t.reshape(t.shape[0], -1)


_KIND_TAGS = {"conv2d": 0, "linear": 1, "relu": 2, "flatten": 3}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


class Model:
    """Ordered layer stack with a fixed per-sample input shape."""

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        # injected activation faults, applied on every forward until removed
        self.registered_output_faults: list[ActivationFault] = []
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
        params = []
        for layer in self.layers:
            w = getattr(layer, "weight", None)
            if w is not None:
                params.append(w)
                if layer.bias is not None:
                    params.append(layer.bias)
        return params

    def weight_layer_ids(self):
        return [i for i, l in enumerate(self.layers) if getattr(l, "weight", None) is not None]

    def _check_batch(self, x, start=0):
        x = np.asarray(x, dtype=np.float32)
        expected = self.in_shapes[start]
        if x.shape[1:] != expected:
            where = "model input" if start == 0 else f"input of layer {start}"
            raise ConfigError(f"batch shape {x.shape[1:]} does not match {where} {expected}")
        return x

    @staticmethod
    def _group_faults(output_faults):
        grouped: dict[int, list[ActivationFault]] = {}
        for f in output_faults:
            grouped.setdefault(f.layer_id, []).append(f)
        return grouped

    def apply(self, x, output_faults=(), return_activations=False, start=0):
        """Plain forward pass; returns logits [N, classes].

        With start=L, x is the input of layer L and only layers L.. run;
        faults on earlier layers are then the caller's business, and the
        activations returned (with return_activations) are those of layers
        L.. only.

        Runs with numpy float warnings suppressed: injected faults are meant
        to push inf/NaN through the network, and evaluation must not warn or
        mask them.
        """
        if not 0 <= start <= len(self.layers):
            raise UsageError(f"start layer {start} out of range")
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._apply(x, output_faults, return_activations, start)

    def _apply(self, x, output_faults, return_activations, start):
        x = self._check_batch(x, start)
        faults = self._group_faults(tuple(output_faults) + tuple(self.registered_output_faults))
        acts = []
        for lid in range(start, len(self.layers)):
            x = self.layers[lid].apply(x)
            if lid in faults:
                x = patch_outputs(x, faults[lid])
            acts.append(x)
        return (x, acts) if return_activations else x

    def forward_graph(self, g: ComputationGraph, x, output_faults=()):
        """Tape-recorded forward; returns (logits Tensor, per-layer activations)."""
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            x = self._check_batch(x)
            faults = self._group_faults(tuple(output_faults) + tuple(self.registered_output_faults))
            t = g.leaf(x, requires_grad=True, name="input")
            acts = []
            for lid, layer in enumerate(self.layers):
                t = layer.tape(g, t)
                for f in faults.get(lid, ()):
                    flat = t.data.reshape(t.data.shape[0], -1)
                    flipped = flip_bit_many(flat[:, f.element_index], f.bit_index)
                    t = g.column_patch(t, f.element_index, flipped)
                acts.append(t)
            return t, acts

    def jvp(self, x, dx, upto_layer=None):
        """Forward-mode pass: (activation, tangent) of every layer along dx."""
        x = self._check_batch(x)
        dx = np.asarray(dx, dtype=np.float32)
        if dx.shape != x.shape:
            raise UsageError(f"tangent shape {dx.shape} != input shape {x.shape}")
        last = len(self.layers) - 1 if upto_layer is None else upto_layer
        if not 0 <= last < len(self.layers):
            raise UsageError(f"layer id {upto_layer} out of range")
        acts, tans = [], []
        a, t = x, dx
        for layer in self.layers[:last + 1]:
            a, t = layer.jvp(a, t)
            acts.append(a)
            tans.append(t)
        return acts, tans

    def copy(self):
        layers = []
        for layer in self.layers:
            if layer.kind == "conv2d":
                layers.append(Conv2d(layer.weight.data.copy(),
                                     None if layer.bias is None else layer.bias.data.copy(),
                                     stride=layer.stride))
            elif layer.kind == "linear":
                layers.append(Linear(layer.weight.data.copy(),
                                     None if layer.bias is None else layer.bias.data.copy()))
            elif layer.kind == "relu":
                layers.append(Relu())
            elif layer.kind == "flatten":
                layers.append(Flatten())
            else:
                raise UsageError(f"unknown layer kind {layer.kind!r}")
        clone = Model(layers, self.input_shape)
        clone.registered_output_faults = list(self.registered_output_faults)
        return clone


def model_checksum(model: Model) -> str:
    """SHA-256 over layer kinds, shapes, and exact parameter bytes."""
    h = hashlib.sha256()
    h.update(repr(model.input_shape).encode())
    for layer in model.layers:
        h.update(layer.kind.encode())
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
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    c1, c2 = conv_channels
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


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.buf):
            raise DataFormatError(
                f"truncated file: needed {n} bytes for {what} at offset {self.offset}, "
                f"have {len(self.buf) - self.offset}")
        chunk = self.buf[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def f32_array(self, count, shape, what):
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)


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
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise DataFormatError(f"expected magic {CHECKPOINT_MAGIC!r} at offset 0, got {magic!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    ndim = r.u32("input ndim")
    input_shape = tuple(r.u32(f"input dim {i}") for i in range(ndim))
    count = r.u32("layer count")
    layers: list = []
    for li in range(count):
        tag = r.u32(f"layer {li} kind")
        kind = _TAG_KINDS.get(tag)
        if kind is None:
            raise DataFormatError(f"unknown layer kind tag {tag} at offset {r.offset - 4}")
        if kind == "relu":
            layers.append(Relu())
            continue
        if kind == "flatten":
            layers.append(Flatten())
            continue
        stride = r.u32(f"layer {li} stride") if kind == "conv2d" else 1
        wndim = r.u32(f"layer {li} weight ndim")
        wshape = tuple(r.u32(f"layer {li} weight dim {d}") for d in range(wndim))
        weight = r.f32_array(int(np.prod(wshape)), wshape, f"layer {li} weight data")
        bias = None
        if r.u32(f"layer {li} has_bias"):
            bias = r.f32_array(wshape[0], (wshape[0],), f"layer {li} bias data")
        if kind == "conv2d":
            layers.append(Conv2d(weight, bias, stride=stride))
        else:
            layers.append(Linear(weight, bias))
    if r.offset != len(buf):
        raise DataFormatError(f"trailing bytes after layer {count - 1} at offset {r.offset}")
    return Model(layers, input_shape)
