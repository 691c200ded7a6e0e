"""Attribution scores that drive importance sampling of fault sites.

Two attribution families, one per fault target:

  neuron_output  layer conductance: contribution of each element of a
                 layer's output to the predicted-class logit, integrated
                 along the straight path from a baseline input,
                 Cond[e] = sum_i (x_i - x'_i) * integral_0^1 dF/dy_e * dy_e/dx_i dalpha.
                 The integrand factors into a reverse-mode gradient
                 (dF/dy_e at x_alpha) times a forward-mode directional
                 derivative (J dx at x_alpha).  At each integration step one
                 recorded forward pass feeds both: the backward to every
                 layer output, and the tangent pass, which reuses its
                 activations.  The tangents of the layers before the first
                 ReLU do not depend on x_alpha and are taken once per batch.

  neuron_weight  signed gradient sum: score_j = |sum_i dF(x_i)/dw_j| over N
                 inputs, the sum taken before the absolute value, so inputs
                 pulling a weight in opposite directions cancel.  One
                 forward and backward per batch gives every layer's
                 gradient at once.

F is the logit of the class the clean model predicts for each input.
Scores are published nonnegative, finite, one flat float32 buffer per layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .fileio import Reader, atomic_write
from .nnet import ComputationGraph, model_checksum
from .nnet.autodiff import picked_logit_sum
from .nnet.training import EVAL_BATCH, predict

TARGET_KINDS = ("neuron_output", "neuron_weight")
BASELINE_KINDS = ("zeros", "dataset_mean")
ATTRIBUTION_MAGIC = b"ISAT"
ATTRIBUTION_VERSION = 1


@dataclass
class Baseline:
    kind: str                 # one of BASELINE_KINDS
    tensor: np.ndarray        # per-sample model input shape

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.float32)


def make_baseline(kind, model, dataset=None) -> Baseline:
    if kind == "zeros":
        return Baseline("zeros", np.zeros(model.input_shape, dtype=np.float32))
    if kind == "dataset_mean":
        if dataset is None:
            raise ConfigError("dataset_mean baseline needs a dataset")
        return Baseline("dataset_mean", dataset.images.mean(axis=0))
    raise ConfigError(f"baseline must be one of {BASELINE_KINDS}, got {kind!r}")


@dataclass
class AttributionConfig:
    target_kind: str
    steps: int = 32                 # integration steps M (neuron_output)
    sample_count: int | None = None  # N inputs; None = full dataset
    baseline: str = "zeros"
    seed: int = 0

    def __post_init__(self):
        if self.target_kind not in TARGET_KINDS:
            raise ConfigError(f"target_kind must be one of {TARGET_KINDS}, got {self.target_kind!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.sample_count is not None and self.sample_count < 1:
            raise ConfigError(f"sample_count must be >= 1 or null, got {self.sample_count}")
        if self.baseline not in BASELINE_KINDS:
            raise ConfigError(f"baseline must be one of {BASELINE_KINDS}, got {self.baseline!r}")
        if not 0 <= self.seed < 2**63:  # the attribution file stores it as an i64
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")


@dataclass
class AttributionMap:
    target_kind: str
    scores: dict[int, np.ndarray]   # layer_id -> flat float32 scores
    model_checksum: str
    seed: int = 0
    steps: int = 0
    sample_count: int = 0
    baseline_kind: str = "zeros"

    def __post_init__(self):
        if self.target_kind not in TARGET_KINDS:
            raise ConfigError(f"bad target_kind {self.target_kind!r}")
        clean = {}
        for lid, arr in self.scores.items():
            arr = np.asarray(arr, dtype=np.float32).reshape(-1)
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise UsageError(f"layer {lid} attribution scores must be finite and >= 0")
            clean[int(lid)] = arr
        self.scores = clean


def conductance_components(model, images, baseline: Baseline, steps, classes=None):
    """Signed per-sample conductance for every layer, in chunks of
    EVAL_BATCH rows.

    Returns dict layer_id -> float64 [N, element_count].  ``classes`` fixes
    the scalarized output per sample; default is the clean-run prediction.
    """
    images = np.asarray(images, dtype=np.float32)
    if baseline.tensor.shape != model.input_shape:
        raise ConfigError(f"baseline shape {baseline.tensor.shape} != input {model.input_shape}")
    n = images.shape[0]
    if classes is None:
        classes = predict(model, images)[0]
    shapes = model.output_shapes()
    out = {lid: np.zeros((n, int(np.prod(s))), dtype=np.float64)
           for lid, s in enumerate(shapes)}
    # a ReLU is the only layer whose tangent reads its input: the tangents
    # of the layers before the first one depend on dx alone
    first_relu = next((lid for lid, layer in enumerate(model.layers) if layer.kind == "relu"),
                      len(model.layers))
    x_prime = baseline.tensor[None]
    for lo in range(0, n, EVAL_BATCH):
        xb = images[lo:lo + EVAL_BATCH]
        cb = classes[lo:lo + EVAL_BATCH]
        nb = xb.shape[0]
        dx = xb - x_prime
        rows = [out[lid][lo:lo + nb] for lid in out]
        tans = []
        for m in range(steps):
            alpha = (m + 0.5) / steps
            xa = (x_prime + alpha * dx).astype(np.float32)
            g = ComputationGraph()
            logits, acts = model.forward_graph(g, xa)
            if not m:   # the one-hot logit gradient is the same at every step
                glogits = picked_logit_sum(logits, cb)[1]
            grads = g.backward(glogits, outputs=True)
            start = first_relu if m else 0   # later steps keep the fixed tangents
            x_in, t_in = (acts[start - 1], tans[start - 1]) if start else (xa, dx)
            tans = tans[:start] + model.jvp(x_in, t_in, acts[start:], start)
            for row, grad, tan in zip(rows, grads, tans):
                term = np.multiply(grad, tan, dtype=np.float64)
                term /= steps
                row += term.reshape(nb, -1)
    return out


def conductance(model, layer_id, images, baseline: Baseline, steps) -> np.ndarray:
    """Per-element scores for one layer: mean over inputs of |conductance|."""
    if not 0 <= layer_id < len(model.layers):
        raise UsageError(f"layer id {layer_id} out of range")
    comps = conductance_components(model, images, baseline, steps)
    return np.abs(comps[layer_id]).mean(axis=0).astype(np.float32)


def weight_sums(model, images, classes=None):
    """Signed gradient sum over inputs of every weight layer's weight:
    dict layer_id -> float64 flat.  One forward and backward per
    EVAL_BATCH rows serves every layer; each layer's sum adds the batches
    in order."""
    images = np.asarray(images, dtype=np.float32)
    if classes is None:
        classes = predict(model, images)[0]
    weights = {lid: model.layers[lid].weight for lid in model.weight_layer_ids()}
    sums = {lid: np.zeros(w.data.size, dtype=np.float64) for lid, w in weights.items()}
    for lo in range(0, images.shape[0], EVAL_BATCH):
        g = ComputationGraph()
        logits, _ = model.forward_graph(g, images[lo:lo + EVAL_BATCH])
        g.backward(picked_logit_sum(logits, classes[lo:lo + EVAL_BATCH])[1])
        for lid, w in weights.items():
            sums[lid] += w.grad.astype(np.float64).reshape(-1)
    return sums


def eligible_layers(model, target_kind):
    if target_kind == "neuron_output":
        # reshape-only layers alias upstream values (or raw input pixels),
        # so they contribute no neuron outputs of their own
        return [lid for lid, layer in enumerate(model.layers) if layer.computes]
    if target_kind == "neuron_weight":
        return model.weight_layer_ids()
    raise ConfigError(f"bad target_kind {target_kind!r}")


def attribute_all(model, dataset, config: AttributionConfig) -> AttributionMap:
    """Attribution scores for every eligible layer; deterministic given seed."""
    n_total = len(dataset.labels)
    if n_total == 0:
        raise UsageError("cannot attribute over an empty dataset")
    if config.sample_count is None or config.sample_count >= n_total:
        idx = np.arange(n_total)
    else:
        rng = np.random.default_rng(config.seed)
        idx = rng.permutation(n_total)[:config.sample_count]
    images = dataset.images[idx]
    classes = predict(model, images)[0]

    scores: dict[int, np.ndarray] = {}
    if config.target_kind == "neuron_output":
        baseline = make_baseline(config.baseline, model, dataset)
        comps = conductance_components(model, images, baseline, config.steps,
                                       classes=classes)
        for lid in eligible_layers(model, "neuron_output"):
            scores[lid] = np.abs(comps[lid]).mean(axis=0).astype(np.float32)
    else:
        for lid, signed in weight_sums(model, images, classes).items():
            scores[lid] = np.abs(signed).astype(np.float32)
    return AttributionMap(
        target_kind=config.target_kind,
        scores=scores,
        model_checksum=model_checksum(model),
        seed=config.seed,
        steps=config.steps if config.target_kind == "neuron_output" else 0,
        sample_count=len(idx),
        baseline_kind=config.baseline if config.target_kind == "neuron_output" else "",
    )


# Attribution file: magic "ISAT" | version u32 | target_kind u32 |
# checksum length u32 + ascii hex | seed i64 | steps u32 | sample count u32 |
# baseline length u32 + ascii | layer count u32 | per layer: id u32,
# element count u32, float32 scores (little-endian).

def save_attribution(amap: AttributionMap, path):
    out = [ATTRIBUTION_MAGIC, struct.pack("<I", ATTRIBUTION_VERSION)]
    out.append(struct.pack("<I", TARGET_KINDS.index(amap.target_kind)))
    ck = amap.model_checksum.encode("ascii")
    out.append(struct.pack("<I", len(ck)) + ck)
    out.append(struct.pack("<q", amap.seed))
    out.append(struct.pack("<II", amap.steps, amap.sample_count))
    bl = amap.baseline_kind.encode("ascii")
    out.append(struct.pack("<I", len(bl)) + bl)
    out.append(struct.pack("<I", len(amap.scores)))
    for lid in sorted(amap.scores):
        arr = amap.scores[lid]
        out.append(struct.pack("<II", lid, arr.size))
        out.append(arr.astype("<f4").tobytes())
    atomic_write(path, b"".join(out))


def load_attribution(path) -> AttributionMap:
    """Parse an attribution file.  Any defect of the file, including scores
    that are negative or not finite, raises DataFormatError."""
    r = Reader(path)
    magic = r.take(4, "magic")
    if magic != ATTRIBUTION_MAGIC:
        raise r.fail(f"expected magic {ATTRIBUTION_MAGIC!r} at offset 0, got {magic!r}")
    version = r.u32("version")
    if version != ATTRIBUTION_VERSION:
        raise r.fail(f"unsupported attribution version {version}")
    kind_tag = r.u32("target_kind")
    if kind_tag >= len(TARGET_KINDS):
        raise r.fail(f"unknown target_kind tag {kind_tag}")
    checksum = r.ascii(r.u32("checksum length"), "checksum")
    seed = r.unpack("<q", "seed")[0]
    steps, n_samples = r.unpack("<II", "steps/samples")
    baseline_kind = r.ascii(r.u32("baseline length"), "baseline kind")
    layer_count = r.u32("layer count")
    scores = {}
    for _ in range(layer_count):
        lid, count = r.unpack("<II", "layer header")
        if lid in scores:
            raise r.fail(f"layer {lid} listed twice, again at offset {r.offset - 8}")
        scores[lid] = r.f32_array(count, (count,), f"layer {lid} scores")
    r.finish()
    try:
        return AttributionMap(target_kind=TARGET_KINDS[kind_tag], scores=scores,
                              model_checksum=checksum, seed=seed, steps=steps,
                              sample_count=n_samples, baseline_kind=baseline_kind)
    except UsageError as exc:
        raise r.fail(str(exc)) from exc
