"""Training loop, optimizers (updating parameters in place), evaluation.

There is one training loop, train_lockstep: K models of one architecture
train on one batch order, each batch one stacked step.  For the run,
every parameter gets a leading variant axis, the axis the layers also
give a campaign's stack of faulted weights, the loss is taken per
variant, and the optimizers keep [K, P] buffers with a step count per
variant.  train is its one-model case.

Evaluation tolerates non-finite activations: a sample whose logits contain
NaN cannot be compared meaningfully, so its prediction resolves to class 0
and the batch is marked poisoned.  Training, by contrast, treats any
non-finite loss or parameter as divergence and aborts, unless the model
runs with faults active (train(..., faults=)), where such a batch is
skipped for that model alone.
"""

from __future__ import annotations

import math
from contextlib import ExitStack

import numpy as np

from ..errors import ConfigError, TrainingDivergedError, UsageError
from .autodiff import ComputationGraph, softmax_cross_entropy
from .layers import faults_active

EVAL_BATCH = 256


def _rows(active):
    """The rows to update: every variant's at once (None) when every
    variant steps, else each stepping variant's own, so that a skipped
    variant's row is neither read nor written."""
    return [None] if all(active) else [k for k, a in enumerate(active) if a]


def _row_views(*buffers):
    """Per key of _rows, views of the buffers' rows it names."""
    keys = [(None, slice(None))] + [(k, slice(k, k + 1)) for k in range(len(buffers[0]))]
    return {key: tuple(b[rows] for b in buffers) for key, rows in keys}


class Sgd:
    """w <- w - lr * grad, in float64, rounded once into the float32
    weights: a [K, P] buffer, one row of flat parameters per variant,
    updated in place.  The caller fills grads, a float64 buffer of the same
    shape."""

    def __init__(self, weights, lr):
        self.weights, self.lr = weights, float(lr)
        self.grads = np.zeros(weights.shape, dtype=np.float64)
        self._views = _row_views(weights, self.grads)

    def step(self, active):
        """One update of each variant k with active[k]."""
        for r in _rows(active):
            w, g = self._views[r]
            w[...] = w.astype(np.float64) - self.lr * g


class Adam:
    """Adam over a float32 [K, P] weight buffer, as Sgd, with m and v in
    float64 buffers of the same shape and a step count t per variant."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, weights, lr):
        self.weights, self.lr = weights, float(lr)
        self.grads = np.zeros(weights.shape, dtype=np.float64)
        self.m = np.zeros_like(self.grads)
        self.v = np.zeros_like(self.grads)
        self.t = [0] * len(weights)
        self._b1t = np.ones((len(weights), 1))   # 1 - b1^t per variant
        self._b2t = np.ones((len(weights), 1))   # 1 - b2^t per variant
        self._views = _row_views(weights, self.grads, self.m, self.v, np.empty_like(self.m),
                                 np.empty_like(self.m), self._b1t, self._b2t)

    def step(self, active):
        """One update of each variant k with active[k]; a skipped variant
        keeps its t, m, v and weights.  The operation order is fixed, since
        it sets the bits: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        w = w - (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps), each bias
        correction computed from its variant's t with Python floats."""
        for k, a in enumerate(active):
            if a:
                self.t[k] += 1
                self._b1t[k, 0] = 1.0 - self.beta1 ** self.t[k]
                self._b2t[k, 0] = 1.0 - self.beta2 ** self.t[k]
        for r in _rows(active):
            weights, g, m, v, w, tmp, b1t, b2t = self._views[r]
            w[...] = weights
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=tmp)
            m += tmp
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(v, b2t, out=g)          # g is free from here on
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, b1t, out=tmp)
            tmp *= self.lr
            tmp /= g
            w -= tmp
            weights[...] = w


def make_optimizer(name, weights, lr):
    if name == "sgd":
        return Sgd(weights, lr)
    if name == "adam":
        return Adam(weights, lr)
    raise UsageError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")


def classify(logits):
    """(predicted class, poisoned flag) per row of a list of per-chunk
    logits, taken in order.  Chunks of shape [K, rows, classes] hold K
    variants' logits and give [K, N] results.

    Rows whose logits contain NaN resolve to class 0 (the lowest index) and
    are flagged; argmax on finite logits breaks ties at the lowest index.
    Each row is classified on its own, so the chunking does not matter.
    """
    logits = logits[0] if len(logits) == 1 else np.concatenate(logits, axis=-2)
    bad = np.isnan(logits).any(axis=-1)
    p = np.argmax(logits, axis=-1)
    p[bad] = 0
    return p, bad


def predict(model, images, output_faults=()):
    """Predicted class per sample plus a per-sample poisoned mask (see
    classify), computed in chunks of EVAL_BATCH rows."""
    if images.shape[0] == 0:  # no chunk to classify
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return classify([model.apply(images[lo:lo + EVAL_BATCH], output_faults=output_faults)
                     for lo in range(0, images.shape[0], EVAL_BATCH)])


def score(preds, poisoned, labels):
    """(accuracy, any_poisoned) of per-sample predictions, over the last
    axis; accuracy is hits / rows, the division np.mean makes, made directly."""
    hits = (preds == labels).sum(axis=-1)
    return (hits / preds.shape[-1]).tolist(), poisoned.any(axis=-1).tolist()


def evaluate_detailed(model, dataset, output_faults=()):
    """(accuracy, any_poisoned) over a full dataset."""
    if len(dataset.labels) == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    return score(*predict(model, dataset.images, output_faults), dataset.labels)


def evaluate(model, dataset):
    return evaluate_detailed(model, dataset)[0]


class _Run:
    """One train_lockstep run, advanced a batch at a time by train_step:
    the models, the stacked model over the optimizer's [K, P] weights, the
    variants' output-fault masks, and per variant whether it trains
    guarded and its repin (see faults_active)."""

    def __init__(self, models, optimizer, active):
        self.models, self.optimizer = models, optimizer
        self.masks = models[0]._masks([faults for faults, _ in active])
        self.guarded = [bool(faults) or repin is not None for faults, repin in active]
        self.unguarded = [not guarded for guarded in self.guarded]
        self.unguarded_only = all(self.unguarded)
        # (variant, repin) of each variant with weight faults, which are guarded
        self.repins = [(k, repin) for k, (_, repin) in enumerate(active) if repin is not None]
        # one buffer row per variant; with one variant, the parameters' own shapes
        rows = slice(None) if len(models) > 1 else 0
        self.net = models[0].copy()
        for p, view in zip(self.net.parameters(), _views(optimizer.weights[rows], models[0])):
            p.data = view
        # each parameter of net, and the view of the optimizer's grads shaped like it
        self.grads = list(zip(self.net.parameters(), _views(optimizer.grads[rows], models[0])))


def _views(buffer, model):
    """Views of buffer's last axis split into the model's parameter shapes,
    behind any leading axes."""
    views, lo = [], 0
    for p in model.parameters():
        views.append(buffer[..., lo:lo + p.data.size].reshape(buffer.shape[:-1] + p.data.shape))
        lo += p.data.size
    return views


def train_step(run, xb, yb):
    """One stacked forward, backward and update of every variant on the
    batch (xb, yb); returns (per-variant losses, which variants stepped).

    Each backward writes fresh gradients, so a step sees only its own
    batch.  A guarded variant does not step when its loss or any of its
    gradients is non-finite: under fault-active training an injected fault
    can push inf/NaN into one batch, which must not corrupt the parameters
    or the optimizer state.  An unguarded variant always steps.
    """
    g = ComputationGraph()
    logits, _ = run.net._graph(g, xb, run.masks)
    losses, glogits = softmax_cross_entropy(logits, yb)
    g.backward(glogits)
    for p, grad in run.grads:
        grad[...] = p.grad
    losses = losses.tolist() * (len(run.models) // len(losses))  # one if nothing split the batch
    if run.unguarded_only:
        run.optimizer.step(run.unguarded)
        return losses, run.unguarded
    finite = np.isfinite(run.optimizer.grads).all(axis=1).tolist()
    stepped = [s or (f and math.isfinite(loss)) for s, f, loss in zip(run.unguarded, finite, losses)]
    if any(stepped):
        run.optimizer.step(stepped)
    for k, repin in run.repins:
        if stepped[k]:
            repin()
    return losses, stepped


def _check_set(model, dataset, what):
    """Refuse a dataset the model cannot train or evaluate on."""
    if len(dataset.labels) == 0:
        raise UsageError(f"cannot {what} on an empty dataset")
    if dataset.images.shape[1:] != model.input_shape:
        raise ConfigError(f"{what} images {dataset.images.shape[1:]} do not match the model "
                          f"input {model.input_shape}")
    classes = model.output_shapes()[-1][0]
    if dataset.labels.min() < 0 or dataset.labels.max() >= classes:
        raise UsageError(f"{what} labels out of range for {classes} classes")


def _architecture(model):
    return model.input_shape, [(layer.kind, getattr(layer, "stride", 1),
                                [p.data.shape for p in layer.params()])
                               for layer in model.layers]


def train_lockstep(models, train_set, *, epochs, batch_size, lr, optimizer="adam",
                   seed=0, eval_set=None, faults=None):
    """Train K models of one architecture in place, on one batch order;
    returns each model's per-epoch log, and leaves each model, as its own
    train call would, bit for bit.

    faults is None or one fault set per model, each handled as train
    handles its set, and so is divergence, per model.  The models must be
    distinct and share layer kinds, strides and parameter shapes.  All of
    it is checked before any step.  For the run, model k's parameters are
    contiguous views of row k of one float32 [K, P] buffer, which the
    optimizer updates in place and its weight faults are pinned through,
    and each batch is one stacked step (train_step).  On return, also when
    the run raises, each model's parameters are private row-major copies.
    """
    models = list(models)
    faults = [()] * len(models) if faults is None else [list(f) for f in faults]
    eval_set = train_set if eval_set is None else eval_set
    if not models or len(faults) != len(models):
        raise UsageError(f"training needs at least one model and one fault set per model; "
                         f"got {len(models)} models and {len(faults)} fault sets")
    if epochs < 0 or batch_size < 1 or not 0 < lr < math.inf or seed < 0:  # NaN lr too
        raise UsageError(f"training needs epochs >= 0, batch_size >= 1, a finite lr > 0 and "
                         f"seed >= 0; got {epochs}, {batch_size}, {lr} and {seed}")
    if any(_architecture(m) != _architecture(models[0]) for m in models):
        raise UsageError("models trained in lockstep must share one architecture")
    params = [m.parameters() for m in models]
    if len({id(p) for ps in params for p in ps}) != sum(map(len, params)):
        raise UsageError("models trained in lockstep must not share parameters")
    _check_set(models[0], train_set, "train")
    _check_set(models[0], eval_set, "evaluate")
    opt = make_optimizer(optimizer, np.zeros((len(models), sum(p.data.size for p in params[0])),
                                             dtype=np.float32), lr)
    try:
        for row, model in zip(opt.weights, models):
            for p, view in zip(model.parameters(), _views(row, model)):
                view[...], p.data = p.data, view
        with ExitStack() as blocks:
            active = [blocks.enter_context(faults_active(m, f)) for m, f in zip(models, faults)]
            run = _Run(models, opt, active)
            rng = np.random.default_rng(seed)
            n = len(train_set.labels)
            logs = [[] for _ in models]
            for epoch in range(epochs):
                any_step = _epoch(run, train_set, rng.permutation(n), batch_size, epoch)
                for k, (model, (output_faults, _)) in enumerate(zip(models, active)):
                    if run.guarded[k] and not any_step[k]:
                        raise TrainingDivergedError(f"every batch of epoch {epoch} was skipped "
                                                    "on non-finite loss or gradients"
                                                    f"{_of(k, models)}")
                    if not (run.guarded[k] or np.isfinite(opt.weights[k]).all()):
                        raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}"
                                                    f"{_of(k, models)}")
                    logs[k].append(evaluate_detailed(model, eval_set, output_faults)[0])
            return logs
    finally:
        for ps in params:
            for p in ps:
                p.data = p.data.copy()


def _epoch(run, train_set, order, batch_size, epoch):
    """One epoch of train_step on the batches of train_set in order;
    returns which variants stepped at least once.  Rows are gathered about
    EVAL_BATCH at a time, so that each batch is a view."""
    any_step = [False] * len(run.models)
    block = batch_size * -(-EVAL_BATCH // batch_size)
    for start in range(0, len(order), block):
        rows = order[start:start + block]
        images, labels = train_set.images[rows], train_set.labels[rows]
        for lo in range(0, len(rows), batch_size):
            losses, stepped = train_step(run, images[lo:lo + batch_size],
                                         labels[lo:lo + batch_size])
            if not all(map(math.isfinite, losses)):
                for k, loss in enumerate(losses):
                    if not (run.guarded[k] or math.isfinite(loss)):
                        raise TrainingDivergedError(
                            f"non-finite loss {loss} at epoch {epoch} batch "
                            f"{(start + lo) // batch_size}{_of(k, run.models)}")
            if not all(any_step):
                any_step = [a or s for a, s in zip(any_step, stepped)]
    return any_step


def _of(k, models):
    """Which model a divergence message is about, when there are several."""
    return f" (model {k})" if len(models) > 1 else ""


def train(model, train_set, *, epochs, batch_size, lr, optimizer="adam",
          seed=0, eval_set=None, faults=()):
    """Train in place; returns per-epoch accuracy on eval_set (or train_set).

    Deterministic given seed: init is the caller's, shuffle order comes from
    one generator seeded here.  epochs=0 leaves the model untouched.  Both
    datasets are checked before any step: neither may be empty, their
    images must match the model's input and their labels its classes.

    faults is a set of fault sites kept active for the whole run, inside
    one faults_active block: the output faults reach every forward pass,
    the per-epoch evaluation included, and each weight fault's bit is set
    again after every applied step.  With a fault active, training runs
    guarded: a batch whose loss or gradients are non-finite is skipped,
    since the faulted values themselves may be non-finite, and only an
    epoch where every batch is skipped counts as divergence.  Without
    faults, a non-finite loss or parameter aborts.  This is the one-model
    case of train_lockstep.
    """
    return train_lockstep([model], train_set, epochs=epochs, batch_size=batch_size, lr=lr,
                          optimizer=optimizer, seed=seed, eval_set=eval_set,
                          faults=[faults])[0]
