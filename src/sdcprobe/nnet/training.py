"""Training loop, optimizers (updating parameters in place), evaluation.

Evaluation tolerates non-finite activations: a sample whose logits contain
NaN cannot be compared meaningfully, so its prediction resolves to class 0
and the batch is marked poisoned.  Training, by contrast, treats any
non-finite loss or parameter as divergence and aborts, unless it runs
guarded (fault-active training), where such a batch is skipped.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TrainingDivergedError, UsageError
from .autodiff import ComputationGraph, softmax_cross_entropy

EVAL_BATCH = 256


def _flat_views(params):
    """One float64 buffer over all params, plus a view shaped like each."""
    buf = np.zeros(sum(p.data.size for p in params), dtype=np.float64)
    views, lo = [], 0
    for p in params:
        views.append(buf[lo:lo + p.data.size].reshape(p.data.shape))
        lo += p.data.size
    return buf, views


class Sgd:
    """p <- p - lr * grad, in float64, rounded once into the float32 data."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data[...] = p.data.astype(np.float64) - self.lr * p.grad.astype(np.float64)


class Adam:
    """Adam with m and v in flat float64 buffers, updated in place; every
    parameter must carry a gradient when step() runs."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros(sum(p.data.size for p in self.params), dtype=np.float64)
        self.v = np.zeros_like(self.m)
        self._g, self._g_views = _flat_views(self.params)
        self._w, self._w_views = _flat_views(self.params)
        self._tmp = np.empty_like(self.m)

    def step(self):
        """One update; the operation order is fixed, since it sets the bits:
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        w = w - (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g, w, m, v, tmp = self._g, self._w, self.m, self.v, self._tmp
        for p, gv, wv in zip(self.params, self._g_views, self._w_views):
            gv[...] = p.grad
            wv[...] = p.data
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
        for p, wv in zip(self.params, self._w_views):
            p.data[...] = wv


def make_optimizer(name, params, lr):
    if name == "sgd":
        return Sgd(params, lr)
    if name == "adam":
        return Adam(params, lr)
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
    """(accuracy, any_poisoned) of per-sample predictions."""
    return float(np.mean(preds == labels)), bool(poisoned.any())


def evaluate_detailed(model, dataset, output_faults=()):
    """(accuracy, any_poisoned) over a full dataset."""
    if len(dataset.labels) == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    return score(*predict(model, dataset.images, output_faults), dataset.labels)


def evaluate(model, dataset):
    return evaluate_detailed(model, dataset)[0]


def train_step(model, xb, yb, optimizer, guarded=False):
    """One forward/backward/update step; returns (batch loss, stepped).

    Each backward writes fresh gradients, so a step sees only its own
    batch.  With guarded=True the update is skipped (stepped is False)
    when the loss or any gradient is non-finite: under fault-active
    training an injected fault can push inf/NaN into one batch, which must
    not corrupt the parameters or the optimizer state.
    """
    g = ComputationGraph()
    logits, _ = model.forward_graph(g, xb)
    loss, glogits = softmax_cross_entropy(logits, yb)
    g.backward(glogits)
    loss = float(loss)
    if guarded:
        grads = [p.grad.reshape(-1) for p in optimizer.params]
        if not (math.isfinite(loss) and (not grads or np.isfinite(np.concatenate(grads)).all())):
            return loss, False
    optimizer.step()
    return loss, True


def train(model, train_set, *, epochs, batch_size, lr, optimizer="adam",
          seed=0, eval_set=None, on_nonfinite="raise", post_step=None):
    """Train in place; returns per-epoch accuracy on eval_set (or train_set).

    Deterministic given seed: init is the caller's, shuffle order comes from
    one generator seeded here.  epochs=0 leaves the model untouched.

    on_nonfinite="skip" drops any batch whose loss or gradients are
    non-finite instead of aborting; an epoch where every batch is dropped
    still counts as divergence.  The skip mode exists for training with
    faults active, where the faulted parameter values themselves may be
    non-finite, so the end-of-epoch parameter check only runs in raise
    mode.  post_step, when given, runs after every applied optimizer step
    (e.g. to re-apply persistent weight faults).
    """
    if len(train_set.labels) == 0:
        raise UsageError("cannot train on an empty dataset")
    if epochs < 0 or batch_size < 1 or lr <= 0:
        raise UsageError(f"training needs epochs >= 0, batch_size >= 1 and lr > 0; got "
                         f"{epochs}, {batch_size} and {lr}")
    if on_nonfinite not in ("raise", "skip"):
        raise UsageError(f"on_nonfinite must be 'raise' or 'skip', got {on_nonfinite!r}")
    classes = model.output_shapes()[-1][0]
    if train_set.labels.min() < 0 or train_set.labels.max() >= classes:
        raise UsageError(f"labels out of range for {classes} classes")
    opt = make_optimizer(optimizer, model.parameters(), lr)
    skip = on_nonfinite == "skip"
    rng = np.random.default_rng(seed)
    n = len(train_set.labels)
    log = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        any_step = False
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            xb, yb = train_set.images[idx], train_set.labels[idx]
            loss, stepped = train_step(model, xb, yb, opt, guarded=skip)
            if not skip and not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch} batch {lo // batch_size}")
            if stepped:
                any_step = True
                if post_step is not None:
                    post_step()
        if skip:
            if not any_step:
                raise TrainingDivergedError(
                    f"every batch of epoch {epoch} was skipped on non-finite loss "
                    "or gradients")
        else:
            for p in model.parameters():
                if not np.isfinite(p.data).all():
                    raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}")
        log.append(evaluate(model, eval_set if eval_set is not None else train_set))
    return log
