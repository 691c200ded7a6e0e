"""Training loop, optimizers, evaluation.

Evaluation tolerates non-finite activations: a sample whose logits contain
NaN cannot be compared meaningfully, so its prediction resolves to class 0
and the batch is marked poisoned.  Training, by contrast, treats any
non-finite loss or parameter as divergence and aborts.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergedError, UsageError
from .autodiff import ComputationGraph

EVAL_BATCH = 256


class Sgd:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data = (p.data.astype(np.float64) - self.lr * p.grad.astype(np.float64)
                          ).astype(np.float32)


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
        self.v = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / b1t
            vhat = self.v[i] / b2t
            p.data = (p.data.astype(np.float64)
                      - self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(np.float32)


def make_optimizer(name, params, lr):
    if name == "sgd":
        return Sgd(params, lr)
    if name == "adam":
        return Adam(params, lr)
    raise UsageError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")


def classify(logits):
    """(predicted class, poisoned flag) per row of a logits batch.

    Rows whose logits contain NaN resolve to class 0 (the lowest index) and
    are flagged; argmax on finite logits breaks ties at the lowest index.
    """
    bad = np.isnan(logits).any(axis=1)
    p = np.argmax(logits, axis=1)
    p[bad] = 0
    return p, bad


def predict(model, images, output_faults=(), batch_size=EVAL_BATCH):
    """Predicted class per sample plus a per-sample poisoned mask (see
    classify), computed in chunks of batch_size rows."""
    n = images.shape[0]
    preds = np.empty(n, dtype=np.int64)
    poisoned = np.zeros(n, dtype=bool)
    for lo in range(0, n, batch_size):
        logits = model.apply(images[lo:lo + batch_size], output_faults=output_faults)
        preds[lo:lo + batch_size], poisoned[lo:lo + batch_size] = classify(logits)
    return preds, poisoned


def score(preds, poisoned, labels):
    """(accuracy, any_poisoned) of per-sample predictions."""
    return float(np.mean(preds == labels)), bool(poisoned.any())


def evaluate_detailed(model, dataset, output_faults=(), batch_size=EVAL_BATCH):
    """(accuracy, any_poisoned) over a full dataset."""
    if len(dataset.labels) == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    preds, poisoned = predict(model, dataset.images, output_faults, batch_size)
    return score(preds, poisoned, dataset.labels)


def evaluate(model, dataset, batch_size=EVAL_BATCH):
    return evaluate_detailed(model, dataset, batch_size=batch_size)[0]


def train_step(model, xb, yb, optimizer, output_faults=()):
    """One forward/backward/update step; returns the batch loss (float).

    Gradients are cleared before the backward pass, so each step sees only
    its own batch.
    """
    for p in optimizer.params:
        p.zero_grad()
    g = ComputationGraph()
    logits, _ = model.forward_graph(g, xb, output_faults=output_faults)
    loss = g.softmax_cross_entropy(logits, yb)
    g.backward(loss)
    optimizer.step()
    return float(loss.data)


def _guarded_step(model, xb, yb, optimizer):
    """Forward/backward, but step only when loss and gradients are finite.

    Used for fault-active training: an injected fault can push inf/NaN into
    the loss for one batch, which must not corrupt the optimizer state.
    """
    for p in optimizer.params:
        p.zero_grad()
    g = ComputationGraph()
    logits, _ = model.forward_graph(g, xb)
    loss = g.softmax_cross_entropy(logits, yb)
    g.backward(loss)
    finite = bool(np.isfinite(loss.data)) and all(
        p.grad is None or np.isfinite(p.grad).all() for p in optimizer.params)
    if finite:
        optimizer.step()
    return float(loss.data), finite


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
    if on_nonfinite not in ("raise", "skip"):
        raise UsageError(f"on_nonfinite must be 'raise' or 'skip', got {on_nonfinite!r}")
    classes = model.output_shapes()[-1][0]
    if train_set.labels.min() < 0 or train_set.labels.max() >= classes:
        raise UsageError(f"labels out of range for {classes} classes")
    opt = make_optimizer(optimizer, model.parameters(), lr)
    rng = np.random.default_rng(seed)
    n = len(train_set.labels)
    log = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        any_step = False
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            xb, yb = train_set.images[idx], train_set.labels[idx]
            if on_nonfinite == "skip":
                _, stepped = _guarded_step(model, xb, yb, opt)
            else:
                loss = train_step(model, xb, yb, opt)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss} at epoch {epoch} batch {lo // batch_size}")
                stepped = True
            if stepped:
                any_step = True
                if post_step is not None:
                    post_step()
        if on_nonfinite == "skip":
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
