"""Bit-flip injection and fault-present evaluation.

A `with faults_active(model, sites)` block is the one way to make a fault
set active, and the set is active exactly for its body; evaluation with a
fault set and fault-aware training both go through it.  A weight fault
sets one bit of a stored parameter to the complement of its original
value, in place, and the block's exit sets it back, so the model is
restored bit for bit even when the flip lands on a NaN pattern.  Output
faults are never model state: the block hands them to its forward passes
as output_faults=, which flip the element in every sample.

A fault at layer L cannot change anything upstream of L.  A PrefixCache
keeps the clean activations of every layer, chunked exactly as evaluation
chunks the dataset, so evaluate_with_fault(..., prefix=cache) reruns only
the layers from the fault onward, on the same batches.  Past
PREFIX_CACHE_BYTES a chunk keeps only its input, and the clean layers
before the fault run first, once per chunk.

It evaluates faults in stacks: up to K sites of one layer and one kind in
one pass, with a leading variant axis of K rows.  A weight stack is K
copies of the layer's weight, each with one bit XORed; an output stack is
K copies of the layer's clean output, each with one column XORed.  The
variant axis stays separate from the batch axis wherever a BLAS call sees
it (Model.apply), and a single pass runs the same code with K = 1, so
every variant makes exactly the calls its single-site pass makes, and each
outcome is bit-identical, by construction, to the full recompute that
evaluate_with_fault performs without a cache.  K is the number of
variants whose float64 activations over one chunk fit STACK_BYTES.  No
stacked pass writes the model.

An outcome is a pure function of (parameters, dataset, site), so the cache
also memoizes it: evaluate_with_fault(..., prefix=cache) stores the
(accuracy, poisoned) of every site of its stack in cache.outcomes.
PrefixCache.shared hands campaigns and latency runs one process-wide cache
per model and dataset, so they evaluate each distinct site once per model
and dataset, across calls.

Many output faults need no pass at all.  PrefixCache.certify bounds, with
interval bound propagation around the clean activations (Gowal et al.,
2018), how far one flipped output element can move each logit, rounding
of both passes included.  A site whose bound stays below every sample's
clean top-1 margin changes no prediction and makes no NaN, so its outcome
is the baseline, which certify stores in cache.outcomes.  Campaigns and
latency runs certify each drawn block before any stack is filled.  Weight
sites are never certified.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from itertools import compress

import numpy as np

from .bitfloat import xor_bits
from .errors import UsageError
from .fault_model import FaultSite
from .nnet import ActivationFault, evaluate_detailed, model_checksum
from .nnet.training import EVAL_BATCH, classify, score


def _site_error(model, site):
    """Why the site names no element of the model, or None if it does."""
    lid, element = site.layer_id, site.element_index
    if not 0 <= lid < len(model.layers):
        return f"layer id {lid} out of range"
    if site.target_kind == "neuron_weight":
        layer = model.layers[lid]
        weight = getattr(layer, "weight", None)
        if weight is None:
            return f"layer {lid} ({layer.kind}) has no weights"
        if not 0 <= element < weight.data.size:
            return f"element {element} out of range for layer {lid} ({weight.data.size} weights)"
    else:
        size = math.prod(model.in_shapes[lid + 1])
        if not 0 <= element < size:
            return f"element {element} out of range for layer {lid} outputs ({size} elements)"
    return None


def _check_site(model, site):
    error = _site_error(model, site)
    if error is not None:
        raise UsageError(error)


# Largest set of activations a prefix cache keeps, in bytes: N x (per-sample
# activations) x 4, so 1.1 MB for 1500 6x6 images through a small CNN but
# about 590 MB for 10000 28x28 images through a [4, 8]-channel one.  Past it
# a chunk keeps only its input, a view of the dataset, and evaluations run
# every layer, one chunk at a time.
PREFIX_CACHE_BYTES = 64 << 20

# Largest stacked pass, in bytes: K variants x 8 x ((rows of the largest
# chunk) x (per-sample activations) + (largest weight)), in the float64 the
# layers compute in.  The acceptance CNN (179 activations per sample, 256
# weights in its largest layer) stacks 23 sites on 45 rows and 4 on 256; the
# CLI's default CNN on 28x28 images stacks 1.
STACK_BYTES = 3 << 19


class PrefixCache:
    """Clean per-layer activations of one model on one dataset, and the
    outcomes of the faults evaluated through it.

    Built by one clean forward pass per EVAL_BATCH chunk, which also gives
    the baseline.  Every chunk keeps its input; while the outputs fit in
    PREFIX_CACHE_BYTES it also keeps each layer's output, so chunks[c][L]
    is the input of layer L.  The arrays are made read-only, and stacked
    evaluations only read them and the model, so threads may share one
    cache and one model without locks.  outcomes maps each FaultSite
    evaluated or certified through the cache to its (accuracy, poisoned),
    and certified counts the sites certify() proved harmless.  stack_size
    is the most sites one stacked pass evaluates (see STACK_BYTES).

    The cache is only valid for models identical to the one it was built
    from: replicas made by Model.copy() qualify, the same model after its
    parameters change does not.  check() refuses another dataset or another
    layer stack; parameters are not compared, since hashing them on every
    evaluation would cost as much as the layers the cache saves.  shared()
    compares them once per call.
    """

    # (weak reference to the model, validity key, cache) of the last
    # shared() call; the process holds at most this one shared cache
    _slot = None

    def __init__(self, model, dataset):
        n = len(dataset.labels)
        if n == 0:
            raise UsageError("cannot evaluate on an empty dataset")
        self.dataset = dataset
        self._signature = self._model_signature(model)
        per_sample = sum(math.prod(s) for s in model.output_shapes())
        self.nbytes = 4 * n * per_sample
        self.stores_activations = self.nbytes <= PREFIX_CACHE_BYTES
        widest = max((model.layers[i].weight.data.size for i in model.weight_layer_ids()),
                     default=0)
        self.stack_size = max(1, STACK_BYTES // (8 * (min(n, EVAL_BATCH) * per_sample + widest)))
        self.chunks, logits = [], []
        for lo in range(0, n, EVAL_BATCH):
            x = dataset.images[lo:lo + EVAL_BATCH]
            out, acts = model.apply(x, return_activations=True)
            chunk = [x] + acts if self.stores_activations else [x]
            for a in chunk:
                a.flags.writeable = False
            self.chunks.append(chunk)
            logits.append(out)
        # (accuracy, poisoned) of the clean model, as evaluate_detailed gives it
        self.baseline = score(*classify(logits), dataset.labels)
        self.outcomes: dict[FaultSite, tuple[float, bool]] = {}
        self.certified = 0
        self._tolerances = {}  # layer id -> tol table of certify(), [elements, N]

    @classmethod
    def shared(cls, model, dataset) -> PrefixCache:
        """The process-wide cache for model on dataset.

        Returns the previous call's cache, outcomes included, when it was
        made for this model object and this dataset object and neither has
        changed since: same model checksum (which covers the layer stack)
        and dataset hash.
        Otherwise it builds a new cache and puts it in the slot in place of
        the old one.  The slot holds the model by weak reference and is
        emptied when the model is collected.
        """
        key = model_checksum(model), dataset.sha256()
        if PrefixCache._slot is not None:
            ref, slot_key, cache = PrefixCache._slot
            if ref() is model and cache.dataset is dataset and slot_key == key:
                return cache
        cache = cls(model, dataset)
        PrefixCache._slot = (weakref.ref(model, _release_slot), key, cache)
        return cache

    @staticmethod
    def clear_shared():
        """Empty the slot of shared(), releasing its cache."""
        PrefixCache._slot = None

    @staticmethod
    def _model_signature(model):
        return model.input_shape, tuple(layer.kind for layer in model.layers)

    def check(self, model, dataset):
        """Raise UsageError unless this cache can serve model on dataset."""
        if dataset is not self.dataset:
            raise UsageError("prefix cache was built for a different dataset")
        if self._model_signature(model) != self._signature:
            raise UsageError("prefix cache was built for a model with other layers")

    def evaluate_stack(self, model, sites) -> list[tuple[float, bool]]:
        """(accuracy, poisoned) of each site, in order, from one pass over
        the layers from the sites' layer L onward, one variant per site.

        The sites share L and kind and must name elements of the model.  A
        weight stack resumes from the clean input of L, with variant k's
        weight XORed at site k; an output stack from the clean output of L,
        with variant k's column XORed.  Without stored activations the
        clean layers before that start run first, once per chunk, as the
        cache build ran them.
        """
        lid, k = sites[0].layer_id, len(sites)
        weights = masks = None
        if sites[0].target_kind == "neuron_weight":
            start, w = lid, model.layers[lid].weight.data
            weights = xor_bits(w.reshape(1, -1), _stack_masks(sites, w.size)).reshape(k, *w.shape)
        else:
            start = lid + 1
            masks = _stack_masks(sites, math.prod(model.in_shapes[start]))[:, None, :]
        logits = []
        for chunk in self.chunks:
            x = chunk[start] if start < len(chunk) else model.apply(chunk[0], stop=start)
            rows = len(x)
            if masks is not None:
                x = xor_bits(x.reshape(rows, -1), masks).reshape(k * rows, *x.shape[1:])
            out = model.apply(x, start=start, variants=k, weights=weights)
            logits.append(out.reshape(k, rows, -1))
        return list(zip(*score(*classify(logits), self.dataset.labels)))

    def certify(self, model, sites):
        """Store self.baseline as the outcome of every output-fault site in
        sites that a sound bound proves harmless, and add their number to
        self.certified.

        Only sites that fault an output, name an element of the model and
        have no outcome yet are checked, and only when the cache stores
        activations.  Site (L, e, b) is certified when, on every sample s,
        Δ = |flip_b(v) - v| < tol_L[e, s], v the clean output element; a
        NaN or inf Δ fails that comparison by itself.  tol_L is a float32
        table built the first time layer L is checked, one chunk at a time,
        from the weights and the cached activations (_tolerance_tables), so
        all tables together take at most self.nbytes.

        Why a certified site's outcome is the baseline, on one sample.  A
        conv or linear layer with n weights computes Wx + b in float64 and
        rounds the result to float32, y.  Products of float32 values are
        exact in float64, sums in any order err by at most γ_n·A, with
        A = |W||x| + |b| and γ_n = n·2^-53/(1 - n·2^-53), and the rounding
        errs by at most 2^-24|y| + 2^-150 while the float64 result is at
        most FLT_MAX.  Let r = γ_n·A + 2^-24|y| + 2^-150 in the clean pass.
        If the faulted pass's input is within d of the clean one,
        elementwise, its own error is at most r + γ_n|W|d plus 2^-24 of the
        change, so
            |y' - y| <= κ|W|d + ρ,  κ = (1 + γ_n)/(1 - 2^-24),
                                     ρ = 2r/(1 - 2^-24).
        ReLU is 1-Lipschitz and Flatten moves no value.  Chained over the
        layers after L from d = Δ at element e, logit j moves by at most
        Δ·G_L[e, j] + R_L[j]: G_L is the chain of κ|W| applied to an
        identity, and R_L carries each later layer's ρ to the logits the
        same way.  If the clean top class c leads each other class j by
        m_j > 0 and Δ·(G_L[e, c] + G_L[e, j]) + R_L[c] + R_L[j] < m_j, c
        still leads strictly, so argmax, which breaks ties low, keeps it;
        a tie is never certified.  The rounding model also needs each later
        float64 result at most FLT_MAX, since an inf times a zero weight
        makes a NaN: the chain bounds each by its clean value plus Δ·U_L[e]
        plus the ρ carried so far, U_L[e] summing e's gains to every later
        weighted layer's elements, and tol keeps that sum below 2^127.  A
        sample whose clean logits are not all finite, as with a poisoned
        baseline, has tol NaN, so then nothing is certified.

        The tables are float64 sums and products of non-negative terms, so
        their rounding can only leave them short of the exact bound by a
        factor 1 - γ.  Larger constants cover that: κ = 1 + 2^-23 +
        4γ_{n+1}, and ρ = 4γ_{n+1}·A + 2^-22|y| + 2^-148, with A at most
        the row sums of |W| times max|x|, plus |b|.  Scaling the margin by
        1 - 2^-49, 16 units of rounding, covers the few roundings of Δ, the
        margin, the subtraction and the quotient, and tol is rounded toward
        zero to float32.  The cap of 2^127, half of FLT_MAX, leaves far more
        room than the rounding of its own sum needs.
        """
        if not self.stores_activations:
            return
        by_layer: dict[int, dict[FaultSite, None]] = {}
        for site in sites:
            if (site.target_kind != "neuron_weight" and site not in self.outcomes
                    and _site_error(model, site) is None):
                by_layer.setdefault(site.layer_id, {})[site] = None
        missing = [lid for lid in by_layer if lid not in self._tolerances]
        if missing:
            self._tolerances.update(_tolerance_tables(model, self.chunks, missing))
        # sites per check, so that its float64 [samples, sites] arrays fit STACK_BYTES
        per_check = max(1, STACK_BYTES // (8 * len(self.dataset.labels)))
        for lid, group in by_layer.items():
            group = list(group)
            for lo in range(0, len(group), per_check):
                batch = group[lo:lo + per_check]
                elements = [s.element_index for s in batch]
                masks = np.array([1 << s.bit_index for s in batch], dtype=np.uint32)
                clean = np.concatenate([c[lid + 1].reshape(len(c[0]), -1)[:, elements]
                                        for c in self.chunks])
                with np.errstate(invalid="ignore", over="ignore"):
                    delta = np.subtract(xor_bits(clean, masks), clean, dtype=np.float64)
                np.abs(delta, out=delta)
                harmless = (delta < self._tolerances[lid][elements].T).all(axis=0)
                for site in compress(batch, harmless):
                    self.outcomes[site] = self.baseline
                self.certified += int(harmless.sum())


def _stack_masks(sites, size):
    """[K, size] uint32 masks: row k holds site k's bit at its element."""
    masks = np.zeros((len(sites), size), dtype=np.uint32)
    for k, site in enumerate(sites):
        masks[k, site.element_index] = 1 << site.bit_index
    return masks


def _gamma(n):
    """γ_n = n·u/(1 - n·u), u = 2^-53: the relative error of a float64 sum
    of n + 1 terms in any order (Higham, Accuracy and Stability, 3.1)."""
    nu = n * 2.0 ** -53
    return nu / (1 - nu)


def _abs_transpose(layer, a, in_shape):
    """|W|^T a in float64, for a flat batch a of the layer's outputs; flat
    [rows, elements of its input] out."""
    w = np.abs(layer.weight.data.astype(np.float64))
    if layer.kind == "linear":
        return a @ w
    (o, c, kh, kw), s, (_, h, wd) = w.shape, layer.stride, in_shape
    oh, ow = (h - kh) // s + 1, (wd - kw) // s + 1
    a = a.reshape(len(a), o, oh, ow)
    out = np.zeros((len(a), c, h, wd))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s] += np.einsum(
                "oc,nopq->ncpq", w[:, :, i, j], a)
    return out.reshape(len(a), -1)


def _tolerance_tables(model, chunks, lids):
    """{L: tol_L} of PrefixCache.certify for each layer id L in lids, each
    float32 [elements of L's output, samples], built from the weights and
    one chunk's cached activations at a time; they keep no reference to
    the model."""
    layers, shapes = model.layers, model.in_shapes
    classes = math.prod(shapes[-1])
    first = min(lids)
    # h = [G | U] of each layer's output, from the logits (G = I, U = 0) back
    # to the first layer in lids; ReLU and Flatten pass h on unchanged
    h = np.eye(classes, classes + 1)
    gains = {}
    weighted = []  # per weighted layer after `first`, last first: what its ρ needs
    for l in range(len(layers) - 1, first, -1):
        if l in lids:
            gains[l] = h
        layer = layers[l]
        if getattr(layer, "weight", None) is None:
            continue
        w = np.abs(layer.weight.data.astype(np.float64)).reshape(len(layer.weight.data), -1)
        per_row = len(h) // len(w)  # output elements per row of W: 1, or a conv's OH*OW
        bias = (np.zeros(len(w)) if layer.bias is None
                else np.abs(layer.bias.data.astype(np.float64)))
        gamma = _gamma(w.size + 1)
        hl = h + np.eye(1, classes + 1, classes)  # [G | 1 + U]
        # ρ hl = max|x| (4γ |W| row sums) hl + (4γ|b| + 2^-148) hl + 2^-22 |y| hl,
        # as A <= (|W| row sums) max|x| + |b|
        weighted.append((l, hl, 4 * gamma * np.repeat(w.sum(axis=1), per_row) @ hl,
                         (4 * gamma * np.repeat(bias, per_row) + 2.0 ** -148) @ hl))
        h = (1 + 2.0 ** -23 + 4 * gamma) * _abs_transpose(layer, hl.T, shapes[l]).T
    gains[first] = h
    n = sum(len(c[0]) for c in chunks)
    tables = {lid: np.empty((len(gains[lid]), n), dtype=np.float32) for lid in lids}
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for chunk in chunks:
            rows = len(chunk[0])
            z = chunk[-1].reshape(rows, -1).astype(np.float64)
            top = z.argmax(axis=1)
            picked = (np.arange(rows), top)
            margin = (1 - 2.0 ** -49) * (z[picked][:, None] - z)
            margin[picked] = np.inf
            margin[~np.isfinite(z).all(axis=1)] = np.nan
            carried = np.zeros((rows, classes + 1))  # Σ ρ [G | 1 + U] of the layers after L
            later = iter(weighted)
            step = next(later, None)
            for lid in sorted(lids, reverse=True):
                while step is not None and step[0] > lid:
                    l, hl, from_x, from_floor = step
                    x_max = np.abs(chunk[l].reshape(rows, -1)).max(axis=1).astype(np.float64)
                    y = chunk[l + 1].reshape(rows, -1).astype(np.float64)
                    np.abs(y, out=y)
                    carried += x_max[:, None] * from_x + from_floor + 2.0 ** -22 * (y @ hl)
                    step = next(later, None)
                gain, reach = gains[lid][:, :classes], gains[lid][:, classes:]
                # each later |y| <= 2^22 ρ, so the cap's sum is at most (1 + 2^22) ρ (1 + U)
                room = 2.0 ** 127 - (1 + 2.0 ** 22) * carried[:, classes]
                rest = margin - (carried[picked][:, None] + carried[:, :classes])
                # rows at a time, so that each float64 [elements, rows] array fits STACK_BYTES
                span = max(1, STACK_BYTES // (8 * len(gain)))
                for a in range(lo, lo + rows, span):
                    part = slice(a - lo, a - lo + span)
                    tol = room[part] / reach
                    gain_top = gain[:, top[part]]
                    for j in range(classes):
                        quotient = gain_top + gain[:, j:j + 1]
                        np.divide(rest[part, j], quotient, out=quotient)
                        np.minimum(tol, quotient, out=tol)
                    np.maximum(tol, 0, out=tol)  # a tol of zero certifies nothing
                    t32 = tables[lid][:, a:a + tol.shape[1]]
                    t32[...] = tol
                    # toward zero: one float32 step down where rounding went up
                    t32.view(np.uint32)[...] -= t32 > tol
            lo += rows
    return tables


def _release_slot(ref):
    """Weak-reference callback: the slot's model was collected."""
    if PrefixCache._slot is not None and PrefixCache._slot[0] is ref:
        PrefixCache._slot = None


def evaluate_with_fault(model, dataset, site: FaultSite,
                        prefix: PrefixCache | None = None, ahead=()) -> tuple[float, bool]:
    """(accuracy, poisoned) on the dataset with one fault active.

    Without prefix this is the full-recompute reference,
    evaluate_with_fault_set of the one site, which restores a weight
    fault's bit even when evaluation raises.  With a PrefixCache that
    passes check() for this model and dataset, the site is evaluated in a
    stack (PrefixCache.evaluate_stack) that it leads, filled up to
    prefix.stack_size with the first sites of the iterable ahead, in
    order, that share its layer and kind, name an element of the model and
    are neither in prefix.outcomes nor already stacked; run_campaign passes
    the rest of the drawn block.  A site that names no element raises
    UsageError; one in ahead is left out.  Every outcome of the stack is
    stored in prefix.outcomes once the pass succeeds, and the model is
    never written.
    """
    if prefix is None:
        return evaluate_with_fault_set(model, dataset, [site])
    prefix.check(model, dataset)
    _check_site(model, site)
    stack = {site: None}
    for other in ahead:
        if len(stack) >= prefix.stack_size:
            break
        if (other.layer_id == site.layer_id and other.target_kind == site.target_kind
                and other not in stack and other not in prefix.outcomes
                and _site_error(model, other) is None):
            stack[other] = None
    outcomes = prefix.evaluate_stack(model, list(stack))
    prefix.outcomes.update(zip(stack, outcomes))
    return outcomes[0]


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
    sites = list(dict.fromkeys(sites))
    for site in sites:
        _check_site(model, site)
    output_faults = [ActivationFault(s.layer_id, s.element_index, s.bit_index)
                     for s in sites if s.target_kind != "neuron_weight"]
    # (flat uint32 view of the weight, element, bit mask, faulted bit) per
    # weight site; optimizers write p.data in place, so the views stay valid
    pins = []
    for s in sites:
        if s.target_kind == "neuron_weight":
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


def evaluate_with_fault_set(model, dataset, sites) -> tuple[float, bool]:
    """(accuracy, poisoned) with every distinct site in the set active at
    once (see faults_active)."""
    with faults_active(model, sites) as (output_faults, _):
        return evaluate_detailed(model, dataset, output_faults)
