"""Bit-flip injection and fault-present evaluation.

Weight faults set one bit of a stored parameter to the complement of its
original value, in place, and removal sets it back, so the model is
restored bit for bit even when the flip lands on a NaN pattern.  Both
steps go through pin_weight_bit, which fault-aware training also uses to
hold a fault through optimizer updates.  Output faults register on the
model and corrupt the targeted activation element of every sample on every
forward pass until removed.

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
it (Model.apply), so every variant makes exactly the calls its
single-site pass makes, and each outcome is bit-identical, by
construction, to the full recompute that evaluate_with_fault performs
without a cache.  K is the number of variants whose float64 activations
over one chunk fit STACK_BYTES.  No stacked pass writes the model.

An outcome is a pure function of (parameters, dataset, site), so the cache
also memoizes it: evaluate_with_fault(..., prefix=cache) stores the
(accuracy, poisoned) of every site of its stack in cache.outcomes.
PrefixCache.shared hands campaigns and latency runs one process-wide cache
per model and dataset, so they evaluate each distinct site once per model
and dataset, across calls.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .bitfloat import xor_bits
from .errors import UsageError
from .fault_model import FaultSite
from .nnet import ActivationFault, evaluate_detailed, model_checksum
from .nnet.training import EVAL_BATCH, classify, score


@dataclass
class InjectionHandle:
    site: FaultSite
    active: bool = True
    _fault: ActivationFault | None = field(default=None, repr=False)
    original_bit: int | None = None  # weight faults: the bit before injection


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


def _weight_view(model, site):
    _check_site(model, site)
    return model.layers[site.layer_id].weight.data.reshape(-1)


def pin_weight_bit(model, site: FaultSite, value: int):
    """Set the site's bit of its weight's raw float32 pattern to value (0 or
    1); the other 31 bits are untouched, so this is exact on NaN patterns."""
    word = _weight_view(model, site).view(np.uint32)
    mask = np.uint32(1) << np.uint32(site.bit_index)
    if value:
        word[site.element_index] |= mask
    else:
        word[site.element_index] &= ~mask


def inject(model, site: FaultSite) -> InjectionHandle:
    """Activate one fault site on the model; returns the handle that undoes it."""
    if site.target_kind == "neuron_weight":
        word = _weight_view(model, site).view(np.uint32)[site.element_index]
        bit = int(word) >> site.bit_index & 1
        pin_weight_bit(model, site, 1 - bit)
        return InjectionHandle(site, original_bit=bit)
    _check_site(model, site)
    fault = ActivationFault(site.layer_id, site.element_index, site.bit_index)
    model.registered_output_faults.append(fault)
    return InjectionHandle(site, _fault=fault)


def remove(model, handle: InjectionHandle):
    """Deactivate the fault; the model is restored bit-exactly."""
    if not handle.active:
        raise UsageError("injection handle was already removed")
    if handle._fault is not None:
        model.registered_output_faults.remove(handle._fault)
    else:
        pin_weight_bit(model, handle.site, handle.original_bit)
    handle.active = False


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
    evaluated through the cache to its (accuracy, poisoned).  stack_size
    is the most sites one stacked pass evaluates (see STACK_BYTES).

    The cache is only valid for models identical to the one it was built
    from: replicas made by Model.copy() qualify, the same model after its
    parameters change does not.  check() refuses another dataset, another
    layer stack or other registered output faults; parameters are not
    compared, since hashing them on every evaluation would cost as much as
    the layers the cache saves.  shared() compares them once per call.
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

    @classmethod
    def shared(cls, model, dataset) -> PrefixCache:
        """The process-wide cache for model on dataset.

        Returns the previous call's cache, outcomes included, when it was
        made for this model object and this dataset object and neither has
        changed since: same model checksum, dataset hash, layer stack and
        registered output faults.  Otherwise it builds a new cache and puts
        it in the slot in place of the old one.  The slot holds the model
        by weak reference and is emptied when the model is collected.
        """
        key = (model_checksum(model), dataset.sha256(), cls._model_signature(model))
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
        return (model.input_shape, tuple(layer.kind for layer in model.layers),
                tuple(model.registered_output_faults))

    def check(self, model, dataset):
        """Raise UsageError unless this cache can serve model on dataset."""
        if dataset is not self.dataset:
            raise UsageError("prefix cache was built for a different dataset")
        if self._model_signature(model) != self._signature:
            raise UsageError("prefix cache was built for a model with other layers "
                             "or other registered output faults")

    def evaluate_stack(self, model, sites) -> list[tuple[float, bool]]:
        """(accuracy, poisoned) of each site, in order, from one pass over
        the layers from the sites' layer L onward, one variant per site.

        The sites share L and kind and must name elements of the model.  A
        weight stack resumes from the clean input of L, with variant k's
        weight XORed at site k; an output stack from the clean output of L,
        already carrying the faults registered on L, with variant k's
        column XORed.  Without stored activations the clean layers before
        that start run first, once per chunk, as the cache build ran them.
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
        preds, poisoned = classify(logits)
        # hits / rows, the division np.mean makes: hit counts are exact
        accuracy = (preds == self.dataset.labels).sum(axis=-1) / preds.shape[-1]
        return list(zip(accuracy.tolist(), poisoned.any(axis=-1).tolist()))


def _stack_masks(sites, size):
    """[K, size] uint32 masks: row k holds site k's bit at its element."""
    masks = np.zeros((len(sites), size), dtype=np.uint32)
    for k, site in enumerate(sites):
        masks[k, site.element_index] = 1 << site.bit_index
    return masks


def _release_slot(ref):
    """Weak-reference callback: the slot's model was collected."""
    if PrefixCache._slot is not None and PrefixCache._slot[0] is ref:
        PrefixCache._slot = None


def evaluate_with_fault(model, dataset, site: FaultSite,
                        prefix: PrefixCache | None = None, ahead=()) -> tuple[float, bool]:
    """(accuracy, poisoned) on the dataset with one fault active.

    Without prefix this is the full-recompute reference: the fault is
    injected into the model and always removed afterwards, even when
    evaluation raises.  With a PrefixCache that passes check() for this
    model and dataset, the site is evaluated in a stack
    (PrefixCache.evaluate_stack) that it leads, filled up to
    prefix.stack_size with the first sites of the iterable ahead, in
    order, that share its layer and kind, name an element of the model and
    are neither in prefix.outcomes nor already stacked; ahead is typically
    the rest of a drawn block.  A site that names no element raises
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


def inject_set(model, sites) -> list:
    """Activate a set of faults together; duplicates are dropped first,
    since injecting the same site twice would flip its bit back."""
    handles = []
    try:
        for site in dict.fromkeys(sites):
            handles.append(inject(model, site))
    except BaseException:
        for h in reversed(handles):
            remove(model, h)
        raise
    return handles


def evaluate_with_fault_set(model, dataset, sites) -> tuple[float, bool]:
    """(accuracy, poisoned) with every site in the set active at once."""
    handles = inject_set(model, sites)
    try:
        return evaluate_detailed(model, dataset)
    finally:
        for h in reversed(handles):
            remove(model, h)
