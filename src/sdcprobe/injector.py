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
the layers from the fault onward, on the same batches, and its results are
bit-identical to the full recompute it performs without a cache.  Past
PREFIX_CACHE_BYTES a chunk keeps only its input.

An outcome is a pure function of (parameters, dataset, site), so the cache
also memoizes it: evaluate_with_fault(..., prefix=cache) stores each
(accuracy, poisoned) it computes in cache.outcomes.  PrefixCache.shared
hands campaigns and latency runs one process-wide cache per model and
dataset, so they evaluate each distinct site once per model and dataset,
across calls.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .fault_model import FaultSite
from .nnet import ActivationFault, evaluate_detailed, model_checksum
from .nnet.layers import patch_outputs
from .nnet.training import EVAL_BATCH, classify, score


@dataclass
class InjectionHandle:
    site: FaultSite
    active: bool = True
    _fault: ActivationFault | None = field(default=None, repr=False)
    original_bit: int | None = None  # weight faults: the bit before injection


def _check_layer(model, site):
    if not 0 <= site.layer_id < len(model.layers):
        raise UsageError(f"layer id {site.layer_id} out of range")


def _weight_view(model, site):
    _check_layer(model, site)
    layer = model.layers[site.layer_id]
    weight = getattr(layer, "weight", None)
    if weight is None:
        raise UsageError(f"layer {site.layer_id} ({layer.kind}) has no weights")
    flat = weight.data.reshape(-1)
    if not 0 <= site.element_index < flat.size:
        raise UsageError(f"element {site.element_index} out of range for layer "
                         f"{site.layer_id} ({flat.size} weights)")
    return flat


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
    _check_layer(model, site)
    n_elems = math.prod(model.in_shapes[site.layer_id + 1])
    if not 0 <= site.element_index < n_elems:
        raise UsageError(f"element {site.element_index} out of range for layer "
                         f"{site.layer_id} outputs ({n_elems} elements)")
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


class PrefixCache:
    """Clean per-layer activations of one model on one dataset, and the
    outcomes of the faults evaluated through it.

    Built by one clean forward pass per EVAL_BATCH chunk, which also gives
    the baseline.  Every chunk keeps its input; while the outputs fit in
    PREFIX_CACHE_BYTES it also keeps each layer's output, so chunks[c][L]
    is the input of layer L.  The arrays are made read-only, so evaluations
    only read them, and threads that each evaluate on their own Model.copy()
    replica may share one cache without locks.  outcomes maps each FaultSite
    evaluated through the cache to its (accuracy, poisoned).

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
        self.nbytes = 4 * n * sum(int(np.prod(s)) for s in model.output_shapes())
        self.stores_activations = self.nbytes <= PREFIX_CACHE_BYTES
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

    def evaluate(self, model, site: FaultSite) -> tuple[float, bool]:
        """(accuracy, poisoned) with the site already injected into model.

        With activations stored, a weight fault at L resumes from the clean
        input of L and an output fault at L at L+1, from the clean output of
        L patched here: a pass starting after L never applies faults
        registered on L.  Without them the pass starts at layer 0 and
        applies the injected fault itself.
        """
        start, faults = 0, ()
        if self.stores_activations:
            start = site.layer_id
            if site.target_kind == "neuron_output":
                start += 1
                faults = [ActivationFault(site.layer_id, site.element_index, site.bit_index)]
        logits = [model.apply(patch_outputs(chunk[start], faults) if faults else chunk[start],
                              start=start) for chunk in self.chunks]
        return score(*classify(logits), self.dataset.labels)


def _release_slot(ref):
    """Weak-reference callback: the slot's model was collected."""
    if PrefixCache._slot is not None and PrefixCache._slot[0] is ref:
        PrefixCache._slot = None


def evaluate_with_fault(model, dataset, site: FaultSite,
                        prefix: PrefixCache | None = None) -> tuple[float, bool]:
    """(accuracy, poisoned) on the dataset with one fault active.

    Without prefix this is the full-recompute reference.  With a
    PrefixCache that passes check() for this model and dataset, only the
    layers from the faulted one onward run, and the outcome is stored in
    prefix.outcomes once the evaluation succeeds.  The fault is always
    removed afterwards, even when evaluation raises.
    """
    if prefix is None:
        return evaluate_with_fault_set(model, dataset, [site])
    prefix.check(model, dataset)
    handle = inject(model, site)
    try:
        outcome = prefix.evaluate(model, site)
    finally:
        remove(model, handle)
    prefix.outcomes[site] = outcome
    return outcome


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
