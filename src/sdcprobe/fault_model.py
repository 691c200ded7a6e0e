"""Fault-site sampling: experiment codes, two-stage weighted draws.

A fault site is (layer, target kind, element, bit).  Sampling happens in two
stages: the neuron stage picks an element across all eligible layers pooled
into one categorical distribution (attribution-weighted or uniform), then
the bit stage picks one of 32 bits by the configured bit-weight scheme.
A uniform-mix probability rho routes a draw past both stages straight to a
uniform (element, bit) pick, which keeps every site reachable.

Each draw ordinal k owns its own RNG stream derived from (seed, k), so a
sequence of sites depends only on (seed, ordinal), never on batching or on
how many workers consume the stream.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import bitfloat
from .errors import ConfigError, DataFormatError, UsageError
from .fileio import atomic_write
from .nnet import model_checksum

log = logging.getLogger(__name__)

BIT_SCHEME_CODES = {"G": "gradient", "E": "exponential", "L": "linear", "R": "uniform"}
NEURON_SCHEME_CODES = {"I": "importance", "R": "uniform"}
TARGET_CODES = {"o": "neuron_output", "w": "neuron_weight"}

_GRAMMAR = ("experiment code grammar: <bit G|E|L|R> 'B' <neuron I|R> 'N' <target o|w>, "
            "case-sensitive, e.g. GBINo or RBRNw")


@dataclass(frozen=True)
class FaultSite:
    layer_id: int
    target_kind: str          # neuron_output | neuron_weight
    element_index: int        # flat, row-major within the targeted tensor
    bit_index: int            # 0 (mantissa LSB) .. 31 (sign)

    def __post_init__(self):
        if self.target_kind not in TARGET_CODES.values():
            raise UsageError(f"bad target_kind {self.target_kind!r}")
        if not 0 <= self.bit_index <= 31:
            raise UsageError(f"bit_index {self.bit_index} out of range")


@dataclass(frozen=True)
class ExperimentCode:
    bit_scheme: str           # G | E | L | R
    neuron_scheme: str        # I | R
    target: str               # o | w

    def __post_init__(self):
        if (self.bit_scheme not in BIT_SCHEME_CODES
                or self.neuron_scheme not in NEURON_SCHEME_CODES
                or self.target not in TARGET_CODES):
            raise ConfigError(f"invalid experiment code fields "
                              f"{(self.bit_scheme, self.neuron_scheme, self.target)}; {_GRAMMAR}")

    def __str__(self):
        return f"{self.bit_scheme}B{self.neuron_scheme}N{self.target}"

    @property
    def bit_scheme_name(self):
        return BIT_SCHEME_CODES[self.bit_scheme]

    @property
    def target_kind(self):
        return TARGET_CODES[self.target]

    @property
    def needs_attributions(self):
        return self.neuron_scheme == "I"


def parse_code(text: str) -> ExperimentCode:
    if not isinstance(text, str) or len(text) != 5 or text[1] != "B" or text[3] != "N":
        raise ConfigError(f"malformed experiment code {text!r}; {_GRAMMAR}")
    code = ExperimentCode(text[0], text[2], text[4])
    return code


def all_codes():
    return [ExperimentCode(b, n, t)
            for b in "GELR" for n in "IR" for t in "ow"]


@dataclass
class SamplerConfig:
    code: ExperimentCode
    uniform_mix: float = 0.0  # rho
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.code, str):
            self.code = parse_code(self.code)
        if not 0.0 <= self.uniform_mix <= 1.0:
            raise ConfigError(f"uniform_mix must be in [0, 1], got {self.uniform_mix}")


def build_alias_table(probs):
    """Vose alias table for O(1) categorical draws.

    Returns (prob, alias): draw bucket i uniformly, keep i with probability
    prob[i], else take alias[i].
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise UsageError("alias table needs a nonempty 1-d probability vector")
    if (probs < 0).any() or not np.isfinite(probs).all():
        raise UsageError("alias table needs finite nonnegative weights")
    total = probs.sum()
    if total <= 0:
        raise UsageError("alias table needs a positive total weight")
    n = probs.size
    scaled = probs * (n / total)
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    return prob, alias


def alias_draw(prob, alias, u_bucket, u_accept):
    i = int(u_bucket * prob.size)
    return i if u_accept < prob[i] else int(alias[i])


class FaultSampler:
    """Immutable two-stage sampler; safe for concurrent draws."""

    def __init__(self, config: SamplerConfig, layer_ids, layer_counts,
                 neuron_weights, bit_stage):
        self.config = config
        self.code = config.code
        self.layer_ids = list(layer_ids)
        self.layer_counts = list(layer_counts)
        self.offsets = np.concatenate([[0], np.cumsum(layer_counts)])
        self.n_elements = int(self.offsets[-1])
        self.neuron_probs = np.asarray(neuron_weights, dtype=np.float64)
        self.neuron_probs /= self.neuron_probs.sum()
        self._alias_prob, self._alias_alias = build_alias_table(self.neuron_probs)
        # bit_stage: float64 [32] shared CDF, or [n_elements, 32] per-element CDF
        self._bit_cdf = bit_stage

    @property
    def search_space_size(self):
        return self.n_elements * 32

    def site_of_global_index(self, g: int) -> tuple[int, int]:
        """(layer_id, local element index) of a pooled element index."""
        li = int(np.searchsorted(self.offsets, g, side="right")) - 1
        return self.layer_ids[li], int(g - self.offsets[li])

    def sample_at(self, ordinal: int) -> FaultSite:
        """The fault site for one draw ordinal; a pure function of
        (config.seed, ordinal)."""
        rng = np.random.default_rng(np.random.SeedSequence((self.config.seed, ordinal)))
        u = rng.random(4)
        if u[0] < self.config.uniform_mix:
            g = min(int(u[1] * self.n_elements), self.n_elements - 1)
            bit = min(int(u[3] * 32), 31)
        else:
            g = alias_draw(self._alias_prob, self._alias_alias, u[1], u[2])
            cdf = self._bit_cdf if self._bit_cdf.ndim == 1 else self._bit_cdf[g]
            bit = min(int(np.searchsorted(cdf, u[3], side="right")), 31)
        layer_id, elem = self.site_of_global_index(g)
        return FaultSite(layer_id, self.code.target_kind, elem, bit)

    def sample(self, n: int, start_ordinal: int = 0) -> list[FaultSite]:
        if n < 1:
            raise UsageError(f"sample needs n >= 1, got {n}")
        return [self.sample_at(k) for k in range(start_ordinal, start_ordinal + n)]


def _element_pool(model, target_kind):
    shapes = model.output_shapes()
    if target_kind == "neuron_output":
        # same eligibility as attribution: reshape-only layers own no outputs
        layer_ids = [lid for lid, layer in enumerate(model.layers)
                     if layer.computes]
        counts = [int(np.prod(shapes[lid])) for lid in layer_ids]
    else:
        layer_ids = model.weight_layer_ids()
        counts = [int(model.layers[lid].weight.data.size) for lid in layer_ids]
    return layer_ids, counts


def _pooled_values(model, target_kind, probe_images):
    """Per-element float32 values used by the gradient bit scheme."""
    if target_kind == "neuron_weight":
        return np.concatenate([model.layers[lid].weight.data.reshape(-1)
                               for lid in model.weight_layer_ids()])
    if probe_images is None:
        raise ConfigError("gradient bit scheme on neuron outputs needs a probe batch "
                          "of inputs to take clean-run activation values from")
    _, acts = model.apply(probe_images, return_activations=True)
    layer_ids, _ = _element_pool(model, "neuron_output")
    return np.concatenate([acts[lid].mean(axis=0).reshape(-1).astype(np.float32)
                           for lid in layer_ids])


def _bit_stage(code: ExperimentCode, model, probe_images):
    if code.bit_scheme == "G":
        values = _pooled_values(model, code.target_kind, probe_images)
        weights = bitfloat.bit_weights_many("gradient", values)
        cdf = np.cumsum(weights, axis=1)
        return cdf / cdf[:, -1:]
    weights = bitfloat.bit_weights(code.bit_scheme_name)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def build_sampler(config: SamplerConfig, attributions=None, model=None,
                  probe_images=None) -> FaultSampler:
    """Assemble the two-stage sampler for one experiment code.

    attributions are required exactly when the neuron scheme is I; their
    target kind and model checksum must match.  All-zero attribution scores
    fall back to uniform with a logged warning.
    """
    if model is None:
        raise ConfigError("build_sampler needs the model")
    code = config.code
    layer_ids, counts = _element_pool(model, code.target_kind)
    if sum(counts) == 0:
        raise ConfigError("model exposes no elements for this target kind")

    if code.needs_attributions:
        if attributions is None:
            raise ConfigError(f"code {code} requires attributions for the importance "
                              f"neuron stage")
        if attributions.target_kind != code.target_kind:
            raise ConfigError(
                f"attribution target {attributions.target_kind} does not match "
                f"code target {code.target_kind}")
        if attributions.model_checksum != model_checksum(model):
            raise ConfigError("attribution file was computed for a different model "
                              "(checksum mismatch)")
        parts = []
        for lid, count in zip(layer_ids, counts):
            if lid not in attributions.scores:
                raise ConfigError(f"attribution map lacks scores for layer {lid}")
            arr = attributions.scores[lid]
            if arr.size != count:
                raise ConfigError(f"layer {lid}: {arr.size} scores for {count} elements")
            parts.append(arr.astype(np.float64))
        neuron_weights = np.concatenate(parts)
        if neuron_weights.sum() <= 0:
            log.warning("all attribution scores are zero; falling back to uniform "
                        "neuron sampling")
            neuron_weights = np.ones(sum(counts), dtype=np.float64)
    else:
        neuron_weights = np.ones(sum(counts), dtype=np.float64)

    bit_stage = _bit_stage(code, model, probe_images)
    return FaultSampler(config, layer_ids, counts, neuron_weights, bit_stage)


def enumerate_sites(model, target_kind) -> list[FaultSite]:
    """Every (layer, element, bit) site, ordered; the exhaustive search space."""
    layer_ids, counts = _element_pool(model, target_kind)
    sites = []
    for lid, count in zip(layer_ids, counts):
        for e in range(count):
            for b in range(32):
                sites.append(FaultSite(lid, target_kind, e, b))
    return sites


FAULT_CSV_HEADER = ["layer_id", "target_kind", "element_index", "bit_index"]


def save_fault_csv(sites, path):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(FAULT_CSV_HEADER)
    for s in sites:
        writer.writerow([s.layer_id, s.target_kind, s.element_index, s.bit_index])
    atomic_write(path, buf.getvalue())


def load_fault_csv(path) -> list[FaultSite]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FAULT_CSV_HEADER:
            raise DataFormatError(f"{path}: expected header {FAULT_CSV_HEADER}, got {header}")
        sites = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                sites.append(FaultSite(int(row[0]), row[1], int(row[2]), int(row[3])))
            except (ValueError, UsageError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return sites
