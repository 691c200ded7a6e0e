"""Fault-site sampling: experiment codes, two-stage weighted draws.

A fault site is (layer, target kind, element, bit).  Sampling happens in two
stages: the neuron stage picks an element across all eligible layers pooled
into one categorical distribution (attribution-weighted or uniform), then
the bit stage picks one of 32 bits by the configured bit-weight scheme.
A uniform-mix probability rho routes a draw past both stages straight to a
uniform (element, bit) pick, which keeps every site reachable.

Each draw ordinal k owns its own RNG stream: the four uniforms of
``np.random.default_rng(np.random.SeedSequence((seed, k))).random(4)``.  A
sequence of sites therefore depends only on (seed, ordinal), never on
batching or on how many workers consume the stream.  ``FaultSampler.sample``
draws a block of ordinals at once: a vectorized copy of numpy's
SeedSequence and PCG64 (O'Neill 2014, XSL-RR output) gives those same
uniforms bit for bit, and every stage of the draw runs on the whole block.
"""

from __future__ import annotations

import copy
import csv
import io
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import bitfloat
from .attribution import eligible_layers
from .errors import ConfigError, DataFormatError, UsageError
from .fileio import atomic_write, read_text
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
    """Bucket drawn by each (u_bucket, u_accept) pair; scalars or arrays."""
    i = np.asarray(u_bucket * prob.size).astype(np.int64)
    return np.where(u_accept < prob[i], i, alias[i])


# numpy's SeedSequence (pool size 4) and PCG64 constants
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_U16, _U32 = np.uint32(16), np.uint64(32)


def _int_words(value):
    """SeedSequence's coercion of a nonnegative int: its little-endian
    32-bit words, at least one."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash_consts(init, mult, count):
    """The data-independent hash constants of `count` successive hashes, as
    (xor, multiply) columns: call i xors with h_i and multiplies by h_i+1."""
    h = [init]
    for _ in range(count):
        h.append((h[-1] * mult) & _M32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


def _hashmix(values, xor, mul):
    v = (values ^ xor) * mul
    return v ^ (v >> _U16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _U16)


def _seed_state(entropy):
    """SeedSequence(entropy words).generate_state(4, uint64), vectorized:
    entropy is [n_words, n] uint32, one column per stream; returns
    [4, n] uint64."""
    n_words, n = entropy.shape
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, n_words - 4))
    pool = np.zeros((4, n), dtype=np.uint32)
    pool[:min(n_words, 4)] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    c = 4
    for src in range(4):  # every pool word mixes into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[c:c + 3], mul[c:c + 3]))
        c += 3
    for word in entropy[4:]:  # words past the pool size mix into all four
        pool = _mix(pool, _hashmix(word, xor[c:c + 4], mul[c:c + 4]))
        c += 4
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
    return state[0::2] | (state[1::2] << _U32)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays, by
    32-bit limbs."""
    m = np.uint64(_M32)
    a0, a1, b0, b1 = a & m, a >> _U32, b & m, b >> _U32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U32) + (p01 & m) + (p10 & m)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _mul128(ahi, alo, bhi, blo):
    """(ahi, alo) * (bhi, blo) mod 2**128, in uint64 halves."""
    return _mulhi(alo, blo) + ahi * blo + alo * bhi, alo * blo


def _add128(ahi, alo, bhi, blo):
    lo = alo + blo
    return ahi + bhi + (lo < alo).astype(np.uint64), lo


def _pcg_jumps(steps):
    """PCG64 jump-ahead: (a, c) with s_j = a * s + c * inc mod 2**128, where
    s_j is state s after j steps s -> s * multiplier + inc; one [len(steps), 1]
    uint64 column per 64-bit half, as (a_hi, a_lo, c_hi, c_lo)."""
    mult = (_PCG_MULT_HI << 64) | _PCG_MULT_LO
    a, c, rows = 1, 0, []
    for j in range(1, max(steps) + 1):
        a, c = (a * mult) % 2**128, (c * mult + 1) % 2**128
        if j in steps:
            rows.append((a >> 64, a & (2**64 - 1), c >> 64, c & (2**64 - 1)))
    return tuple(np.array(col, dtype=np.uint64)[:, None] for col in zip(*rows))


# PCG64 seeding steps once after adding initstate, then each of the four
# doubles of random(4) steps once before its output: states 2..5 steps on
_OUTPUT_JUMPS = _pcg_jumps((2, 3, 4, 5))


def _ordinal_words(start, stop):
    """Entropy word rows of the ordinals start..stop-1, in runs of equal
    word count: [[n_words, run length] uint32, ...]."""
    runs = []
    while start < stop:
        n_words = len(_int_words(start))
        end = min(stop, 1 << (32 * n_words))
        if end <= 1 << 64:
            ks = np.arange(start, end, dtype=np.uint64)
            words = [(ks >> np.uint64(32 * j)) & np.uint64(_M32) for j in range(n_words)]
        else:
            ks = np.arange(start, end, dtype=object)
            words = [(ks >> (32 * j)) & _M32 for j in range(n_words)]
        runs.append(np.array(words, dtype=np.uint32))
        start = end
    return runs


def _stream_uniforms(seed, start, n):
    """[n, 4] float64: row i is bit for bit
    np.random.default_rng(np.random.SeedSequence((seed, start + i))).random(4)."""
    seed_words = np.array(_int_words(seed), dtype=np.uint32)[:, None]
    blocks = []
    for kwords in _ordinal_words(start, start + n):
        entropy = np.concatenate(
            [np.repeat(seed_words, kwords.shape[1], axis=1), kwords])
        s = _seed_state(entropy)
        # PCG64 seeding: state 0, inc = initseq << 1 | 1, step (state = inc),
        # add initstate; the four output states follow by jump-ahead
        inc_hi = (s[2] << np.uint64(1)) | (s[3] >> np.uint64(63))
        inc_lo = (s[3] << np.uint64(1)) | np.uint64(1)
        a_hi, a_lo, c_hi, c_lo = _OUTPUT_JUMPS
        hi, lo = _add128(*_mul128(*_add128(inc_hi, inc_lo, s[0], s[1]), a_hi, a_lo),
                         *_mul128(inc_hi, inc_lo, c_hi, c_lo))
        # XSL-RR output: (hi ^ lo) rotated right by the top 6 bits of the state
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        blocks.append(((x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).T)
    return np.concatenate(blocks)


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

    def with_seed(self, seed: int) -> FaultSampler:
        """The sampler of the same code, tables and uniform mix under
        another seed; it shares this one's alias table and bit stage, so
        it draws what build_sampler would build for that seed."""
        sampler = copy.copy(self)
        sampler.config = replace(self.config, seed=seed)
        return sampler

    def sample_at(self, ordinal: int) -> FaultSite:
        """The fault site for one draw ordinal; a pure function of
        (config.seed, ordinal)."""
        return self.sample(1, ordinal)[0]

    def sample(self, n: int, start_ordinal: int = 0) -> list[FaultSite]:
        """Sites of the ordinals start_ordinal .. start_ordinal+n-1, each
        the same as sample_at gives, drawn as one vectorized block."""
        if n < 1:
            raise UsageError(f"sample needs n >= 1, got {n}")
        if start_ordinal < 0:
            raise UsageError(f"sample needs start_ordinal >= 0, got {start_ordinal}")
        u = _stream_uniforms(self.config.seed, start_ordinal, n)
        # uniform-mix branch: a uniform (element, bit) pick
        mixed = u[:, 0] < self.config.uniform_mix
        g_mix = np.minimum((u[:, 1] * self.n_elements).astype(np.int64), self.n_elements - 1)
        bit_mix = np.minimum((u[:, 3] * 32).astype(np.int64), 31)
        # guided branch: neuron stage, then the bit stage of that element
        g = alias_draw(self._alias_prob, self._alias_alias, u[:, 1], u[:, 2])
        if self._bit_cdf.ndim == 1:
            bit = np.searchsorted(self._bit_cdf, u[:, 3], side="right")
        else:  # entries <= u of each row: searchsorted(side="right") per row
            bit = np.count_nonzero(self._bit_cdf[g] <= u[:, 3:], axis=1)
        g = np.where(mixed, g_mix, g)
        bit = np.where(mixed, bit_mix, np.minimum(bit, 31))
        li = np.searchsorted(self.offsets, g, side="right") - 1
        layers = np.asarray(self.layer_ids)[li]
        kind = self.code.target_kind
        return [FaultSite(layer, kind, elem, b) for layer, elem, b in
                zip(layers.tolist(), (g - self.offsets[li]).tolist(), bit.tolist())]


def _element_pool(model, target_kind):
    layer_ids = eligible_layers(model, target_kind)
    if target_kind == "neuron_output":
        shapes = model.output_shapes()
        return layer_ids, [int(np.prod(shapes[lid])) for lid in layer_ids]
    return layer_ids, [int(model.layers[lid].weight.data.size) for lid in layer_ids]


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
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
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
