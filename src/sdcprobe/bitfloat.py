"""Relaxed-bit IEEE-754 binary32 codec with per-bit gradients.

A float32 value is represented as 32 "relaxed" bits, each a real number in
[0, 1] (at a concrete pattern every bit is exactly 0.0 or 1.0).  The decode
is written as a smooth composition over those relaxed bits, so d(value)/d(bit)
exists everywhere and can be used as a per-bit importance score.

Bit index convention, fixed throughout the package:

    bits  0..22   mantissa (0 = mantissa LSB)
    bits 23..30   exponent (23 = exponent LSB)
    bit  31       sign

Special exponent patterns (E == 255) never produce IEEE infinities or NaNs;
they decode to a flagged finite surrogate so downstream arithmetic and
gradients stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LN2 = float(np.log(2.0))
FLT_MAX = float(np.finfo(np.float32).max)

# Finite stand-in for the infinity pattern: the largest non-infinite float32
# divided by 33.  The NaN pattern reuses the same magnitude.
SPECIAL_SURROGATE = float(np.float32(FLT_MAX / 33.0))

# Floor for gradient-derived bit weights; keeps every bit sampleable even at
# value == 0 where most bit gradients vanish or underflow.
WEIGHT_FLOOR = 1e-30

BIT_SCHEMES = ("gradient", "exponential", "linear", "uniform")

_MANT_POW = 2.0 ** (np.arange(23, dtype=np.float64) - 23.0)  # 2^(k-23)
_EXP_POW = 2.0 ** np.arange(8, dtype=np.float64)             # 2^j


@dataclass
class BitVector32:
    """32 relaxed bits of one float32 value."""

    bits: np.ndarray                 # float64[32], each in [0, 1]

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.float64)
        if self.bits.shape != (32,):
            raise ValueError(f"expected 32 bits, got shape {self.bits.shape}")


@dataclass
class DecodeResult:
    value: np.float32
    flag_nan: bool
    flag_inf: bool
    sign: int  # +1 or -1, taken from the sign bit even for flagged patterns


def float_to_pattern(value) -> int:
    """IEEE-754 binary32 bit pattern of ``value`` as an unsigned int."""
    return int(np.float32(value).view(np.uint32))


def pattern_to_float(pattern: int) -> np.float32:
    return np.uint32(pattern).view(np.float32)


def flip_bit(value, bit_index: int) -> np.float32:
    """XOR one bit of the float32 pattern of ``value``.  Involutive."""
    return flip_bit_many(value, bit_index)[0]


def flip_bit_many(values, bit_index: int) -> np.ndarray:
    """flip_bit applied elementwise to a float32 array, preserving shape."""
    return xor_bits(values, bit_mask(bit_index))


def bit_mask(bit_index: int) -> np.uint32:
    """The uint32 pattern with only bit_index set."""
    if not 0 <= bit_index <= 31:
        raise ValueError(f"bit_index {bit_index} out of range [0, 31]")
    return np.uint32(1 << bit_index)


def xor_bits(values, masks) -> np.ndarray:
    """New float32 array: the patterns of values XORed with the uint32
    masks, broadcast against each other.  values is never written.  A
    [K, 1, E] stack of mask rows over an [N, E] batch gives K patched
    copies of the batch in one pass."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    return np.bitwise_xor(u, masks).view(np.float32)


def encode(value) -> BitVector32:
    """Exact bit pattern of a float32 as a relaxed-bit vector (all 0.0/1.0)."""
    return BitVector32(encode_many(value)[0])


def encode_many(values) -> np.ndarray:
    """Vectorized encode: float32[n] -> float64[n, 32] of exact bits."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    return ((u[:, None] >> np.arange(32, dtype=np.uint32)[None, :]) & 1).astype(np.float64)


def decode_relaxed(bits) -> float:
    """decode_relaxed_many of one row of 32 relaxed bits."""
    return float(decode_relaxed_many([bits])[0])


def decode_relaxed_many(bits_matrix) -> np.ndarray:
    """Smooth decode of rows of 32 relaxed bits: float64[n, 32] -> float64[n].

    The branch (normal / subnormal / special) is chosen from each row's
    exponent bits rounded to {0, 1}; within a branch the value is a smooth
    function of the relaxed bits, which is what makes central finite
    differences over bits meaningful.  At a concrete pattern the result is
    the exact IEEE decoding (special patterns map to the signed surrogate).
    """
    b = np.asarray(bits_matrix, dtype=np.float64)
    sign_factor = 1.0 - 2.0 * b[:, 31]
    mant_frac = b[:, 0:23] @ _MANT_POW
    exp_relaxed = b[:, 23:31] @ _EXP_POW
    exp_class = np.rint(b[:, 23:31]).astype(np.int64) @ (2 ** np.arange(8))

    values = np.where(exp_class == 0,
                      sign_factor * 2.0 ** -126 * mant_frac,
                      sign_factor * 2.0 ** (exp_relaxed - 127.0) * (1.0 + mant_frac))
    return np.where(exp_class == 255, sign_factor * SPECIAL_SURROGATE, values)


def decode(bits) -> DecodeResult:
    """Decode a BitVector32 (or raw 32-vector) to a flagged float32."""
    if isinstance(bits, BitVector32):
        bits = bits.bits
    values, flag_nan, flag_inf = decode_many([bits])
    return DecodeResult(value=values[0], flag_nan=bool(flag_nan[0]),
                        flag_inf=bool(flag_inf[0]), sign=-1 if np.rint(bits[31]) else +1)


def decode_many(bits_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_relaxed_many as float32, with the special patterns flagged.

    bits_matrix: float64[n, 32] of relaxed bits; the flags are read from
    the bits rounded to {0, 1}.
    Returns (values float32[n], flag_nan bool[n], flag_inf bool[n]).
    """
    b = np.asarray(bits_matrix, dtype=np.float64)
    rounded = np.rint(b)
    special = rounded[:, 23:31] @ _EXP_POW == 255.0
    mant_nonzero = rounded[:, 0:23].any(axis=1)
    return (decode_relaxed_many(b).astype(np.float32),
            special & mant_nonzero,
            special & ~mant_nonzero)


def bit_gradients(value) -> np.ndarray:
    """d(decode)/d(bit_i) of the relaxed decode at the concrete pattern of
    a finite float32 ``value``.  Returns float64[32]."""
    return bit_gradients_many(np.float32(value))[0]


def bit_gradients_many(values) -> np.ndarray:
    """Vectorized bit gradients: finite float32[n] -> float64[n, 32]."""
    v = np.ascontiguousarray(values, dtype=np.float32)
    if not np.isfinite(v).all():
        raise ValueError("bit_gradients requires finite values")
    u = v.view(np.uint32)
    sign = (u >> 31).astype(np.float64)
    sign_factor = 1.0 - 2.0 * sign
    exp = ((u >> 23) & 0xFF).astype(np.int64)
    vf = v.astype(np.float64)

    normal = exp > 0
    # Scale of one mantissa step: 2^(E-127) for normals, 2^-126 for subnormals.
    scale = np.where(normal, 2.0 ** (exp - 127.0), 2.0 ** -126)

    grads = np.empty((v.shape[0], 32), dtype=np.float64)
    grads[:, 0:23] = (sign_factor * scale)[:, None] * _MANT_POW[None, :]
    # Exponent bits only act through 2^(E-127), which the subnormal branch
    # does not contain.
    grads[:, 23:31] = np.where(normal, vf * LN2, 0.0)[:, None] * _EXP_POW[None, :]
    grads[:, 31] = -2.0 * np.abs(vf)
    return grads


def bit_weights(scheme: str, value=None) -> np.ndarray:
    """Positive per-bit sampling weights under one of the four schemes.

    gradient     |d(decode)/d(bit_i)| at ``value``, floored at WEIGHT_FLOOR
    exponential  2^i
    linear       i + 1
    uniform      1
    """
    if scheme == "gradient":
        if value is None:
            raise ValueError("gradient scheme needs the element value")
        return np.maximum(np.abs(bit_gradients(value)), WEIGHT_FLOOR)
    return _static_bit_weights(scheme)


def bit_weights_many(scheme: str, values) -> np.ndarray:
    """Per-bit weights for many values at once: float64[n, 32]."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    if scheme == "gradient":
        return np.maximum(np.abs(bit_gradients_many(values)), WEIGHT_FLOOR)
    return np.broadcast_to(_static_bit_weights(scheme), (len(values), 32)).copy()


def _static_bit_weights(scheme: str) -> np.ndarray:
    if scheme == "exponential":
        return 2.0 ** np.arange(32, dtype=np.float64)
    if scheme == "linear":
        return np.arange(32, dtype=np.float64) + 1.0
    if scheme == "uniform":
        return np.ones(32, dtype=np.float64)
    raise ValueError(f"unknown bit weight scheme {scheme!r}; expected one of {BIT_SCHEMES}")
