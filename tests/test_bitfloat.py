"""Bit-level codec tests.

The decode is validated against the platform's native IEEE-754 interpretation,
and every closed-form bit gradient is checked against a central finite
difference of the relaxed decode.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sdcprobe import bitfloat
from sdcprobe.bitfloat import (
    BitVector32,
    SPECIAL_SURROGATE,
    WEIGHT_FLOOR,
    bit_gradients,
    bit_gradients_many,
    bit_weights,
    bit_weights_many,
    decode,
    decode_many,
    decode_relaxed,
    decode_relaxed_many,
    encode,
    encode_many,
    flip_bit,
    float_to_pattern,
    pattern_to_float,
)

_MANT_POW = 2.0 ** (np.arange(23, dtype=np.float64) - 23.0)
_EXP_POW = 2.0 ** np.arange(8, dtype=np.float64)


# One-value reference forms of the codec, written out per element; the
# package's scalar functions wrap its vectorized ones and must agree.

def ref_flip_bit(value, bit_index):
    return pattern_to_float(float_to_pattern(value) ^ (1 << bit_index))


def ref_encode(value):
    u = float_to_pattern(value)
    return ((u >> np.arange(32, dtype=np.uint32)) & 1).astype(np.float64)


def ref_decode_relaxed(bits):
    bits = np.asarray(bits, dtype=np.float64)
    sign_factor = 1.0 - 2.0 * bits[31]
    mant_frac = float(bits[0:23] @ _MANT_POW)
    exp_relaxed = float(bits[23:31] @ _EXP_POW)
    exp_class = int(np.rint(bits[23:31]).astype(np.int64) @ (2 ** np.arange(8)))
    if exp_class == 255:
        return float(sign_factor * SPECIAL_SURROGATE)
    if exp_class == 0:
        return float(sign_factor * 2.0 ** -126 * mant_frac)
    return float(sign_factor * 2.0 ** (exp_relaxed - 127.0) * (1.0 + mant_frac))


def ref_decode(bits):
    """(value, flag_nan, flag_inf, sign) of 32 relaxed bits."""
    rounded = np.rint(np.asarray(bits, dtype=np.float64)).astype(np.int64)
    exp_class = int(rounded[23:31] @ (2 ** np.arange(8)))
    mant_nonzero = bool(rounded[0:23].any())
    with np.errstate(over="ignore"):
        value = np.float32(ref_decode_relaxed(bits))
    return (value, exp_class == 255 and mant_nonzero, exp_class == 255 and not mant_nonzero,
            -1 if rounded[31] else +1)

FINITE_EDGE_VALUES = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    2.0,
    np.float32(np.pi),
    -6.25e-3,
    65504.0,
    float(np.finfo(np.float32).max),
    float(np.finfo(np.float32).tiny),          # smallest normal
    float(np.finfo(np.float32).smallest_subnormal),
    -float(np.finfo(np.float32).smallest_subnormal),
    1e-40,                                      # subnormal
    -3.7e-41,
    float(np.float32(1.0) + np.finfo(np.float32).eps),
]


def native_pattern(value):
    """Reference bit pattern via struct, independent of numpy views."""
    return struct.unpack("<I", struct.pack("<f", np.float32(value)))[0]


class TestPatternHelpers:
    def test_pattern_round_trip_matches_struct(self):
        for v in FINITE_EDGE_VALUES:
            assert float_to_pattern(v) == native_pattern(v)
            assert float_to_pattern(pattern_to_float(float_to_pattern(v))) == native_pattern(v)

    def test_flip_bit_known_cases(self):
        assert flip_bit(1.0, 31) == np.float32(-1.0)
        assert flip_bit(1.0, 23) == np.float32(0.5)   # exponent LSB: 127 -> 126
        assert flip_bit(1.0, 0) == np.float32(1.0) + np.finfo(np.float32).eps
        assert np.isinf(flip_bit(1.0, 30))            # exponent MSB: 127 -> 255

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=31))
    def test_flip_bit_is_involutive(self, v, i):
        twice = flip_bit(flip_bit(v, i), i)
        assert float_to_pattern(twice) == float_to_pattern(v)

    def test_flip_bit_rejects_bad_index(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, 32)
        with pytest.raises(ValueError):
            flip_bit(1.0, -1)


class TestEncodeDecode:
    """encode/decode agree with the native float32 interpretation bit for bit."""

    def test_encode_bits_match_pattern(self):
        for v in FINITE_EDGE_VALUES:
            bits = encode(v).bits
            assert set(np.unique(bits)) <= {0.0, 1.0}
            rebuilt = int(bits.astype(np.uint64) @ (1 << np.arange(32, dtype=np.uint64)))
            assert rebuilt == native_pattern(v)

    def test_decode_inverts_encode_on_edges(self):
        for v in FINITE_EDGE_VALUES:
            out = decode(encode(v))
            assert float_to_pattern(out.value) == native_pattern(v)
            assert not out.flag_nan and not out.flag_inf

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_decode_inverts_encode(self, v):
        out = decode(encode(v))
        assert float_to_pattern(out.value) == native_pattern(v)
        assert not out.flag_nan and not out.flag_inf
        assert out.sign == (-1 if native_pattern(v) >> 31 else +1)

    def test_infinity_pattern_flagged_with_surrogate(self):
        out = decode(encode(np.inf))
        assert out.flag_inf and not out.flag_nan
        assert out.value == np.float32(SPECIAL_SURROGATE)
        out = decode(encode(-np.inf))
        assert out.flag_inf and out.sign == -1
        assert out.value == np.float32(-SPECIAL_SURROGATE)

    def test_nan_pattern_flagged_with_surrogate(self):
        out = decode(encode(np.nan))
        assert out.flag_nan and not out.flag_inf
        assert abs(out.value) == np.float32(SPECIAL_SURROGATE)
        # A negative NaN pattern keeps its sign bit in the surrogate.
        neg_nan = pattern_to_float(0xFFC00000)
        out = decode(encode(neg_nan))
        assert out.flag_nan and out.sign == -1
        assert out.value == np.float32(-SPECIAL_SURROGATE)

    def test_surrogate_magnitude(self):
        assert np.float32(SPECIAL_SURROGATE) == np.float32(np.finfo(np.float32).max / 33.0)
        assert np.isfinite(SPECIAL_SURROGATE)

    def test_decode_many_matches_scalar_decode(self):
        patterns = [0x00000000, 0x80000000, 0x3F800000, 0x7F800000, 0xFF800000,
                    0x7FC00000, 0x00000001, 0x7F7FFFFF, 0x40490FDB, 0x80000001]
        values = np.array([pattern_to_float(p) for p in patterns], dtype=np.float32)
        bits = encode_many(values)
        vals, nan_flags, inf_flags = decode_many(bits)
        for i, row in enumerate(bits):
            value, flag_nan, flag_inf, _ = ref_decode(row)
            assert float_to_pattern(vals[i]) == float_to_pattern(value)
            assert nan_flags[i] == flag_nan
            assert inf_flags[i] == flag_inf

    def test_relaxed_many_matches_scalar_on_relaxed_bits(self):
        """Vectorized relaxed decode agrees with the scalar form, including
        at non-binary bit values where the smooth interpolation matters.
        Matrix and vector dot products may round differently, so the match
        is to 1e-12 relative rather than bit-exact."""
        rng = np.random.default_rng(9)
        rows = rng.uniform(0.0, 1.0, size=(64, 32))
        rows[16:32] = np.rint(rows[16:32])  # concrete patterns too
        got = decode_relaxed_many(rows)
        for row, value in zip(rows, got):
            np.testing.assert_allclose(value, ref_decode_relaxed(row), rtol=1e-12)

    def test_bitvector_shape_checked(self):
        with pytest.raises(ValueError):
            BitVector32(np.zeros(31))


class TestWrappersMatchReferences:
    """The scalar functions wrap the vectorized ones: same bits and flags as
    the per-element references on every pattern, NaN and inf included."""

    # any pattern, or one with the special exponent and a one-bit, random or
    # empty mantissa, which random patterns reach too rarely
    PATTERNS = st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.builds(lambda sign, mant: sign << 31 | 0xFF << 23 | mant,
                  st.integers(min_value=0, max_value=1),
                  st.one_of(st.just(0),
                            st.integers(min_value=0, max_value=22).map(lambda k: 1 << k),
                            st.integers(min_value=0, max_value=2**23 - 1))))

    @given(PATTERNS, st.integers(min_value=0, max_value=31))
    def test_concrete_patterns_bit_for_bit(self, pattern, i):
        v = pattern_to_float(pattern)
        assert float_to_pattern(flip_bit(v, i)) == float_to_pattern(ref_flip_bit(v, i))
        bits = encode(v).bits
        np.testing.assert_array_equal(bits, ref_encode(v))
        assert decode_relaxed(bits) == ref_decode_relaxed(bits)
        out = decode(bits)
        value, flag_nan, flag_inf, sign = ref_decode(bits)
        assert float_to_pattern(out.value) == float_to_pattern(value)
        assert (out.flag_nan, out.flag_inf, out.sign) == (flag_nan, flag_inf, sign)

    @settings(deadline=None)
    @given(arrays(np.float64, (8, 32), elements=st.floats(min_value=0.0, max_value=1.0)))
    def test_relaxed_rows_within_1e_12(self, rows):
        """A matrix dot and a vector dot may round differently, so relaxed
        rows agree to 1e-12 relative; the flags and sign agree exactly."""
        for row, value in zip(rows, decode_relaxed_many(rows)):
            np.testing.assert_allclose(value, ref_decode_relaxed(row), rtol=1e-12)
            np.testing.assert_allclose(decode_relaxed(row), value, rtol=1e-12)
            with np.errstate(over="ignore"):
                out = decode(row)
            ref_value, flag_nan, flag_inf, sign = ref_decode(row)
            assert (out.flag_nan, out.flag_inf, out.sign) == (flag_nan, flag_inf, sign)
            np.testing.assert_allclose(out.value, ref_value, rtol=2.0 ** -23)


class TestBitGradients:
    """Closed forms vs central finite differences of the relaxed decode."""

    FD_VALUES = [1.0, -1.0, 0.5, 3.14159, -2.71828e-3, 65536.0, 1e-40,
                 -3.7e-41, float(np.finfo(np.float32).tiny), 0.0,
                 float(np.finfo(np.float32).max / 4)]

    @staticmethod
    def fd_gradient(value, eps=1e-4):
        base = encode(value).bits
        grad = np.empty(32)
        for i in range(32):
            hi = base.copy()
            lo = base.copy()
            hi[i] += eps
            lo[i] -= eps
            grad[i] = (decode_relaxed(hi) - decode_relaxed(lo)) / (2 * eps)
        return grad

    @pytest.mark.parametrize("value", FD_VALUES)
    def test_closed_form_matches_finite_difference(self, value):
        np.testing.assert_allclose(bit_gradients(value), self.fd_gradient(value),
                                   rtol=1e-3, atol=1e-200)

    def test_subnormal_exponent_gradients_are_zero(self):
        g = bit_gradients(1e-40)
        assert np.all(g[23:31] == 0.0)
        g = bit_gradients(0.0)
        assert np.all(g[23:31] == 0.0) and g[31] == 0.0

    def test_normal_closed_forms(self):
        # value = 1.0: E = 127, mantissa 0, sign 0.
        g = bit_gradients(1.0)
        np.testing.assert_allclose(g[0:23], 2.0 ** (np.arange(23) - 23.0), rtol=0)
        np.testing.assert_allclose(g[23:31], np.log(2.0) * 2.0 ** np.arange(8), rtol=1e-12)
        assert g[31] == -2.0

    def test_sign_gradient_is_minus_twice_magnitude(self):
        for v in [3.0, -3.0, 1e-40, -1e-40]:
            assert bit_gradients(v)[31] == -2.0 * abs(np.float64(np.float32(v)))

    def test_many_matches_scalar(self):
        vals = np.array(self.FD_VALUES, dtype=np.float32)
        many = bit_gradients_many(vals)
        for i, v in enumerate(vals):
            np.testing.assert_array_equal(many[i], bit_gradients(v))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bit_gradients(np.inf)
        with pytest.raises(ValueError):
            bit_gradients_many(np.array([1.0, np.nan], dtype=np.float32))


class TestBitWeights:
    def test_static_schemes(self):
        np.testing.assert_array_equal(bit_weights("exponential"), 2.0 ** np.arange(32))
        np.testing.assert_array_equal(bit_weights("linear"), np.arange(1.0, 33.0))
        np.testing.assert_array_equal(bit_weights("uniform"), np.ones(32))

    def test_gradient_scheme_doubles_per_mantissa_bit(self):
        w = bit_weights("gradient", value=1.0)
        ratios = w[1:23] / w[0:22]
        np.testing.assert_array_equal(ratios, np.full(22, 2.0))
        assert np.all(w >= WEIGHT_FLOOR)

    def test_gradient_scheme_floors_at_zero_value(self):
        w = bit_weights("gradient", value=0.0)
        # At zero every mantissa gradient is below the floor and the
        # exponent/sign gradients vanish outright.
        assert np.all(w == WEIGHT_FLOOR)

    def test_gradient_scheme_requires_value(self):
        with pytest.raises(ValueError):
            bit_weights("gradient")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            bit_weights("geometric")

    def test_many_matches_scalar(self):
        vals = np.array([1.0, -0.5, 3e-39, 0.0], dtype=np.float32)
        for scheme in ("gradient", "exponential", "linear", "uniform"):
            many = bit_weights_many(scheme, vals)
            for i, v in enumerate(vals):
                expected = bit_weights(scheme, value=v) if scheme == "gradient" \
                    else bit_weights(scheme)
                np.testing.assert_array_equal(many[i], expected)
