"""The gathered im2col against the strided-view construction it replaced.

The reference builds the patch matrix from an as_strided view and casts it
to float64 afterwards; the gather casts first.  Both must give the same
bits, including inf, NaN and -0 entries.
"""

import numpy as np
import pytest

from sdcprobe.nnet.autodiff import _im2col, _patch_index


def strided_im2col(x, kh, kw, stride):
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False)
    return view.reshape(n, c * kh * kw, oh * ow).astype(np.float64), oh, ow


def assert_same_bits(x, kh, kw, stride):
    got, oh, ow = _im2col(x, kh, kw, stride)
    want, want_oh, want_ow = strided_im2col(x, kh, kw, stride)
    assert (oh, ow) == (want_oh, want_ow)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kh,kw", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("shape", [(4, 2, 7, 8), (1, 3, 6, 6)])
def test_matches_strided_reference(shape, kh, kw, stride):
    x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    assert_same_bits(x, kh, kw, stride)


@pytest.mark.parametrize("stride", [1, 2])
def test_special_values_keep_their_bits(stride):
    x = np.random.default_rng(1).standard_normal((3, 2, 7, 7)).astype(np.float32)
    flat = x.reshape(-1)
    flat[::5] = np.inf
    flat[1::7] = -np.inf
    flat[2::11] = np.nan
    flat[3::13] = -0.0
    flat.view(np.uint32)[4::17] = 0x7FC00123  # NaN with a payload
    assert_same_bits(x, 3, 3, stride)


def test_read_only_non_contiguous_and_empty_inputs():
    x = np.random.default_rng(2).standard_normal((6, 2, 6, 6)).astype(np.float32)
    x.flags.writeable = False
    assert_same_bits(x, 3, 3, 1)
    assert_same_bits(x[::2, :, 1:, :5], 2, 2, 1)
    assert_same_bits(x[:0], 3, 3, 2)


def test_index_cached_per_shape_and_read_only():
    a = _patch_index(1, 6, 6, 3, 3, 1)
    b = _patch_index(1, 4, 4, 3, 3, 1)
    assert a is _patch_index(1, 6, 6, 3, 3, 1)
    assert a.shape == (9, 16) and b.shape == (9, 4)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1
    # both shapes served in one process, each by its own index
    assert_same_bits(np.ones((2, 1, 6, 6), dtype=np.float32), 3, 3, 1)
    assert_same_bits(np.arange(32, dtype=np.float32).reshape(2, 1, 4, 4), 3, 3, 1)
