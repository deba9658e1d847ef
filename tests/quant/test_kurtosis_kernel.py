"""Bitwise tests of ``kurtosis3``, which centres and squares a private
float64 copy of its input in place.

The version it replaced, which built a fresh array for each step, lives
on here verbatim as the reference.
"""

import numpy as np
import pytest

from repro.quant import kurtosis3, pool_representation

from .._bits import assert_bits_equal


def reference_kurtosis3(x, axis=-1, eps=1e-12):
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=axis, keepdims=True)
    centered = x - mean
    sq = centered * centered
    var = sq.mean(axis=axis)
    fourth = (sq * sq).mean(axis=axis)
    out = np.zeros_like(var)
    ok = var > eps
    out[ok] = fourth[ok] / (var[ok] ** 2) - 3.0
    return out


def _inputs(dtype):
    rng = np.random.default_rng(4)
    gauss = rng.standard_normal((16, 4096)) * 3 + 1
    heavy = rng.standard_t(3, (5, 1000))
    const = np.vstack([np.full(300, 2.5), rng.standard_normal(300), np.zeros(300)])
    tiny_var = 1.0 + rng.standard_normal((3, 64)) * 1e-7  # var near eps
    relu = np.maximum(rng.standard_normal((8, 16, 6, 6)), 0)
    return [a.astype(dtype) for a in (gauss, heavy, const, tiny_var, relu)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_kurtosis3_matches_reference(dtype):
    for x in _inputs(dtype):
        for axis in range(-1, -x.ndim - 1, -1):
            assert_bits_equal(kurtosis3(x, axis=axis),
                               reference_kurtosis3(x, axis=axis))
        # a transposed (non-contiguous) caller array
        assert_bits_equal(kurtosis3(x.T, axis=0),
                           reference_kurtosis3(x.T, axis=0))


def test_kurtosis3_constant_rows_are_zero():
    for dtype in (np.float32, np.float64):
        x = np.array([[3.0] * 10, [0.0] * 10, [-1e6] * 10], dtype=dtype)
        assert_bits_equal(kurtosis3(x, axis=1), np.zeros(3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_kurtosis3_leaves_caller_array_alone(dtype):
    """The in-place steps work on a copy even when the input already is
    float64, where ``np.asarray`` would have returned the caller's array."""
    for x in _inputs(dtype):
        before = x.copy()
        kurtosis3(x, axis=-1)
        pool_representation(x)
        assert_bits_equal(x, before)


def test_pool_representation_matches_reference():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((4, 8, 5, 5)).astype(np.float32)
    assert_bits_equal(pool_representation(h),
                       reference_kurtosis3(h.reshape(4, -1), axis=1))
    windows = rng.standard_normal((8, 49, 32))  # 2 images x 4 windows
    assert_bits_equal(pool_representation(windows, batch=2),
                       reference_kurtosis3(windows.reshape(2, -1), axis=1))
