"""Bitwise tests of the non-GEMM layer kernels: MaxPool2d, ReLU,
BatchNorm2d and LayerNorm.

``MaxPool2d.forward`` takes k² strided maxima and caches ``(x, out)``;
``backward`` rebuilds the first-max mask from them.  ``ReLU.forward`` is
an ``fmax`` that caches its output.  ``BatchNorm2d.forward`` and
``LayerNorm.forward`` compute ``x - mean`` once, derive the variance
from it and normalise it in place.  Each must give exactly the bits of
the version it replaced, which lives on here, copied verbatim, as the
reference: the pool reduced with a multi-axis ``max`` and built its
tie-broken mask in forward, the ReLU called ``np.where``, the norms
called ``x.mean``/``x.var`` and built fresh temporaries.  The one
freedom is the pool's: a max may return either sign of a NaN, and
either zero of a window whose maximum is a ±0 tie, and numpy's own
loops differ there between ISAs, so those outputs are compared by value.
"""

import copy

import numpy as np
import pytest

from repro import nn

from .._bits import assert_bits_equal

DTYPES = [np.float32, np.float64]


# -- the reference kernels (verbatim) -----------------------------------
def reference_maxpool(x, k):
    b, c, h, w = x.shape
    oh, ow = h // k, w // k
    xr = x.reshape(b, c, oh, k, ow, k)
    out = xr.max(axis=(3, 5))
    mask = xr == out[:, :, :, None, :, None]  # (b, c, oh, k, ow, k)
    # break ties: keep only the first max per window
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, k * k)
    flat = flat & (np.cumsum(flat, axis=-1) == 1)
    mask = flat.reshape(b, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
    return out, mask


def reference_maxpool_backward(grad, mask):
    b, c, oh, k, ow, _ = mask.shape
    g = grad[:, :, :, None, :, None] * mask
    return g.reshape(b, c, oh * k, ow * k)


def reference_batchnorm_eval(bn, x):
    mean, var = bn.running_mean, bn.running_var
    d = x - mean[None, :, None, None]
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = d * inv_std[None, :, None, None]
    bn._cache = (xhat, inv_std)
    return bn.gamma.data[None, :, None, None] * xhat + bn.beta.data[
        None, :, None, None
    ]


def reference_layernorm(ln, x):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + ln.eps)
    xhat = (x - mean) * inv_std
    ln._cache = (xhat, inv_std)
    return ln.gamma.data * xhat + ln.beta.data


def reference_relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def reference_batchnorm_train(bn, x):
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    bn._cache = (xhat, inv_std)
    return bn.gamma.data[None, :, None, None] * xhat + bn.beta.data[
        None, :, None, None
    ]


# -- MaxPool2d -----------------------------------------------------------
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0]


def assert_pool_equal(out, want, x, k):
    """Equal values, NaNs in the same places, and equal bits everywhere
    but the two outputs a max leaves open: a NaN, and the zero of a
    window holding both +0.0 and -0.0 as its maximum."""
    np.testing.assert_array_equal(out, want)
    b, c, oh, ow = want.shape
    xr = x.reshape(b, c, oh, k, ow, k)
    neg = np.signbit(xr)
    zero = xr == 0
    tie = (
        (want == 0)
        & (zero & neg).any(axis=(3, 5))
        & (zero & ~neg).any(axis=(3, 5))
    )
    fixed = ~(np.isnan(want) | tie)
    assert_bits_equal(out[fixed], want[fixed])


def _pool_inputs(dtype):
    rng = np.random.default_rng(0)
    relu = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0)  # all-zero windows
    coarse = rng.integers(-2, 3, (3, 2, 6, 6)).astype(float)  # many ties
    dup = np.zeros((1, 1, 4, 4))
    dup[0, 0, :2, :2] = 5.0  # a window whose four entries all tie
    dup[0, 0, 2, 3] = dup[0, 0, 3, 2] = 1.0  # two maxima, second row first
    smooth = rng.standard_normal((1, 4, 6, 6))
    # windows of signed zeros, NaNs and infinities, in every arrangement
    # a random draw gives; the second set ties only ±0 against each other
    special = rng.choice(SPECIAL, (2, 5, 12, 12))
    zeros = rng.choice([0.0, -0.0], (3, 4, 6, 12))
    return [
        a.astype(dtype) for a in (relu, coarse, dup, smooth, special, zeros)
    ]


def _check_pool(x, k, rng):
    pool = nn.MaxPool2d(k)
    out = pool(x)
    want_out, mask = reference_maxpool(x, k)
    assert_pool_equal(out, want_out, x, k)
    grad = rng.standard_normal(out.shape).astype(x.dtype)
    assert_bits_equal(pool.backward(grad), reference_maxpool_backward(grad, mask))


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_matches_reference(dtype, k):
    rng = np.random.default_rng(k)
    for x in _pool_inputs(dtype):
        if x.shape[2] % k == 0:
            _check_pool(x, k, rng)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("k,ow", [(3, 1), (5, 1), (8, 2), (16, 2)])
def test_maxpool_wide_windows_match_reference(dtype, k, ow):
    """Windows spanning a whole row, and window rows long enough for
    numpy to vectorize its reduction over them."""
    rng = np.random.default_rng(k * 10 + ow)
    _check_pool(rng.choice(SPECIAL, (2, 3, 2 * k, ow * k)).astype(dtype), k, rng)
    _check_pool(rng.choice([0.0, -0.0], (2, 3, 2 * k, ow * k)).astype(dtype), k, rng)


def test_maxpool_ties_route_to_first_max():
    x = np.zeros((1, 1, 2, 2))
    pool = nn.MaxPool2d(2)
    pool(x)
    dx = pool.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])


# -- ReLU ----------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_relu_matches_reference(dtype):
    """Every length up to a few SIMD vectors (so every tail), contiguous
    and strided, on signed zeros, NaNs, infinities and subnormals."""
    rng = np.random.default_rng(3)
    tiny = np.finfo(dtype).smallest_subnormal
    values = np.array(SPECIAL + [tiny, -tiny], dtype=dtype)
    for n in list(range(1, 70)) + [1000]:
        base = rng.choice(values, (3, n))
        for x in (base[0], base[:, ::2], base.T, base[:, ::-1]):
            grad = rng.standard_normal(x.shape).astype(dtype)
            relu = nn.ReLU()
            want_out, mask = reference_relu(x)
            assert_bits_equal(relu(x), want_out)
            assert_bits_equal(relu.backward(grad), grad * mask)


# -- BatchNorm2d ---------------------------------------------------------
BN_SHAPES = [(3, 6, 9, 9), (1, 6, 7, 7), (2, 8, 11, 11), (16, 12, 32, 32), (2, 5, 1, 1)]


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", BN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_batchnorm_train_matches_reference(dtype, shape):
    nn.set_default_dtype(dtype)
    rng = np.random.default_rng(sum(shape))
    bn = nn.BatchNorm2d(shape[1])
    bn.gamma.data[:] = rng.uniform(0.5, 2.0, shape[1])
    bn.beta.data[:] = rng.standard_normal(shape[1])
    bn.train()
    ref = copy.deepcopy(bn)
    for _ in range(3):  # running stats compound over steps
        loc = rng.uniform(-3, 3, (1, shape[1], 1, 1))
        x = (rng.standard_normal(shape) * rng.uniform(0.1, 10) + loc).astype(dtype)
        out = bn(x)
        want = reference_batchnorm_train(ref, x)
        assert_bits_equal(out, want)
        assert_bits_equal(bn.running_mean, ref.running_mean)
        assert_bits_equal(bn.running_var, ref.running_var)
        for got, want in zip(bn._cache, ref._cache):
            assert_bits_equal(got, want)
        grad = rng.standard_normal(shape).astype(dtype)
        assert_bits_equal(bn.backward(grad), ref.backward(grad))
    bn.eval()
    ref.eval()
    x = (rng.standard_normal(shape) * 3).astype(dtype)
    assert_bits_equal(bn(x), reference_batchnorm_eval(ref, x))
    for got, want in zip(bn._cache, ref._cache):
        assert_bits_equal(got, want)
    grad = rng.standard_normal(shape).astype(dtype)
    assert_bits_equal(bn.backward(grad), ref.backward(grad))


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_batchnorm_variance_is_ndarray_var(dtype):
    """The derived variance is ``x.var`` bit for bit on the installed numpy."""
    nn.set_default_dtype(dtype)
    rng = np.random.default_rng(60)
    for _ in range(60):
        shape = tuple(int(v) for v in rng.integers(1, 13, 4))
        x = (rng.standard_normal(shape) * rng.uniform(1e-3, 1e3)).astype(dtype)
        x += rng.uniform(-50, 50)
        bn = nn.BatchNorm2d(shape[1], momentum=1.0)
        bn.train()
        bn(x)
        np.testing.assert_array_equal(bn.running_var, x.var(axis=(0, 2, 3)))


# -- LayerNorm -----------------------------------------------------------
LN_SHAPES = [(4, 17), (2, 65, 32), (3, 5, 7, 64), (1, 1), (16, 65, 256)]


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("shape", LN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_layernorm_matches_reference(dtype, shape):
    nn.set_default_dtype(dtype)
    rng = np.random.default_rng(sum(shape))
    ln = nn.LayerNorm(shape[-1])
    ln.gamma.data[:] = rng.uniform(0.5, 2.0, shape[-1])
    ln.beta.data[:] = rng.standard_normal(shape[-1])
    ref = copy.deepcopy(ln)
    x = (rng.standard_normal(shape) * rng.uniform(0.1, 10)).astype(dtype)
    x += rng.uniform(-50, 50)
    for xs in (x, x[::-1, ..., ::-1]):  # contiguous and strided
        assert_bits_equal(ln(xs), reference_layernorm(ref, xs))
        for got, want in zip(ln._cache, ref._cache):
            assert_bits_equal(got, want)
        grad = rng.standard_normal(shape).astype(dtype)
        assert_bits_equal(ln.backward(grad), ref.backward(grad))
