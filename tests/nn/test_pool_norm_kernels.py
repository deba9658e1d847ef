"""Bitwise tests of the MaxPool2d and BatchNorm2d forwards.

``MaxPool2d.forward`` computes only the window max; ``backward``
rebuilds the first-max mask from the cached input and output.
``BatchNorm2d.forward`` in training mode computes ``x - mean`` once and
derives the batch variance from it.  Both must give exactly the bits of
the versions they replaced, which live on here, copied verbatim, as the
reference: the pool built its tie-broken mask in forward, and the norm
called ``x.mean``/``x.var``.
"""

import copy

import numpy as np
import pytest

from repro import nn

DTYPES = [np.float32, np.float64]


# -- the reference kernels (verbatim) -----------------------------------
def reference_maxpool(x, k, grad):
    b, c, h, w = x.shape
    oh, ow = h // k, w // k
    xr = x.reshape(b, c, oh, k, ow, k)
    out = xr.max(axis=(3, 5))
    mask = xr == out[:, :, :, None, :, None]  # (b, c, oh, k, ow, k)
    # break ties: keep only the first max per window
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, k * k)
    flat = flat & (np.cumsum(flat, axis=-1) == 1)
    mask = flat.reshape(b, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
    g = grad[:, :, :, None, :, None] * mask
    return out, g.reshape(b, c, h, w)


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
def _pool_inputs(dtype):
    rng = np.random.default_rng(0)
    relu = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0)  # all-zero windows
    coarse = rng.integers(-2, 3, (3, 2, 6, 6)).astype(float)  # many ties
    dup = np.zeros((1, 1, 4, 4))
    dup[0, 0, :2, :2] = 5.0  # a window whose four entries all tie
    dup[0, 0, 2, 3] = dup[0, 0, 3, 2] = 1.0  # two maxima, second row first
    smooth = rng.standard_normal((1, 4, 6, 6))
    return [a.astype(dtype) for a in (relu, coarse, dup, smooth)]


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_matches_reference(dtype, k):
    rng = np.random.default_rng(k)
    for x in _pool_inputs(dtype):
        if x.shape[2] % k:
            continue
        pool = nn.MaxPool2d(k)
        out = pool(x)
        grad = rng.standard_normal(out.shape).astype(dtype)
        want_out, want_dx = reference_maxpool(x, k, grad)
        np.testing.assert_array_equal(out, want_out)
        dx = pool.backward(grad)
        assert dx.dtype == want_dx.dtype
        np.testing.assert_array_equal(dx, want_dx)


def test_maxpool_ties_route_to_first_max():
    x = np.zeros((1, 1, 2, 2))
    pool = nn.MaxPool2d(2)
    pool(x)
    dx = pool.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])


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
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(bn.running_mean, ref.running_mean)
        np.testing.assert_array_equal(bn.running_var, ref.running_var)
        grad = rng.standard_normal(shape).astype(dtype)
        np.testing.assert_array_equal(bn.backward(grad), ref.backward(grad))


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
