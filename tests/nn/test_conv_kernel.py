"""Differential tests of the conv forward kernel.

``conv2d_forward`` gathers patches as (B, G, Cg*KH*KW, OH*OW) and runs
one GEMM per image and group straight into NCHW.  The kernel it
replaced lives on here, copied with its helpers, as the reference: a dense
im2col GEMM, a depthwise ``einsum`` and a grouped batched GEMM, each
followed by an output-transpose copy.

Depthwise runs the same ``einsum`` in both, so it must match bit for
bit.  Dense and grouped reorder the GEMM (BLAS may block the two shapes
differently), so they must match to a few ulp of each output's
magnitude sum ``|w| * |x|``.

``pad2d`` allocates zeros and copies its input into the interior once;
the ``np.pad`` call it replaced is the reference ``_pad2d`` below, and
the two must agree bit for bit.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.nn.functional import conv2d_forward, pad2d

from .._bits import assert_bits_equal


# -- the reference kernel ------------------------------------------------
def _pad2d(x, pad):
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _extract_patches(x_padded, kh, kw, stride):
    b, c, h, w = x_padded.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sb, sc, sh, sw = x_padded.strides
    return as_strided(
        x_padded,
        shape=(b, c, oh, ow, kh, kw),
        strides=(sb, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _im2col(xp, kh, kw, stride):
    patches = _extract_patches(xp, kh, kw, stride)
    b, c, oh, ow = patches.shape[:4]
    cols = np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(b * oh * ow, c * kh * kw), oh, ow


def reference_conv2d_forward(x, weight, bias, stride, pad, groups):
    o, cg, kh, kw = weight.shape
    b, c = x.shape[0], x.shape[1]
    xp = _pad2d(x, pad)
    if groups == 1:
        cols, oh, ow = _im2col(xp, kh, kw, stride)
        out = cols @ weight.reshape(o, -1).T  # (B*OH*OW, O)
        out = out.reshape(b, oh, ow, o).transpose(0, 3, 1, 2)
    elif cg == 1 and groups == c and o == c:
        patches = _extract_patches(xp, kh, kw, stride)
        out = np.einsum("bcijkl,ckl->bcij", patches, weight[:, 0], optimize=True)
        oh, ow = out.shape[2], out.shape[3]
    else:
        patches = _extract_patches(xp, kh, kw, stride)
        oh, ow = patches.shape[2], patches.shape[3]
        og = o // groups
        pg = patches.reshape(b, groups, cg, oh, ow, kh, kw)
        lhs = np.ascontiguousarray(pg.transpose(1, 0, 3, 4, 2, 5, 6))
        lhs = lhs.reshape(groups, b * oh * ow, cg * kh * kw)
        rhs = weight.reshape(groups, og, cg * kh * kw).transpose(0, 2, 1)
        out = np.matmul(lhs, rhs)  # (G, B*OH*OW, Og)
        out = out.reshape(groups, b, oh, ow, og).transpose(1, 0, 4, 2, 3)
        out = out.reshape(b, o, oh, ow)
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias[None, :, None, None]
    return out, xp


# -- cases ---------------------------------------------------------------
GROUPINGS = {
    # name: (C, O, groups)
    "dense": (6, 8, 1),
    "grouped": (6, 8, 2),
    "depthwise": (6, 6, 6),
}
DTYPES = [np.float32, np.float64]


def _case(grouping, dtype, batch, size, kernel, bias, seed=0):
    c, o, groups = GROUPINGS[grouping]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, c, size, size)).astype(dtype)
    w = rng.standard_normal((o, c // groups, kernel, kernel)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype) if bias else None
    return x, w, b, groups


def _check(x, w, b, stride, pad, groups, exact):
    got, xp = conv2d_forward(x, w, b, stride, pad, groups)
    want, want_xp = reference_conv2d_forward(x, w, b, stride, pad, groups)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(xp, want_xp)
    if exact:
        np.testing.assert_array_equal(got, want)
        return
    # few-ulp bound, scaled per output by the magnitude of its dot product
    scale, _ = reference_conv2d_forward(
        np.abs(x), np.abs(w), None if b is None else np.abs(b), stride, pad, groups
    )
    tol = 4 * np.finfo(x.dtype).eps * scale
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("grouping", list(GROUPINGS))
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
def test_matches_reference(dtype, grouping, stride, pad, bias):
    x, w, b, groups = _case(grouping, dtype, batch=3, size=9, kernel=3, bias=bias)
    _check(x, w, b, stride, pad, groups, exact=grouping == "depthwise")


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("grouping", list(GROUPINGS))
@pytest.mark.parametrize(
    "batch,size,kernel,stride,pad",
    [
        (1, 7, 3, 1, 1),  # batch 1, odd size
        (1, 11, 3, 2, 1),  # odd size, stride leaves a ragged edge
        (2, 13, 5, 2, 0),
        (2, 8, 4, 4, 0),  # non-overlapping patch embed
        (1, 5, 1, 1, 0),  # pointwise
        (2, 1, 1, 1, 0),  # 1x1 spatial
    ],
)
def test_shapes(dtype, grouping, batch, size, kernel, stride, pad):
    x, w, b, groups = _case(grouping, dtype, batch, size, kernel, bias=True, seed=size)
    _check(x, w, b, stride, pad, groups, exact=grouping == "depthwise")


def test_bench_shapes_float32():
    """The bench CNN's stage shapes and the ViT patch embed."""
    rng = np.random.default_rng(7)
    for xs, ws, stride, pad in [
        ((16, 3, 32, 32), (12, 3, 3, 3), 1, 1),
        ((16, 12, 32, 32), (12, 12, 3, 3), 1, 1),
        ((16, 12, 32, 32), (24, 12, 3, 3), 2, 1),
        ((16, 3, 32, 32), (32, 3, 4, 4), 4, 0),
    ]:
        x = rng.standard_normal(xs).astype(np.float32)
        w = rng.standard_normal(ws).astype(np.float32)
        _check(x, w, None, stride, pad, 1, exact=False)


def test_non_contiguous_input():
    """A strided input view gathers the same patches as its copy."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2, 12, 10, 10)).astype(np.float32)
    x = base[:, ::2]
    w = rng.standard_normal((4, 6, 3, 3)).astype(np.float32)
    got, _ = conv2d_forward(x, w, None, 1, 1, 1)
    want, _ = conv2d_forward(np.ascontiguousarray(x), w, None, 1, 1, 1)
    np.testing.assert_array_equal(got, want)



# -- pad2d against np.pad --------------------------------------------------
def _special(dtype):
    """An NCHW tensor holding ±0.0, ±inf and NaNs of both signs among
    normal values."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 5, 6)).astype(dtype)
    flat = x.reshape(-1)
    flat[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1, 2, 3])
def test_pad2d_matches_np_pad(dtype, pad):
    x = _special(dtype)
    got = pad2d(x, pad)
    assert_bits_equal(got, _pad2d(x, pad))
    assert got.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [1, 2, 3])
def test_pad2d_non_contiguous_inputs(dtype, pad):
    """Channel-strided, spatially strided and transposed views pad to
    the bits of ``np.pad`` on the same view."""
    base = np.concatenate([_special(dtype)] * 2, axis=1)
    for x in (base[:, ::2], base[:, :, ::2, 1::2],
              base.transpose(0, 1, 3, 2)):
        assert not x.flags.c_contiguous
        assert_bits_equal(pad2d(x, pad), _pad2d(x, pad))
