"""Low-level numpy kernels: patch extraction, conv/pool helpers, activations.

The conv forward has two paths: depthwise (broadcast multiply-reduce)
and GEMM.  The GEMM path copies its patches once as (B, G, Cg·KH·KW,
OH·OW), spatial dims innermost so the copy moves whole rows, and one
GEMM per image and group writes NCHW directly.  Backward keeps the
(B·OH·OW, C·KH·KW) im2col GEMM, so its summation order is unchanged.
The backward scatter (``col2im``) loops only over the K×K kernel
offsets so every add is a big vectorized slice.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "pad2d",
    "extract_patches",
    "scatter_patches",
    "conv2d_forward",
    "conv2d_backward",
    "gelu",
    "gelu_grad",
    "softmax",
    "log_softmax",
]


def pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor by ``pad``: the
    bits of ``np.pad`` with one allocation and one interior copy."""
    if pad == 0:
        return x
    b, c, h, w = x.shape
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad:-pad, pad:-pad] = x
    return out


def extract_patches(x_padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided view (B, C, OH, OW, KH, KW) over a padded NCHW tensor."""
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


def scatter_patches(
    patch_grads: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`extract_patches`.

    ``patch_grads`` has shape (B, C, OH, OW, KH, KW); returns the gradient
    w.r.t. the *unpadded* input of shape ``x_shape``.
    """
    b, c, h, w = x_shape
    _, _, oh, ow, kh, kw = patch_grads.shape
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=patch_grads.dtype)
    for i in range(kh):
        hi = i + stride * oh
        for j in range(kw):
            wj = j + stride * ow
            out[:, :, i:hi:stride, j:wj:stride] += patch_grads[:, :, :, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """im2col matrix (B*OH*OW, C*KH*KW) plus output spatial dims."""
    patches = extract_patches(xp, kh, kw, stride)
    b, c, oh, ow = patches.shape[:4]
    cols = np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(b * oh * ow, c * kh * kw), oh, ow


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    groups: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped 2-D convolution.

    Returns (output, padded input) — the padded input is what backward
    needs to rebuild the im2col matrix without holding a second copy.
    ``weight`` has shape (O, C/G, KH, KW); activations are NCHW.
    """
    o, cg, kh, kw = weight.shape
    xp = pad2d(x, pad)
    patches = extract_patches(xp, kh, kw, stride)
    b, c, oh, ow = patches.shape[:4]
    if cg == 1 and groups == c and o == c:
        # depthwise: broadcast multiply + reduce over the kernel window
        out = np.einsum("bcijkl,ckl->bcij", patches, weight[:, 0], optimize=True)
        out = np.ascontiguousarray(out)
    else:
        # (G, Og, Cg*KH*KW) @ (B, G, Cg*KH*KW, OH*OW) lands in NCHW
        pg = patches.reshape(b, groups, cg, oh, ow, kh, kw)
        cols = np.ascontiguousarray(pg.transpose(0, 1, 2, 5, 6, 3, 4))
        cols = cols.reshape(b, groups, cg * kh * kw, oh * ow)
        out = np.matmul(weight.reshape(groups, o // groups, cg * kh * kw), cols)
        out = out.reshape(b, o, oh, ow)
    if bias is not None:
        out += bias[None, :, None, None]
    return out, xp


def conv2d_backward(
    grad: np.ndarray,
    xp: np.ndarray,
    weight: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int,
    pad: int,
    groups: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dweight, dbias) of a grouped conv.

    ``xp`` is the padded input returned by :func:`conv2d_forward`.
    """
    o, cg, kh, kw = weight.shape
    b, c = x_shape[0], x_shape[1]
    oh, ow = grad.shape[2], grad.shape[3]
    dbias = grad.sum(axis=(0, 2, 3))
    if groups == 1:
        cols, _, _ = _im2col(xp, kh, kw, stride)
        gm = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(-1, o)
        dweight = (gm.T @ cols).reshape(o, cg, kh, kw)
        gcols = gm @ weight.reshape(o, -1)  # (B*OH*OW, C*KH*KW)
        # scatter straight from the (B, OH, OW, C, KH, KW) layout — no
        # materialized transpose of the full 6-D gradient tensor
        g6 = gcols.reshape(b, oh, ow, c, kh, kw)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            hi = i + stride * oh
            for j in range(kw):
                wj = j + stride * ow
                dxp[:, :, i:hi:stride, j:wj:stride] += g6[:, :, :, :, i, j].transpose(
                    0, 3, 1, 2
                )
        dx = dxp[:, :, pad:-pad, pad:-pad] if pad else dxp
        return dx, dweight, dbias
    if cg == 1 and groups == c and o == c:
        patches = extract_patches(xp, kh, kw, stride)
        dweight = np.einsum("bcijkl,bcij->ckl", patches, grad, optimize=True)
        dweight = dweight.reshape(o, 1, kh, kw)
        patch_grads = grad[:, :, :, :, None, None] * weight[:, 0][None, :, None, None]
    else:
        patches = extract_patches(xp, kh, kw, stride)
        og = o // groups
        pg = patches.reshape(b, groups, cg, oh, ow, kh, kw)
        lhs = np.ascontiguousarray(pg.transpose(1, 0, 3, 4, 2, 5, 6))
        lhs = lhs.reshape(groups, b * oh * ow, cg * kh * kw)
        gg = grad.reshape(b, groups, og, oh, ow)
        gmat = np.ascontiguousarray(gg.transpose(1, 0, 3, 4, 2))
        gmat = gmat.reshape(groups, b * oh * ow, og)
        dweight = np.matmul(gmat.transpose(0, 2, 1), lhs)  # (G, Og, CgKK)
        dweight = dweight.reshape(o, cg, kh, kw)
        wmat = weight.reshape(groups, og, cg * kh * kw)
        gcols = np.matmul(gmat, wmat)  # (G, B*OH*OW, CgKK)
        gcols = gcols.reshape(groups, b, oh, ow, cg, kh, kw)
        patch_grads = gcols.transpose(1, 0, 4, 2, 3, 5, 6).reshape(
            b, c, oh, ow, kh, kw
        )
    dx = scatter_patches(patch_grads, x_shape, stride, pad)
    return dx, dweight, dbias


_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def _cube(x: np.ndarray) -> np.ndarray:
    """``x**3`` as a float64 product, cast back to ``x.dtype``.

    For float32 ``x``, ``x * x`` is exact in float64, so the result
    depends only on IEEE multiply and convert — not on which ``pow``
    kernel numpy dispatches to — and it is the correctly rounded cube
    on all 2^32 inputs (``scripts/count_gelu_cube.py`` checks them).
    """
    x64 = x.astype(np.float64)
    return (x64 * x64 * x64).astype(x.dtype)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the tanh approximation (as used by ViT/DeiT/Swin)."""
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * _cube(x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * _cube(x))
    t = np.tanh(inner)
    dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))
