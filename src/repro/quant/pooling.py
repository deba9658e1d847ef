"""Kurtosis-3 row pooling of intermediate representations (Section 4.1).

Comparing full IR tensors is impractical, so LPQ pools each layer's output
row-wise.  The paper uses **Kurtosis-3** (excess kurtosis, DeCarlo 1997)
instead of mean pooling because it "better characterizes distribution
tailedness of DNN parameters" — two tensors can share a mean yet differ
wildly in their tails, which is exactly what aggressive quantization
destroys first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kurtosis3", "pool_representation", "mean_pool_representation"]


def kurtosis3(x: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Excess kurtosis along ``axis``: E[(x-μ)^4]/σ^4 − 3.

    Constant rows (σ ≈ 0) pool to 0 rather than blowing up.
    """
    x = np.array(x, dtype=np.float64)  # a private copy, centred and squared in place
    x -= x.mean(axis=axis, keepdims=True)
    x *= x
    var = x.mean(axis=axis)
    # the fourth moment squares the squares: elementwise pow(x, 4) goes
    # through libm and is ~8x slower than two multiplies
    x *= x
    fourth = x.mean(axis=axis)
    out = np.zeros_like(var)
    ok = var > eps
    out[ok] = fourth[ok] / (var[ok] ** 2) - 3.0
    return out


def _rows(h: np.ndarray, batch: int | None = None) -> np.ndarray:
    """Collapse a layer output to (batch, features) rows.

    Layers inside windowed attention fold extra tiling factors into the
    leading axis (e.g. Swin's B·num_windows); passing the true image
    ``batch`` regroups those rows per image.
    """
    if h.ndim == 1:
        return h[None, :]
    if batch is not None and h.shape[0] != batch and h.shape[0] % batch == 0:
        return h.reshape(batch, -1)
    return h.reshape(h.shape[0], -1)


def pool_representation(h: np.ndarray, batch: int | None = None) -> np.ndarray:
    """Kurtosis-3 fingerprint of one layer output: (batch,) vector."""
    return kurtosis3(_rows(h, batch), axis=1)


def mean_pool_representation(h: np.ndarray, batch: int | None = None) -> np.ndarray:
    """Mean-pooling baseline (what the paper argues against)."""
    return _rows(h, batch).mean(axis=1)
