"""A digest of the floating-point behaviour of this process's kernels.

A :class:`~repro.spec.SearchSpec` digest names a search, not the bits
it finds: float32 ``tanh``/``exp``, float64 ``log2`` (inside the LP
quantize kernel) and OpenBLAS sgemm round differently across numpy
SIMD levels and OpenBLAS core types, so one spec can find two searches
on two hosts.  :func:`numerics_fingerprint` names the bits instead.  It
hashes a fixed canary — sgemm at a conv-like and a linear shape, GELU,
softmax, LayerNorm, and one LP quantize pass over values next to the
table's rounding midpoints — together with the numpy version, numpy's
detected SIMD extensions and the OpenBLAS core name.

Stored results carry it and replay only where it matches
(:class:`~repro.serve.store.ResultStore`), and a remote worker whose
fingerprint differs from its client's is refused at the handshake
(:mod:`repro.serve.remote`).  A change to any kernel the canary runs
flips it, so a deliberate bit change retires every stored result.

It is computed once per process, in about 5 ms, by whichever of those
consumers asks first; a search itself never computes it.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from ._blas import blas_corename

#: hex characters kept from the SHA-256 (64 bits)
_LENGTH = 16


def _simd_found() -> list[str]:
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (KeyError, TypeError, ValueError):
        return []


def _canary() -> list[np.ndarray]:
    """The kernel outputs the fingerprint hashes (fixed inputs)."""
    from .. import nn
    from ..nn import functional as F
    from ..numerics.logposit import LPParams, lp_decode
    from ..numerics.posit import PositTable

    rng = np.random.default_rng(20240623)

    def normal(*shape, scale=1.0):
        return (scale * rng.standard_normal(shape)).astype(np.float32)

    # conv GEMM: (O, C·K·K) @ (C·K·K, OH·OW); linear: tokens @ W.T
    conv = normal(16, 144) @ normal(144, 100)
    linear = normal(65, 64) @ normal(48, 64).T
    gelu = F.gelu(normal(4096, scale=3.0))
    softmax = F.softmax(normal(8, 65, scale=4.0))
    layernorm = nn.LayerNorm(64).forward(normal(65, 64, scale=2.0))
    # an LP table built outside the process-wide LUT registry, so the
    # fingerprint leaves the numerics.lut_cache counters alone
    params = LPParams(n=8, es=1, rs=4, sf=0.0)
    patterns = np.arange(1, 1 << 7, dtype=np.int64)
    table = PositTable.build(lp_decode(patterns, params), patterns, 8)
    near = np.exp2(table.midpoints)
    near = np.concatenate([
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        -near,
    ])
    lp = table.quantize(near, sf=0.75, dtype=np.float32)
    return [conv, linear, gelu, softmax, layernorm, lp]


@functools.cache
def numerics_fingerprint() -> str:
    """Hex digest naming the bits this process's numeric kernels
    produce (see the module docstring); cached for the process."""
    digest = hashlib.sha256(json.dumps({
        "numpy": np.__version__,
        "simd": _simd_found(),
        "blas_core": blas_corename(),
    }, sort_keys=True).encode("utf-8"))
    for out in _canary():
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()[:_LENGTH]
