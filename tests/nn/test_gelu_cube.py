"""GELU's cube: a float64 product rounded once, checked against exact
rational arithmetic (``scripts/count_gelu_cube.py`` runs the same
comparison over all 2^32 float32 inputs)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import functional as F

from .._bits import assert_bits_equal

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
try:
    import count_gelu_cube
finally:
    sys.path.pop(0)

#: float32 bit patterns every sample includes: signed zeros, the
#: subnormal range's ends, the smallest normals, cubes that overflow
#: to ±inf just past cbrt(max), the infinities, and quiet / signalling
#: NaNs of both signs
_SPECIAL = [
    0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
    0x807FFFFF, 0x00800000, 0x80800000, 0x3F800000, 0xBF800000,
    0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000, 0x7FC00000,
    0xFFC00000, 0x7F800001, 0xFFBFFFFF,
]
#: float32 values whose cube is near the largest finite float32
_CBRT_MAX = float(np.finfo(np.float32).max) ** (1 / 3)


def _overflow_edge() -> list[int]:
    edge = int(np.array(_CBRT_MAX, np.float32).view(np.uint32))
    return [p | s for p in range(edge - 64, edge + 64)
            for s in (0, 0x80000000)]


def _sample(stride: int, offset: int) -> np.ndarray:
    strided = np.arange(offset, 1 << 32, stride, dtype=np.uint64)
    bits = np.concatenate([strided, _SPECIAL, _overflow_edge()])
    return bits.astype(np.uint32).view(np.float32)


@pytest.mark.parametrize("stride,offset", [(262_147, 0), (196_613, 7919)])
def test_cube_is_the_correctly_rounded_cube(stride, offset):
    x = _sample(stride, offset)
    with np.errstate(all="ignore"):
        got = F._cube(x)
    want = np.array([count_gelu_cube.exact_cube_f32(float(v)) for v in x],
                    dtype=np.float64)
    with np.errstate(all="ignore"):
        want = want.astype(np.float32)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert_bits_equal(got[~nan], want[~nan])


def test_count_script_finds_the_cube_correctly_rounded():
    """The exhaustive count's vectorized exact cube (re-checked there in
    ``Fraction``), on a strided sample."""
    result = count_gelu_cube.count(stride=262_147)
    assert result["inputs"] == -(-(1 << 32) // 262_147)
    assert result["float64_product_wrong"] == 0
    assert result["disagree"] <= result["powf_wrong"]


def test_cube_keeps_the_dtype():
    for dtype in (np.float32, np.float64):
        x = np.linspace(-3, 3, 7, dtype=dtype)
        assert F._cube(x).dtype == dtype


def _gelu_ref(x):
    x64 = x.astype(np.float64)
    cube = (x64 * x64 * x64).astype(x.dtype)
    inner = float(np.sqrt(2.0 / np.pi)) * (x + 0.044715 * cube)
    return 0.5 * x * (1.0 + np.tanh(inner))


def _gelu_grad_ref(x):
    x64 = x.astype(np.float64)
    cube = (x64 * x64 * x64).astype(x.dtype)
    s = float(np.sqrt(2.0 / np.pi))
    t = np.tanh(s * (x + 0.044715 * cube))
    dinner = s * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_grad_are_built_on_the_float64_cube(dtype):
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.standard_normal(20_000) * 3.0,
        np.linspace(-12.0, 12.0, 4000),
        [0.0, -0.0],
    ]).astype(dtype).reshape(-1, 2)
    assert_bits_equal(F.gelu(x), _gelu_ref(x))
    assert_bits_equal(F.gelu_grad(x), _gelu_grad_ref(x))
