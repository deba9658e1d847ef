#!/usr/bin/env python
"""Count, over every float32 input, how GELU's cube is rounded.

``repro.nn.functional.gelu`` cubes its float32 input.  For each of the
2^32 float32 bit patterns ``x`` this script compares three cubes:

* the exact cube ``x^3`` rounded once to float32 — correct rounding;
* ``float32(x64 * x64 * x64)`` with ``x64 = float64(x)`` — the kernel
  ``repro.nn.functional._cube`` runs;
* numpy's float32 ``x**3`` — what ``gelu`` ran before, and whatever
  ``pow`` numpy dispatches to on this host (SVML ``powf`` on AVX-512
  hosts, libm ``powf`` otherwise).

It prints how many inputs each of the two kernels does not round
correctly, and on how many inputs they disagree with each other.  NaN
inputs count as correct when the result is any NaN; every other result
is compared bit for bit, so ``-0.0 != +0.0``.

How the exact cube is known without big integers: ``x64 * x64`` is
exact in float64 (48 significant bits), so ``p = x64 * x64 * x64`` is
``x^3`` rounded once, and the error ``e = x^3 - p`` is exact by
Dekker's two-product (no float64 overflow or underflow for any finite
float32).  ``float32(p)`` can differ from the correctly rounded cube
only when ``p`` sits exactly on a float32 rounding midpoint while
``e != 0`` (double rounding); those inputs are rounded toward ``e``
instead.  Up to 300 of the inputs found wrong for each kernel are
re-checked against exact ``fractions.Fraction`` arithmetic
(:func:`exact_cube_f32`, which the tier-1 test also uses).

Usage::

    python scripts/count_gelu_cube.py                  # all 2^32 inputs
    python scripts/count_gelu_cube.py --stride 4099    # a quick sample
    python scripts/count_gelu_cube.py --processes 2

The full count took 841 s with ``--processes 2`` on a 2-vCPU Xeon with
AVX-512 (SVML ``powf``), and 496 s with AVX-512 disabled (libm
``powf``).
"""

from __future__ import annotations

import argparse
import multiprocessing
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.nn.functional import _cube  # noqa: E402

_SPLIT = float(2**27 + 1)
_F32_MAX = float(np.finfo(np.float32).max)
#: inputs per vectorized pass (memory), and Fraction re-checks per kernel
_CHUNK = 1 << 22
_VERIFY = 300


def _two_product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray):
    """Exact ``a * b - p`` for ``p = fl(a * b)`` (Dekker)."""
    def split(v):
        c = _SPLIT * v
        hi = c - (c - v)
        return hi, v - hi

    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def correctly_rounded(x: np.ndarray) -> np.ndarray:
    """The exact cube of float32 ``x`` rounded once to float32."""
    x64 = x.astype(np.float64)
    sq = x64 * x64  # exact
    p = sq * x64
    out = p.astype(np.float32)
    finite = np.isfinite(x64)
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.where(finite, _two_product_error(sq, x64, p), 0.0)
        # the float32 neighbour on p's far side of ``out``, and the
        # midpoint between the two (exact in float64)
        near = np.where(np.isinf(out), np.copysign(2.0**128, p),
                        out.astype(np.float64))
        away = np.nextafter(out, np.where(p > near, np.inf, -np.inf)
                            .astype(np.float32))
        away = np.where(np.isinf(out), np.copysign(_F32_MAX, p),
                        away.astype(np.float64))
        tie = finite & (p == 0.5 * (near + away)) & (p != near) & (e != 0)
    if tie.any():
        nudged = np.nextafter(p[tie], np.where(e[tie] > 0, np.inf, -np.inf))
        out[tie] = nudged.astype(np.float32)
    return out


def _mismatch(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    both_nan = np.isnan(got) & np.isnan(want)
    return (got.view(np.uint32) != want.view(np.uint32)) & ~both_nan


def exact_cube_f32(x: float) -> float:
    """``x^3`` in exact rationals, rounded once to float32 (to nearest,
    ties to even, overflow to ±inf, gradual underflow), as a float."""
    if x != x or x == 0.0 or abs(x) == np.inf:
        return x  # NaN, a signed zero or an infinity cubes to itself
    q = Fraction(x) ** 3
    sign, q = (-1.0 if q < 0 else 1.0), abs(q)
    exp = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** exp > q:
        exp -= 1
    ulp = Fraction(2) ** (max(exp, -126) - 23)
    n, rem = divmod(q, ulp)
    if rem * 2 > ulp or (rem * 2 == ulp and n % 2):
        n += 1
    if n * ulp >= Fraction(2) ** 128:
        return sign * np.inf
    return sign * float(n * ulp)


def _count_range(args) -> tuple[dict, dict]:
    """Counts and (up to ``_VERIFY``) wrongly rounded bit patterns per
    kernel over the patterns ``lo, lo + stride, ...`` below ``hi``."""
    lo, hi, stride = args
    counts = dict.fromkeys(
        ("inputs", "float64_product_wrong", "powf_wrong", "disagree"), 0)
    wrong = {"float64_product": [], "powf": []}
    for start in range(lo, hi, _CHUNK * stride):
        bits = np.arange(start, min(start + _CHUNK * stride, hi), stride,
                         dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        with np.errstate(all="ignore"):  # NaN, overflow, underflow
            want = correctly_rounded(x)
            new = _cube(x)
            old = x**3
        bad_new, bad_old = _mismatch(new, want), _mismatch(old, want)
        counts["inputs"] += x.size
        counts["float64_product_wrong"] += int(bad_new.sum())
        counts["powf_wrong"] += int(bad_old.sum())
        counts["disagree"] += int(_mismatch(new, old).sum())
        for key, bad in (("float64_product", bad_new), ("powf", bad_old)):
            room = _VERIFY - len(wrong[key])
            if room > 0:
                wrong[key].extend(bits[bad][:room].tolist())
    return counts, wrong


def count(stride: int = 1, processes: int = 1) -> dict:
    """Rounding counts over every ``stride``-th float32 bit pattern."""
    total = 1 << 32
    step = _CHUNK * stride
    # contiguous slices, one per task, each a whole number of passes
    tasks = [(lo, min(lo + step * 64, total), stride)
             for lo in range(0, total, step * 64)]
    start = time.perf_counter()
    if processes > 1:
        with multiprocessing.get_context("spawn").Pool(processes) as pool:
            parts = pool.map(_count_range, tasks, chunksize=1)
    else:
        parts = [_count_range(task) for task in tasks]
    counts = {key: sum(c[key] for c, _ in parts) for key in parts[0][0]}
    # the vectorized exact cube against Fraction arithmetic, on the
    # inputs it says a kernel rounds wrongly
    verified = {}
    for key in ("float64_product", "powf"):
        patterns = [b for _, w in parts for b in w[key]][:_VERIFY]
        x = np.array(patterns, dtype=np.uint32).view(np.float32)
        with np.errstate(all="ignore"):
            want = correctly_rounded(x)
        exact = np.array([exact_cube_f32(float(v)) for v in x],
                         dtype=np.float64).astype(np.float32)
        assert not _mismatch(want, exact).any(), key
        verified[key] = len(patterns)
    return {
        **counts,
        "stride": stride,
        "verified_with_fractions": verified,
        "seconds": round(time.perf_counter() - start, 1),
        "numpy": np.__version__,
        "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stride", type=int, default=1,
                        help="check every STRIDE-th bit pattern "
                             "(default 1: all 2^32)")
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes (default 1)")
    args = parser.parse_args(argv)
    result = count(args.stride, args.processes)
    print(f"{result['inputs']:,} float32 inputs "
          f"(stride {result['stride']}, {result['seconds']} s, "
          f"numpy {result['numpy']}, SIMD {result['simd']})")
    print(f"  float64 product not correctly rounded: "
          f"{result['float64_product_wrong']:,}")
    print(f"  numpy x**3 (powf) not correctly rounded: "
          f"{result['powf_wrong']:,}")
    print(f"  the two disagree: {result['disagree']:,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
