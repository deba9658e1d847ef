"""flint — ANT's adaptive float-int data type (Guo et al., MICRO 2022).

flint morphs between float and int across its range: values near zero get
int-like uniform resolution (long mantissa, no exponent) and large values
get float-like relative resolution (leading-1-coded exponent, short
mantissa).  The exponent is encoded as a unary prefix (count of leading
zeros before the first 1), so exponent and mantissa trade off dynamically —
the same run-length idea posits use, but without posit's ``es`` field.

This model reproduces flint's *value set*: for an ``n``-bit flint with
per-tensor scale ``s``, the positive codes are::

    exponent field e (unary, value 0..n-2), mantissa m of width n-2-e(+impl)

following the MICRO'22 construction where total width is constant and the
binade at exponent ``e`` has ``n - 2 - max(e - 1, 0)`` mantissa bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .base import NumberFormat
from .posit import PositTable

__all__ = ["FlintFormat"]


@lru_cache(maxsize=64)
def _flint_positive_values(n: int) -> np.ndarray:
    """Sorted positive value set of unit-scale n-bit flint."""
    values: list[float] = []
    body = n - 1  # bits after sign
    # e = 0: pure int binade, mantissa occupies all body bits minus the
    # single '1' terminator -> uniform values in [0, 1).
    for e in range(body):
        mbits = body - 1 - e  # unary exponent prefix consumes e zeros + '1'
        if mbits < 0:
            break
        base = 0.0 if e == 0 else float(np.exp2(e - 1))
        width = float(np.exp2(max(e - 1, 0)))  # binade [2^(e-1), 2^e)
        if e == 0:
            width = 1.0
        for m in range(1 << mbits):
            values.append(base + width * m / (1 << mbits))
    arr = np.unique(np.asarray(values, dtype=np.float64))
    return arr[arr >= 0]


@dataclass(frozen=True)
class FlintFormat(NumberFormat):
    n: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("flint needs >= 3 bits")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def bits(self) -> int:  # type: ignore[override]
        return self.n

    @property
    def name(self) -> str:
        return f"flint<{self.n},s={self.scale:.4g}>"

    def _values(self) -> np.ndarray:
        return _flint_positive_values(self.n) * self.scale

    def quantize(self, x: np.ndarray) -> np.ndarray:
        # nearest value in the linear domain through the LP/posit kernel;
        # flint has no encode, so its "patterns" are just the indices
        vals = self._values()
        table = PositTable.build(
            vals, np.arange(vals.size), self.n, log_domain=False
        )
        return table._lookup(x, table.slot_values, None, 0.0)

    def dynamic_range(self) -> tuple[float, float]:
        vals = self._values()
        pos = vals[vals > 0]
        return float(pos[0]), float(pos[-1])

    @staticmethod
    def for_tensor(x: np.ndarray, n: int) -> "FlintFormat":
        """Scale so the top flint binade covers max|x|."""
        amax = float(np.max(np.abs(np.asarray(x, dtype=np.float64))))
        if amax <= 0:
            amax = 1.0
        top = float(_flint_positive_values(n)[-1])
        return FlintFormat(n=n, scale=amax / top)
