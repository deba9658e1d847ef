"""LP — the Logarithmic Posit data type (paper Section 3, Eq. 1).

LP is a posit with every bit field parameterized, whose exponent and
fraction are fused into one log-domain fixed-point field::

    x<n, es, rs, sf> = (-1)^sign * 2^(2^es * k - sf) * 2^ulfx      (Eq. 1)

where

* ``n``  — total width (bits), controls precision / compression,
* ``es`` — exponent size; each increment doubles the dynamic range,
* ``rs`` — maximum regime field length; controls the *tapering* (shape),
* ``sf`` — continuous scale-factor bias; shifts the region of maximum
  accuracy away from magnitude 1 (standard posits have ``sf = 0``),
* ``k``  — regime value from the run-length encoded regime field,
* ``ulfx`` — Unified Logarithmic Fraction and eXponent: a fixed-point
  number in ``[0, 2^es)`` whose integer part is the exponent ``e`` and
  whose fractional part is ``f' = log2(1.f)``.

Because the fraction is stored in the log domain, a hardware multiply is
just a fixed-point add (LNS efficiency), and rounding happens in the log
domain — both are modelled faithfully here.

Bit layout (mirrors standard posit, negatives are two's complement)::

    sign(1) | regime(run-length, <= rs bits) | ulfx integer+fraction

The ``sf`` bias does not occupy bits; it is a per-tensor parameter held by
the decoder (paper Fig. 3 feeds ``sf`` into the regime constructor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .base import BitLevelFormat
from .posit import PositTable, _decode_core, _registered_table

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

__all__ = [
    "LPParams",
    "LogPositFormat",
    "lp_decode",
    "lp_encode",
    "lp_quantize",
    "lp_quantize_many",
]

#: Search-space bounds used by LPQ (paper Section 4, Step 1).
N_MIN, N_MAX = 2, 8
ES_MIN = 0
RS_MIN = 2


@dataclass(frozen=True)
class LPParams:
    """The four LP parameters ⟨n, es, rs, sf⟩ of one tensor/layer.

    Constraints (paper Section 3): ``es <= n - 3`` (1 sign + >=2 regime
    bits must remain) and ``2 <= rs <= n - 1``.  Narrow widths where the
    constraints cannot all hold (n = 2, 3) clamp ``rs``/``es`` to the
    feasible range instead of failing, matching the hardware's behaviour
    of simply having no bits left for the constrained field.
    """

    n: int
    es: int
    rs: int
    sf: float = 0.0

    def __post_init__(self) -> None:
        if not N_MIN <= self.n <= 16:
            raise ValueError(f"LP width must be in [{N_MIN}, 16], got {self.n}")
        if self.es < 0 or self.rs < 1:
            raise ValueError(f"invalid LP fields es={self.es} rs={self.rs}")

    @property
    def es_eff(self) -> int:
        """Exponent size actually usable at this width (``<= n - 3``, >= 0)."""
        return min(self.es, max(self.n - 3, 0))

    @property
    def rs_eff(self) -> int:
        """Regime cap actually usable at this width (``<= n - 1``)."""
        return max(1, min(self.rs, self.n - 1))

    def clamped(self) -> "LPParams":
        """Return a copy with ``es``/``rs`` clamped into the feasible range."""
        return replace(self, es=self.es_eff, rs=self.rs_eff)

    @staticmethod
    def random(rng: np.random.Generator, n: int | None = None) -> "LPParams":
        """Sample uniformly from the LPQ search space (sf ~ U(-1e-3, 1e-3))."""
        n = int(rng.integers(N_MIN, N_MAX + 1)) if n is None else n
        es = int(rng.integers(0, max(n - 3, 0) + 1))
        rs = int(rng.integers(RS_MIN, max(n - 1, RS_MIN) + 1))
        sf = float(rng.uniform(-1e-3, 1e-3))
        return LPParams(n=n, es=es, rs=rs, sf=sf)


def lp_decode(pattern: np.ndarray, params: LPParams) -> np.ndarray:
    """Decode LP bit patterns to float64 values (Eq. 1).

    The shared posit decode core already interprets the post-regime bits as
    ``e`` (es-bit integer) and ``f`` with value ``2^e * (1 + f)``; LP instead
    means ``2^(e + f')`` with ``f'`` the *log-domain* fraction.  We therefore
    decode structurally with the core and fix up the fraction semantics:
    ``(1 + f) -> 2^(f)``.
    """
    p = params.clamped()
    lin = _decode_core(pattern, p.n, p.es_eff, max_regime=p.rs_eff)
    sign = np.sign(lin)
    mag = np.abs(lin)
    out = np.zeros_like(mag)
    ok = (mag > 0) & np.isfinite(mag)
    # mag = 2^scale * (1 + f); recover 2^scale (a power of two) and f, then
    # reinterpret f as the log-domain fraction f' so value = 2^(scale + f').
    exp2 = np.zeros_like(mag)
    frac = np.zeros_like(mag)
    exp2[ok] = np.floor(np.log2(mag[ok]))
    frac[ok] = mag[ok] / np.exp2(exp2[ok]) - 1.0
    # computed as (sf=0 value) * 2^-sf — not exp2(e + f' - sf) — so decode
    # is bitwise consistent with the table-based lp_quantize fast path
    out[ok] = np.exp2(exp2[ok] + frac[ok]) * np.exp2(-p.sf)
    out = sign * out
    out[np.isnan(lin)] = np.nan
    return out


def _lp_positive_table(n: int, es: int, rs: int) -> PositTable:
    """Registry-cached :class:`PositTable` of an LP format's sf=0
    positive half (process-wide, shared across evaluator replicas)."""

    def build() -> PositTable:
        base = LPParams(n=n, es=es, rs=rs, sf=0.0)
        patterns = np.arange(1, 1 << (n - 1), dtype=np.int64)
        values = lp_decode(patterns, base)
        return PositTable.build(values, patterns, n)

    return _registered_table(("lp", n, es, rs), build)


def lp_encode(x: np.ndarray, params: LPParams) -> np.ndarray:
    """Round reals to LP⟨n, es, rs, sf⟩ and return the bit patterns.

    Rounding is performed in the log domain (round-to-nearest ``ulfx``),
    exactly what the LPA datapath does.  Magnitudes outside the dynamic
    range clamp to minpos/maxpos — posit semantics: no underflow to zero,
    no overflow to infinity.  NaN encodes to the NaR pattern.
    """
    # sf only rescales the whole value set: search in the sf=0 table.
    table = _lp_positive_table(params.n, params.es_eff, params.rs_eff)
    return table.encode(x, params.sf)


def lp_quantize(
    x: np.ndarray, params: LPParams, dtype: DTypeLike = np.float64
) -> np.ndarray:
    """Project ``x`` onto the LP⟨n, es, rs, sf⟩ value set.

    Fused table lookup through the cached sf=0 table's bucket index,
    bitwise identical to ``decode(encode(x))``.  The result is float64;
    ``dtype=np.float32`` returns bitwise the float64 result's
    ``.astype(np.float32)`` without the float64 intermediate.

    Signed zeros and NaN: ``+0.0`` and ``-0.0`` both give ``+0.0``; a
    negative so tiny that ``|x| * 2^sf`` underflows to zero gives
    ``-0.0``; NaN gives NaN.  Infinities clamp to ±maxpos like every
    other out-of-range magnitude.

    >>> x = np.array([0.0, -0.0, -1e-323, np.nan])
    >>> q = lp_quantize(x, LPParams(n=6, es=1, rs=3, sf=-2.0))
    >>> q.tolist(), np.signbit(q).tolist()
    ([0.0, 0.0, -0.0, nan], [False, False, True, False])
    """
    table = _lp_positive_table(params.n, params.es_eff, params.rs_eff)
    return table.quantize(x, params.sf, dtype)


def lp_quantize_many(
    tensors: list[np.ndarray],
    params_list: list[LPParams],
    dtype: DTypeLike = np.float64,
) -> list[np.ndarray]:
    """Quantize many ``(tensor, params)`` pairs with one table lookup
    per shared format.

    Pairs whose clamped ⟨n, es, rs⟩ share an sf=0 table are grouped and
    the table is looked up once per group; ``sf`` only rescales each
    tensor by ``2^sf`` / ``2^-sf`` around the shared index.  Every
    output (``dtype`` as in :func:`lp_quantize`) is bitwise identical
    to calling :func:`lp_quantize` pair by pair.

    >>> import numpy as np
    >>> a, b = np.array([0.3, -1.7]), np.array([[2.5]])
    >>> p = LPParams(n=6, es=1, rs=3, sf=0.25)
    >>> outs = lp_quantize_many([a, b], [p, p])
    >>> all(np.array_equal(o, lp_quantize(x, p), equal_nan=True)
    ...     for o, x in zip(outs, [a, b]))
    True
    """
    if len(tensors) != len(params_list):
        raise ValueError(
            f"got {len(tensors)} tensors for {len(params_list)} params"
        )
    results: list[np.ndarray | None] = [None] * len(tensors)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for idx, p in enumerate(params_list):
        groups.setdefault((p.n, p.es_eff, p.rs_eff), []).append(idx)
    for (n, es, rs), idxs in groups.items():
        table = _lp_positive_table(n, es, rs)
        for i in idxs:
            results[i] = table.quantize(tensors[i], params_list[i].sf, dtype)
    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class LogPositFormat(BitLevelFormat):
    """LP⟨n, es, rs, sf⟩ as a :class:`NumberFormat`."""

    params: LPParams

    @staticmethod
    def make(n: int, es: int, rs: int, sf: float = 0.0) -> "LogPositFormat":
        return LogPositFormat(LPParams(n=n, es=es, rs=rs, sf=sf))

    @property
    def bits(self) -> int:  # type: ignore[override]
        return self.params.n

    @property
    def name(self) -> str:
        p = self.params
        return f"lp<{p.n},{p.es},{p.rs},{p.sf:.4g}>"

    def encode(self, x: np.ndarray) -> np.ndarray:
        return lp_encode(x, self.params)

    def decode(self, pattern: np.ndarray) -> np.ndarray:
        return lp_decode(pattern, self.params)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return lp_quantize(x, self.params)

    def dynamic_range(self) -> tuple[float, float]:
        p = self.params.clamped()
        values = _lp_positive_table(p.n, p.es_eff, p.rs_eff).values
        s = np.exp2(-p.sf)
        return float(values[0] * s), float(values[-1] * s)
