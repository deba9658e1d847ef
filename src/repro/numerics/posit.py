"""Standard posit arithmetic (Gustafson & Yonemoto 2017), bit-accurate.

A posit⟨n, es⟩ packs ``sign | regime | exponent(es) | fraction`` where the
regime is run-length encoded: a run of ``m`` identical bits terminated by the
opposite bit (or the end of the word) encodes ``k = m - 1`` for runs of ones
and ``k = -m`` for runs of zeros.  The represented value is::

    x = (-1)^s * 2^(2^es * k + e) * (1 + f)

Negative numbers are the two's complement of the positive pattern.  The
all-zeros pattern is 0 and ``1 0...0`` is NaR (decoded as NaN).

``decode`` is the bit-accurate ground truth; ``encode`` projects reals onto
the format through a cached value table (posits up to 16 bits have at most
65536 code points, so exhaustive tables are cheap and exact).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .base import BitLevelFormat

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

__all__ = ["PositFormat", "posit_decode", "posit_encode"]


def _decode_core(pattern: np.ndarray, n: int, es: int, max_regime: int) -> np.ndarray:
    """Shared posit/LP-style decode of ``sign|regime|...`` bit patterns.

    Returns the real values for standard posits (``max_regime = n - 1``).
    ``max_regime`` caps the regime field length, which is how Logarithmic
    Posits parameterize tapering; standard posits use the full word.
    """
    p = np.asarray(pattern, dtype=np.int64) & ((1 << n) - 1)
    out = np.zeros(p.shape, dtype=np.float64)
    zero = p == 0
    nar = p == (1 << (n - 1))

    sign = (p >> (n - 1)) & 1
    mag = np.where(sign == 1, ((1 << n) - p) & ((1 << n) - 1), p)
    body = mag & ((1 << (n - 1)) - 1)  # the n-1 bits after the sign

    nb = n - 1
    first = (body >> (nb - 1)) & 1 if nb >= 1 else np.zeros_like(body)
    # run length of the leading bit, capped at max_regime
    run = np.zeros_like(body)
    still = np.ones(body.shape, dtype=bool)
    for i in range(min(nb, max_regime)):
        bit = (body >> (nb - 1 - i)) & 1
        match = still & (bit == first)
        run += match.astype(np.int64)
        still = match
    consumed = np.minimum(run + 1, min(nb, max_regime))
    k = np.where(first == 1, run - 1, -run)

    remaining = nb - consumed
    rem_bits = body & ((np.int64(1) << remaining) - 1)
    e_avail = np.minimum(remaining, es)
    # exponent bits sit at the top of the remaining field; missing low
    # exponent bits are implicitly zero (posit standard truncation rule)
    e = (rem_bits >> (remaining - e_avail)) << (es - e_avail)
    f_bits = remaining - e_avail
    f_int = rem_bits & ((np.int64(1) << f_bits) - 1)
    frac = f_int.astype(np.float64) / np.exp2(f_bits.astype(np.float64))

    scale = (np.exp2(es) * k + e).astype(np.float64)
    val = np.exp2(scale) * (1.0 + frac)
    out = np.where(sign == 1, -val, val)
    out[zero] = 0.0
    out[nar] = np.nan
    return out


def posit_decode(pattern: np.ndarray, n: int, es: int) -> np.ndarray:
    """Decode standard posit⟨n, es⟩ bit patterns to float64 values."""
    if not 2 <= n <= 16:
        raise ValueError(f"posit width must be in [2, 16], got {n}")
    if es < 0:
        raise ValueError("es must be non-negative")
    return _decode_core(pattern, n, es, max_regime=n - 1)


#: Elements per kernel pass: long enough to amortise the per-ufunc call
#: overhead, short enough that a pass's scratch (~0.5 MB) stays in L2.
_CHUNK = 16384
#: Cap on index cells per sign.  LP tables (n <= 8) and posits up to
#: n = 13 fit one midpoint per cell below it; wider posits put several
#: midpoints in a cell instead.
_MAX_CELLS = 1 << 16


_SCRATCH = threading.local()


def _scratch() -> tuple:
    """This thread's kernel scratch: two float64, two intp and two bool
    arrays of ``_CHUNK`` elements, allocated once and reused by every
    call, so no pass touches fresh memory."""
    arrays = getattr(_SCRATCH, "arrays", None)
    if arrays is None or arrays[0].size < _CHUNK:
        arrays = _SCRATCH.arrays = (
            np.empty(_CHUNK), np.empty(_CHUNK),
            np.empty(_CHUNK, np.intp), np.empty(_CHUNK, np.intp),
            np.empty(_CHUNK, bool), np.empty(_CHUNK, bool),
        )
    return arrays


def _cells(v: np.ndarray, origin: float, inv_width: float) -> np.ndarray:
    """Index cell of values ``v`` (in the rounding domain):
    ``trunc((v - origin) / w)``.

    The kernel evaluates the same two float ops on its chunks, so a
    midpoint and a query land in cells by one monotone function of their
    value — which is all the exactness argument in :class:`PositTable`
    needs (no error bound on the rounding).
    """
    return ((v - origin) * inv_width).astype(np.intp)


class PositTable(NamedTuple):
    """Exhaustive value table of a posit-style format's positive half,
    with an exact uniform-bucket index over its rounding midpoints.

    ``midpoints`` are the log-domain rounding thresholds between adjacent
    code points (linear-domain ones for flint, which skips every
    ``log2`` below); the projection of a magnitude ``a`` is the reference
    ``searchsorted(midpoints, log2(clip(a, values[0], values[-1])),
    side="left")``, i.e. the number of midpoints strictly below
    ``v = log2(clip(a))``.  The index computes that count without a
    binary search:

    * a uniform grid of cells over ``[log2 values[0], log2 values[-1]]``,
      at most half the smallest midpoint gap wide (so, below
      ``_MAX_CELLS``, one midpoint per cell); ``g(v) = trunc((v -
      origin) / w)`` is monotone in ``v``;
    * a midpoint ``m`` with ``g(m) < g(v)`` must be below ``v`` and one
      with ``g(m) > g(v)`` cannot be, so only the ``stride`` candidates
      sharing ``v``'s cell are compared — with the same ``<`` on the same
      ``v`` as the reference, hence exactly ``side="left"``;
    * cell ``c`` owns the ``stride`` slots from ``stride * c``; slot
      ``stride * c + j`` answers "cell ``c``, ``j`` candidates below
      ``v``".  ``j = stride`` needs all ``stride`` candidates to be real
      midpoints below ``v``, and then the slot it names, the next
      cell's first, holds the same count, so one table serves both.

    Slots also carry zero and sign: cell 0 is the zero cell (the grid
    origin sits 1.5 cells below ``values[0]``, so no magnitude reaches
    it), and negative inputs use a second copy of the cells ``half``
    slots up.  ``slot_values`` / ``slot_patterns`` map every slot
    straight to the signed value / bit pattern, so one gather finishes
    the quantize or encode.
    """

    values: np.ndarray  # sorted positive representable values
    patterns: np.ndarray  # bit patterns matching ``values``
    midpoints: np.ndarray  # rounding midpoints (len - 1), see log_domain
    nar: int  # the NaR pattern NaN inputs encode to
    origin: float  # start of cell 0
    inv_width: float  # cells per unit
    log_domain: bool  # round in log2 (posit/LP) or linear (flint) domain
    stride: int  # candidates (and slots) per cell
    candidates: np.ndarray  # (stride, cells) midpoints per cell, +inf padded
    slot_values: np.ndarray  # signed value per slot (float64)
    slot_patterns: np.ndarray  # signed bit pattern per slot (int64)

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        patterns: np.ndarray,
        n: int,
        log_domain: bool = True,
    ) -> "PositTable":
        """Sort the (value, pattern) pairs of an ``n``-bit format, derive
        the rounding midpoints — the one place the midpoint rule lives —
        and index them.  Posits and LP round in the log domain; flint's
        linear rounding (``log_domain=False``) allows a zero value."""
        order = np.argsort(values, kind="stable")
        values, patterns = values[order], patterns[order]
        keys = np.log2(values) if log_domain else values
        mids = 0.5 * (keys[:-1] + keys[1:])
        lo, hi = keys[0], keys[-1]
        width = np.diff(mids).min() / 2 if mids.size > 1 else 1.0
        width = max(width, (hi - lo) / (_MAX_CELLS - 4))
        inv_width = 1.0 / width
        origin = lo - 1.5 * width
        # one spare cell above hi's: the kernel clips magnitudes to the
        # table, but a cell stays in range whatever log2 rounds hi to
        cells = int(_cells(np.array([hi]), origin, inv_width)[0]) + 2
        where = _cells(mids, origin, inv_width)
        counts = np.bincount(where, minlength=cells)
        first = np.cumsum(counts) - counts  # midpoints in earlier cells
        stride = max(1, int(counts.max(initial=0)))
        candidates = np.full((stride, cells), np.inf)
        for j in range(stride):
            has = counts > j
            candidates[j, has] = mids[first[has] + j]
        # projection index per slot, shifted by one: 0 is the zero code
        j = np.arange(stride)
        slots = 1 + first[:, None] + np.minimum(j, counts[:, None])
        slots[0] = 0
        negative = len(values) + 1  # where the negative codes start
        slots = np.concatenate([slots.ravel(), slots.ravel() + negative])
        mask = (1 << n) - 1
        signed_values = np.concatenate([[0.0], values, [-0.0], -values])
        signed_patterns = np.concatenate(
            [[0], patterns, [0], ((1 << n) - patterns) & mask]
        ).astype(np.int64)
        return cls(
            values, patterns, mids, 1 << (n - 1), origin, inv_width,
            log_domain, stride, candidates,
            signed_values[slots], signed_patterns[slots],
        )

    def quantize(
        self, x, sf: float = 0.0, dtype: DTypeLike = np.float64
    ) -> np.ndarray:
        """Nearest representable values of ``x`` in the table scaled by
        ``2^-sf``, as ``dtype``.

        Equal to ``values[idx] * 2^-sf`` computed in float64 and then
        cast: the slot table is scaled and cast once per call, and the
        cast is elementwise, so a float32 result is bitwise the float64
        one's ``.astype(np.float32)``.
        """
        codes = self.slot_values
        if sf:
            codes = codes * np.exp2(-sf)
        if dtype is not np.float64 and (
            codes[codes.size // 2 - 1] > np.finfo(dtype).max  # maxpos
        ):
            # such entries cast to inf, as the float64 result's would;
            # no warning about slots that no input may reach
            with np.errstate(over="ignore"):
                codes = codes.astype(dtype)
        return self._lookup(x, codes.astype(dtype, copy=False), np.nan, sf)

    def encode(self, x, sf: float = 0.0) -> np.ndarray:
        """Bit patterns of the nearest representable values of
        ``x * 2^sf`` (int64; NaN encodes to NaR)."""
        return self._lookup(x, self.slot_patterns, self.nar, sf)

    def _lookup(self, x, codes: np.ndarray, nan_code, sf: float) -> np.ndarray:
        """The one quantize/encode kernel: ``codes[slot]`` per element.

        ``codes`` maps slots to results (scaled ``slot_values`` or
        ``slot_patterns``) and ``nan_code`` is what NaN inputs give (None:
        the input NaN itself).  The projection runs on ``|x| * 2^sf`` in
        float64, exactly as the reference computes it.  Zeros take the
        zero slot; negative inputs (``x < 0``: ``-0.0`` is not negative,
        a tiny negative that underflows to zero is) take the negative
        half.  The input is walked in ``_CHUNK``-element passes over this
        thread's reused scratch, with no boolean masks; NaNs are patched
        afterwards, in passes that have any.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
        scale = np.exp2(sf)
        flat = x.reshape(-1)
        out = np.empty(flat.size, codes.dtype)
        scratch = _scratch()
        vmin, vmax = self.values[0], self.values[-1]
        half = np.intp(codes.size // 2)
        for start in range(0, flat.size, _CHUNK):
            xs = flat[start:start + _CHUNK]
            a, v, c, s, nz, q = scratch
            k = xs.size
            if k < a.size:  # a short input or the last pass
                a, v, c, s, nz, q = a[:k], v[:k], c[:k], s[:k], nz[:k], q[:k]
            np.absolute(xs, out=a)
            if scale != 1.0:
                np.multiply(a, scale, out=a)
            np.greater(a, 0.0, out=nz)  # False for zeros and NaNs
            np.fmax(a, vmin, out=v)  # NaN -> vmin; patched below
            np.minimum(v, vmax, out=v)
            if self.log_domain:
                np.log2(v, out=v)  # the reference's v, bit for bit
            np.subtract(v, self.origin, out=a)
            np.multiply(a, self.inv_width, out=a)
            c[...] = a  # truncates: the cell, as _cells computes it
            np.multiply(c, nz, out=c)  # zeros -> the zero cell
            slot, spare = c, s
            if self.stride > 1:
                slot, spare = np.multiply(c, self.stride, out=s), c
            for cand in self.candidates:
                cand.take(c, out=a, mode="clip")
                np.less(a, v, out=q)
                np.add(slot, q, out=slot)
            np.less(xs, 0, out=q)  # a weak 0: compared in xs's own dtype
            np.multiply(q, half, out=spare)
            np.add(slot, spare, out=slot)
            res = out[start:start + _CHUNK]
            codes.take(slot, out=res, mode="clip")
            top = np.maximum.reduce(xs)  # NaN if any element is
            if top != top:
                nan = np.isnan(xs)
                res[nan] = xs[nan] if nan_code is None else nan_code
        return out.reshape(x.shape)


#: Process-wide LUT registry shared by every evaluator replica in this
#: process: format params → built :class:`PositTable`.  One worker running
#: many replicas (thread pool, shared process pool serving several jobs)
#: builds each table exactly once; reuse shows up as hits on the
#: ``numerics.lut_cache`` stats of the ambient perf registry.
_LUT_REGISTRY: dict[tuple, PositTable] = {}


def _lut_stats():
    from ..perf import get_perf  # deferred: numerics must import standalone

    return get_perf().cache("numerics.lut_cache")


def _registered_table(key: tuple, build: Callable[[], PositTable]) -> PositTable:
    """Look ``key`` up in the process-wide LUT registry, building (and
    counting a miss) only on first use anywhere in the process."""
    table = _LUT_REGISTRY.get(key)
    if table is not None:
        _lut_stats().hit()
        return table
    _lut_stats().miss()
    table = _LUT_REGISTRY[key] = build()
    return table


def _positive_table(n: int, es: int, max_regime: int) -> PositTable:
    """Registry-cached :class:`PositTable` for a posit-style format."""

    def build() -> PositTable:
        patterns = np.arange(1, 1 << (n - 1), dtype=np.int64)  # positive codes
        values = _decode_core(patterns, n, es, max_regime)
        return PositTable.build(values, patterns, n)

    return _registered_table(("posit", n, es, max_regime), build)


def posit_encode(x: np.ndarray, n: int, es: int) -> np.ndarray:
    """Round reals to posit⟨n, es⟩ and return the bit patterns.

    Rounding is to nearest in the log domain.  Magnitudes beyond the
    dynamic range clamp to minpos/maxpos (posit semantics: no underflow
    to zero, no overflow to infinity).  Zeros of either sign encode to
    the zero pattern, negatives to the two's complement of their
    magnitude's pattern, and NaN to NaR (``1 0...0``):

    >>> x = np.array([1.0, -1.0, 0.0, -0.0, np.nan, 1e-30, -np.inf])
    >>> posit_encode(x, 8, 0).tolist()
    [64, 192, 0, 0, 128, 1, 129]
    """
    return _positive_table(n, es, n - 1).encode(x)


@dataclass(frozen=True)
class PositFormat(BitLevelFormat):
    """Standard posit⟨n, es⟩ as a :class:`NumberFormat`."""

    n: int
    es: int

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 16:
            raise ValueError(f"posit width must be in [2, 16], got {self.n}")
        if self.es < 0:
            raise ValueError("es must be non-negative")

    @property
    def bits(self) -> int:  # type: ignore[override]
        return self.n

    @property
    def name(self) -> str:
        return f"posit<{self.n},{self.es}>"

    def encode(self, x: np.ndarray) -> np.ndarray:
        return posit_encode(x, self.n, self.es)

    def decode(self, pattern: np.ndarray) -> np.ndarray:
        return posit_decode(pattern, self.n, self.es)

    def _lut(self) -> PositTable:
        return _positive_table(self.n, self.es, self.n - 1)

    def dynamic_range(self) -> tuple[float, float]:
        values = self._lut().values
        return float(values[0]), float(values[-1])
