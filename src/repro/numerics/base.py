"""Common abstractions for number formats used in DNN quantization.

Every format in :mod:`repro.numerics` implements :class:`NumberFormat`:
a value-set on the real line plus a ``quantize`` projection onto it.
Formats that model a concrete bit layout additionally expose
``encode``/``decode`` between real values and integer bit patterns so the
hardware model in :mod:`repro.accel` can operate on actual fields.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumberFormat",
    "BitLevelFormat",
    "QuantizationStats",
    "quantization_rmse",
    "relative_decimal_accuracy",
]


class NumberFormat(abc.ABC):
    """A finite set of representable reals with a round-to-nearest projection."""

    #: total storage width in bits (used for compression-ratio accounting)
    bits: int

    @abc.abstractmethod
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Project ``x`` element-wise onto the nearest representable value."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable identifier, e.g. ``"lp<8,2,3,0.0>"``."""

    def dynamic_range(self) -> tuple[float, float]:
        """(min positive, max positive) representable magnitudes."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class BitLevelFormat(NumberFormat):
    """A format with an explicit bit layout.

    ``encode`` maps reals to unsigned integer bit patterns of width
    ``self.bits``; ``decode`` is its exact inverse on representable values.

    Formats whose encoder rounds in the log domain over a sign-symmetric
    positive value table (posits and their LP relatives) can return that
    table from :meth:`_lut` to get a fused ``quantize``: reals map
    straight to representable values through the table's bucket index,
    skipping the encode→decode round trip while staying bitwise
    identical to it (the table values *are* the decode outputs).
    """

    @abc.abstractmethod
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` to the format and return the integer bit patterns."""

    @abc.abstractmethod
    def decode(self, pattern: np.ndarray) -> np.ndarray:
        """Map integer bit patterns back to their real values."""

    def _lut(self):
        """Value table enabling the fused quantize path (or None).

        When not None, must be a :class:`repro.numerics.posit.PositTable`
        whose values equal the decode outputs bit-for-bit and whose
        rounding rule is the one ``encode`` uses.
        """
        return None

    def quantize(self, x: np.ndarray) -> np.ndarray:
        table = self._lut()
        if table is None:
            return self.decode(self.encode(x))
        return table.quantize(x)

    def all_patterns(self) -> np.ndarray:
        """Every bit pattern of width ``self.bits`` (for exhaustive checks)."""
        return np.arange(1 << self.bits, dtype=np.int64)

    def all_values(self) -> np.ndarray:
        """The complete representable value set, sorted ascending."""
        return np.sort(np.unique(self.decode(self.all_patterns())))


@dataclass(frozen=True)
class QuantizationStats:
    """Summary statistics of the error introduced by quantizing a tensor."""

    rmse: float
    max_abs_err: float
    mean_rel_err: float
    sqnr_db: float

    @staticmethod
    def from_tensors(x: np.ndarray, xq: np.ndarray) -> "QuantizationStats":
        x = np.asarray(x, dtype=np.float64)
        xq = np.asarray(xq, dtype=np.float64)
        err = x - xq
        rmse = float(np.sqrt(np.mean(err**2)))
        max_abs = float(np.max(np.abs(err))) if err.size else 0.0
        nz = np.abs(x) > 0
        rel = float(np.mean(np.abs(err[nz]) / np.abs(x[nz]))) if nz.any() else 0.0
        sig = float(np.sum(x**2))
        noise = float(np.sum(err**2))
        sqnr = float(10.0 * np.log10(sig / noise)) if noise > 0 and sig > 0 else np.inf
        return QuantizationStats(rmse, max_abs, rel, sqnr)


def quantization_rmse(fmt: NumberFormat, x: np.ndarray) -> float:
    """Root-mean-squared quantization error of ``fmt`` on tensor ``x``."""
    xq = fmt.quantize(np.asarray(x, dtype=np.float64))
    return float(np.sqrt(np.mean((np.asarray(x, dtype=np.float64) - xq) ** 2)))


def relative_decimal_accuracy(fmt: NumberFormat, magnitudes: np.ndarray) -> np.ndarray:
    """Relative decimal accuracy, the y-axis of the paper's Fig. 1(b).

    For each magnitude ``m`` the accuracy is ``-log10(|log10(q/m)|)`` where
    ``q`` is the nearest representable value — i.e. the number of correct
    decimal digits of the closest code point.  Larger is better; posits show
    the characteristic tapered "tent" shape, floats a flat plateau.
    """
    m = np.asarray(magnitudes, dtype=np.float64)
    q = fmt.quantize(m)
    out = np.full(m.shape, 0.0)
    ok = (q > 0) & (m > 0)
    ratio = np.ones_like(m)
    ratio[ok] = q[ok] / m[ok]
    logerr = np.abs(np.log10(ratio, where=ratio > 0, out=np.zeros_like(ratio)))
    exact = ok & (logerr == 0)
    inexact = ok & (logerr > 0)
    out[inexact] = -np.log10(logerr[inexact])
    out[exact] = 16.0  # indistinguishable from exact in double precision
    out[~ok] = 0.0
    return out
