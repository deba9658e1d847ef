"""Parameter: a learnable tensor with an accumulated gradient.

The framework's default dtype is float32 (fast BLAS path); gradient-check
tests switch to float64 via :func:`set_default_dtype` for tight numerical
tolerances.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["Parameter", "set_default_dtype", "get_default_dtype", "seed", "init_rng"]

_DEFAULT_DTYPE = np.float32
_INIT_RNG = np.random.default_rng(0x5EED)
_INIT_LOCK = threading.RLock()  # held by reseeds and across builds


def seed(value: int) -> None:
    """Reseed the global parameter-initialization RNG (deterministic
    model construction for experiments and tests)."""
    global _INIT_RNG
    with _INIT_LOCK:
        _INIT_RNG = np.random.default_rng(value)


@contextmanager
def _seeded(value: int):
    """``seed(value)``, then hold the init lock while the body builds, so
    no other thread reseeds or draws from the init RNG in between."""
    with _INIT_LOCK:
        seed(value)
        yield


def init_rng() -> np.random.Generator:
    """The RNG used by layers to initialize their parameters."""
    return _INIT_RNG


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created parameters."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dt.type


def get_default_dtype():
    return _DEFAULT_DTYPE


class Parameter:
    """A trainable array; ``grad`` accumulates across backward calls."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def accumulate(self, grad: np.ndarray) -> None:
        if self.requires_grad:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.data.shape})"
