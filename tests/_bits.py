"""Bit-pattern equality for the kernel tests.

``np.testing.assert_array_equal`` treats -0.0 and +0.0 (and any two
NaNs) as equal, so tests that promise the same bits as a reference
kernel compare the arrays viewed as unsigned integers of their width.
"""

import numpy as np


def assert_bits_equal(got, want):
    """Equal dtype, shape and bit pattern: -0.0 != +0.0, NaN == NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    uint = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(uint), want.view(uint))
