"""The numerics fingerprint names the bits a process computes: equal in
every process on one host, different where the kernels differ."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel._blas import blas_corename
from repro.parallel._fingerprint import numerics_fingerprint

from .._blas import requires_openblas

_SRC = Path(__file__).resolve().parents[2] / "src"


def _fingerprint_in_subprocess(**env) -> str:
    code = ("from repro.parallel._fingerprint import numerics_fingerprint;"
            "print(numerics_fingerprint())")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_SRC), **env},
    )
    return out.stdout.strip()


def test_recomputed_fingerprint_is_the_cached_one():
    assert numerics_fingerprint.__wrapped__() == numerics_fingerprint()


def test_every_process_on_this_host_agrees():
    """What lets a result stored by one process replay in the next."""
    assert _fingerprint_in_subprocess() == numerics_fingerprint()
    assert _fingerprint_in_subprocess(OPENBLAS_NUM_THREADS="1") == (
        numerics_fingerprint()
    )


@requires_openblas
@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_another_blas_kernel_changes_it(core):
    assert blas_corename()
    assert _fingerprint_in_subprocess(OPENBLAS_CORETYPE=core) != (
        numerics_fingerprint()
    )
