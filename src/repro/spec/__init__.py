"""Declarative search specs: every experiment a named, serializable object.

The public surface has two pieces:

* :mod:`repro.spec.registry` — one :class:`~repro.spec.registry.Registry`
  per pluggable component family (objectives, format families/parsers,
  executor backends, models, calibration sources).  Components are
  referenced *by name*, which is what makes specs JSON-safe.
* :class:`SearchSpec` (+ :class:`CalibSpec`) — the single source of
  truth for launching an LPQ search: model ref, calibration descriptor,
  search/fitness configs, objective, executor, seed.  Round-trips
  through plain JSON bitwise-faithfully (``to_dict``/``from_dict``,
  ``dump``/``load``).  :func:`repro.quant.lpq_quantize` runs one
  (``lpq_quantize(spec=...)``, as ``scripts/run_search.py`` does).

The legacy keyword APIs (:func:`repro.quant.lpq_quantize` and friends)
are thin shims that *construct* a spec, so both paths share one
implementation and produce bitwise-identical results.

This module lazy-loads :class:`SearchSpec` (PEP 562): importing
``repro.spec.registry`` from a component module never drags the quant
stack in, which keeps registration import-cycle-free.
"""

from . import registry  # dependency-free; safe to import eagerly

_LAZY = {
    "BlobStore": "blob",
    "CalibSpec": "spec",
    "SearchSpec": "spec",
    "SPEC_VERSION": "spec",
    "SWEEP_VERSION": "sweep",
    "blob_digest": "blob",
    "expand_sweep": "sweep",
    "get_blob_store": "blob",
    "load_sweep": "sweep",
    "reject_spec_conflicts": "spec",
    "reset_blob_store": "blob",
    "resolve_calib": "spec",
    "resolve_model": "spec",
}

__all__ = ["registry", *sorted(_LAZY)]


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
