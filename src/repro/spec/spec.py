"""`SearchSpec`: the declarative, JSON-round-trippable search request.

One :class:`SearchSpec` fully describes an LPQ search — which model
(by :mod:`repro.spec.registry` name), which calibration batch (a
:class:`CalibSpec` descriptor, not an array), the search and fitness
configs, objective, executor, and seed.  Because every field is either
a plain value or a registered component *name*, a spec serializes to
plain JSON and back bitwise-faithfully: ``spec → to_dict → json.dumps →
json.loads → from_dict → spec`` is the identity, and running the
reconstructed spec reproduces the identical search trajectory.

The legacy keyword entry points (:func:`repro.quant.lpq_quantize`,
:func:`repro.serve.lpq_quantize_many`) construct one of these
internally, so the spec path and the kwarg path are the same code.

>>> import json
>>> from repro.spec import CalibSpec, SearchSpec
>>> from repro.quant import LPQConfig
>>> spec = SearchSpec(
...     model="tiny:resnet", calib=CalibSpec(batch=8, seed=1),
...     config=LPQConfig(population=3, passes=1, cycles=1,
...                      diversity_parents=2, hw_widths=(4, 8)),
...     objective="mse", seed=11)
>>> wire = json.loads(json.dumps(spec.to_dict()))
>>> SearchSpec.from_dict(wire) == spec
True
>>> spec.search_config().seed  # spec-level seed overrides the config's
11
>>> SearchSpec.from_dict({"version": 99, "model": "tiny:resnet"})
Traceback (most recent call last):
    ...
ValueError: unsupported SearchSpec version 99 (supported: 1)
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..parallel.executor import ExecutorConfig
from ..quant.engine import FitnessConfig
from ..quant.genetic import LPQConfig
from . import registry
from .serde import config_from_dict, config_to_dict

__all__ = [
    "SPEC_VERSION",
    "CalibSpec",
    "SearchSpec",
    "reject_spec_conflicts",
    "resolve_calib",
    "resolve_model",
]

#: wire-format version stamped into every serialized spec
SPEC_VERSION = 1

#: sentinel objective name meaning "the paper's FitnessEvaluator"
_DEFAULT_OBJECTIVE = "global_local_contrastive"

#: calibration batches :meth:`CalibSpec.build` keeps per process: a
#: sweep or a daemon's job stream renders one descriptor again and again
CALIB_MEMO_ENTRIES = 1


@functools.lru_cache(maxsize=CALIB_MEMO_ENTRIES)
def _calib_batch(source, batch: int, seed: int):
    # a read-only view: the source's own array stays writable
    images = source(batch, seed).view()
    images.flags.writeable = False
    return images


@dataclass(frozen=True)
class CalibSpec:
    """Calibration-batch descriptor: *how to build* the batch, not the
    batch itself.  ``source`` names a registered calibration source (a
    callable ``(batch, seed) -> ndarray``); the built-in ``synthetic``
    source is :func:`repro.data.calibration_batch`."""

    batch: int = 64
    seed: int = 0
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("calib batch must be positive")

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CalibSpec":
        return config_from_dict(cls, data)

    def build(self):
        """Materialize the calibration batch, as a read-only array.

        A descriptor names its batch (the digest-keyed result store
        relies on that too), so the last :data:`CALIB_MEMO_ENTRIES`
        batches are memoized per process, keyed by the resolved source
        callable, ``batch`` and ``seed``.

        >>> calib = CalibSpec(batch=2, seed=3)
        >>> calib.build() is calib.build(), calib.build().flags.writeable
        (True, False)
        """
        return _calib_batch(
            registry.resolve("calib", self.source), self.batch, self.seed
        )


def reject_spec_conflicts(
    api: str,
    pairs: tuple,
    objective: str = _DEFAULT_OBJECTIVE,
    act_sf_mode: str = "calibrated",
) -> None:
    """Raise if a spec-taking entry point also received search kwargs.

    Shared by every API with a ``spec=`` alternative
    (:func:`repro.quant.lpq_quantize`,
    :func:`repro.serve.lpq_quantize_many`,
    :meth:`repro.serve.SearchScheduler.submit`): ``pairs`` is the
    ``(name, value)`` list of that API's other search arguments, and
    the objective/act-mode sentinels are checked against their
    defaults here so no caller can forget one.
    """
    overlap = [name for name, value in pairs if value is not None]
    if objective != _DEFAULT_OBJECTIVE:
        overlap.append("objective")
    if act_sf_mode != "calibrated":
        overlap.append("act_sf_mode")
    if overlap:
        raise ValueError(
            f"{api} received conflicting argument(s) {overlap}; put "
            "search parameters inside the spec"
        )


def resolve_model(ref: str):
    """Build the registered model ``ref`` (deterministic, eval mode)."""
    model = registry.resolve("model", ref)()
    model.eval()
    return model


def resolve_calib(calib: CalibSpec | dict):
    """Materialize a calibration batch from its descriptor."""
    if isinstance(calib, dict):
        calib = CalibSpec.from_dict(calib)
    return calib.build()


@dataclass(frozen=True)
class SearchSpec:
    """Declarative LPQ search request (the single source of truth).

    ``model`` is a model-registry name (``"zoo:resnet18"``,
    ``"bench:vit"``, ``"tiny:resnet"``, or anything registered via
    :func:`repro.spec.registry.register`); ``calib`` a
    :class:`CalibSpec`.  Both may be ``None`` only for *inline* specs —
    the ones the legacy kwarg shims build around a live model and a
    calibration array — which run fine but refuse to serialize.

    ``seed``, when set, overrides ``config.seed`` (one obvious knob to
    vary across a sweep of otherwise-identical spec files).  ``name``
    is the job name used by :func:`repro.serve.lpq_quantize_many`.
    """

    model: str | None = None
    calib: CalibSpec | None = None
    config: LPQConfig = field(default_factory=LPQConfig)
    fitness: FitnessConfig | None = None
    objective: str = _DEFAULT_OBJECTIVE
    act_sf_mode: str = "calibrated"
    executor: ExecutorConfig | None = None
    seed: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.model is not None and not isinstance(self.model, str):
            raise ValueError(
                "SearchSpec.model must be a registered model name; pass "
                "live model instances through lpq_quantize(model, images)"
            )
        if isinstance(self.calib, dict):
            # accept the JSON form directly (frozen dataclass, hence
            # object.__setattr__); anything else is a usage error now,
            # not an AttributeError later
            object.__setattr__(self, "calib", CalibSpec.from_dict(self.calib))
        elif self.calib is not None and not isinstance(self.calib, CalibSpec):
            raise ValueError(
                "SearchSpec.calib must be a CalibSpec (or its dict "
                f"form), got {type(self.calib).__name__}; pass live "
                "calibration arrays through lpq_quantize(model, images)"
            )
        if self.objective != _DEFAULT_OBJECTIVE:
            # bootstraps the objective registry; unknown names raise here
            try:
                registry.resolve("objective", self.objective)
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
        if self.act_sf_mode not in ("calibrated", "recurrence"):
            raise ValueError(
                f"unknown activation sf mode {self.act_sf_mode!r}"
            )

    # -- derived views ---------------------------------------------------
    @property
    def serializable(self) -> bool:
        """True when the spec references everything by name/descriptor."""
        return self.model is not None and self.calib is not None

    def search_config(self) -> LPQConfig:
        """The effective :class:`LPQConfig` (spec seed applied)."""
        if self.seed is None:
            return self.config
        return dataclasses.replace(self.config, seed=self.seed)

    def job_name(self, default: str) -> str:
        return self.name if self.name is not None else default

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON dict form (raises on inline specs)."""
        if not self.serializable:
            raise ValueError(
                "inline SearchSpec (live model/calibration objects) cannot "
                "be serialized; reference a registered model and a "
                "CalibSpec instead"
            )
        return {
            "version": SPEC_VERSION,
            "model": self.model,
            "calib": self.calib.to_dict(),
            "config": config_to_dict(self.config),
            "fitness": (
                None if self.fitness is None else config_to_dict(self.fitness)
            ),
            "objective": self.objective,
            "act_sf_mode": self.act_sf_mode,
            "executor": (
                None
                if self.executor is None
                else self.executor.to_dict()
            ),
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """Inverse of :meth:`to_dict`; unknown keys/versions raise."""
        if not isinstance(data, dict):
            raise ValueError(
                f"SearchSpec payload must be a dict, got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported SearchSpec version {version} "
                f"(supported: {SPEC_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SearchSpec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if data.get("calib") is not None:
            data["calib"] = CalibSpec.from_dict(data["calib"])
        if data.get("config") is not None:
            data["config"] = config_from_dict(LPQConfig, data["config"])
        else:
            data.pop("config", None)
        if data.get("fitness") is not None:
            data["fitness"] = config_from_dict(FitnessConfig, data["fitness"])
        if data.get("executor") is not None:
            data["executor"] = ExecutorConfig.from_dict(data["executor"])
        return cls(**data)

    def digest(self) -> str:
        """Stable content hash of the search this spec describes.

        SHA-256 over the canonical JSON of :meth:`to_dict`, minus the
        two fields that cannot move a bit: ``executor`` (every backend
        produces the identical trajectory — the stack-wide invariant)
        and ``name`` (a job label).  Two specs with equal digests
        produce bitwise-identical results on hosts with the same numpy
        SIMD level and the same OpenBLAS kernel; float32
        transcendentals and sgemm round differently across those, so a
        different host may find a different search.  The digest does
        not record the host; the numerics fingerprint does.  Every
        stored result carries the fingerprint of the process that
        computed it, and ``scripts/run_search.py --cache-dir``, the
        daemon and the experiment harnesses replay a stored record only
        where the fingerprint matches theirs (otherwise the search
        re-runs); remote workers with another fingerprint are refused.

        >>> from repro.spec import CalibSpec, SearchSpec
        >>> from repro.parallel import ExecutorConfig
        >>> a = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4))
        >>> b = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
        ...                name="other-label",
        ...                executor=ExecutorConfig("process", workers=2))
        >>> a.digest() == b.digest()  # same search, same digest
        True
        >>> a.digest() == SearchSpec(model="tiny:mlp",
        ...                          calib=CalibSpec(batch=8)).digest()
        False
        >>> len(a.digest())
        64
        """
        payload = self.to_dict()
        del payload["executor"]
        del payload["name"]
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> Path:
        """Write the spec to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path) -> "SearchSpec":
        """Read a spec back from a JSON file written by :meth:`dump`."""
        return cls.from_json(Path(path).read_text())

    # -- resolution ------------------------------------------------------
    def build_model(self):
        if self.model is None:
            raise ValueError("inline SearchSpec carries no model reference")
        return resolve_model(self.model)

    def build_calib(self):
        if self.calib is None:
            raise ValueError(
                "inline SearchSpec carries no calibration descriptor"
            )
        return self.calib.build()
