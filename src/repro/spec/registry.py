"""The unified component registry behind declarative search specs.

Every pluggable component family the public API used to select through
an ad-hoc lookup table — objectives (``repro.quant.objectives``), format
families and spec-string parsers (``repro.numerics.registry``), executor
backends (``repro.parallel.executor``), models (``repro.models.zoo``,
``repro.perf.bench``) and calibration sources (``repro.data``) — now
registers itself into one :class:`Registry` per family.  A registry maps
*names* (plain JSON strings) to live components, which is what lets a
:class:`~repro.spec.SearchSpec` serialize to JSON and be reconstructed
anywhere: only names cross the serialization boundary, and any process
that imports the registering module can resolve them.

Registries are ordinary mappings (iteration, ``in``, ``[]`` all work),
so the legacy tables (``OBJECTIVES``, ``FORMAT_FAMILIES``) *are* their
registries — old call sites keep working unchanged.  Lookups that miss
first import the family's ``bootstrap`` modules (the modules that
register the built-in components), so resolution works regardless of
import order:

>>> from repro.spec import registry
>>> registry.names("executor")
('serial', 'process', 'remote')
>>> registry.resolve("objective", "mse")
'MSE'
>>> _ = registry.register("model", "my-model", lambda: None, replace=True)
>>> "my-model" in registry.registry("model")
True
>>> registry.resolve("model", "no-such-model")  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
KeyError: "unknown model 'no-such-model'; registered models: ..."
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping

__all__ = [
    "Registry",
    "register",
    "resolve",
    "names",
    "registry",
    "REGISTRIES",
]


class Registry(Mapping):
    """One named component family: ``name -> component``.

    Components are registered with :meth:`register` (directly or as a
    decorator) and looked up with :meth:`resolve`.  The registry is a
    read-only :class:`~collections.abc.Mapping`, so legacy dict-style
    call sites (``name in TABLE``, ``sorted(TABLE)``, ``TABLE[name]``)
    work against it unchanged.

    ``bootstrap`` lists modules that register this family's built-in
    components; they are imported lazily on the first lookup so the
    registry module itself stays dependency-free (no import cycles, no
    cost until a family is actually used).
    """

    def __init__(self, kind: str, bootstrap: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._bootstrap = tuple(bootstrap)
        self._booted = not bootstrap
        self._entries: dict[str, object] = {}

    # -- registration ----------------------------------------------------
    def register(self, name: str, component=None, *, replace: bool = False):
        """Register ``component`` under ``name``.

        With ``component`` omitted, acts as a decorator.  Re-registering
        a name raises unless ``replace=True`` (guards against two
        components silently fighting over one name).
        """
        if component is None:
            return lambda obj: self.register(name, obj, replace=replace)
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if name in self._entries and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override"
            )
        self._entries[name] = component
        return component

    # -- lookup ----------------------------------------------------------
    def _boot(self) -> None:
        if self._booted:
            return
        self._booted = True  # set first: bootstrap modules look us up
        try:
            for module in self._bootstrap:
                importlib.import_module(module)
        except BaseException:
            # a failed bootstrap must stay retryable — otherwise every
            # later lookup reports "registered <kind>s: <none>" and
            # hides the import error that actually caused it
            self._booted = False
            raise

    def resolve(self, name: str):
        """Return the component registered under ``name``.

        Raises ``KeyError`` naming the family and the registered names,
        so a typo in a JSON spec produces an actionable message.  A name
        already registered resolves without importing the rest of the
        family's bootstrap modules.
        """
        if name not in self._entries:
            self._boot()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered "
                f"{self.kind}s: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, in registration order."""
        self._boot()
        return tuple(self._entries)

    # -- Mapping interface (legacy dict-style call sites) ----------------
    def __getitem__(self, name: str):
        return self.resolve(name)

    def __iter__(self) -> Iterator[str]:
        self._boot()
        return iter(self._entries)

    def __len__(self) -> int:
        self._boot()
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        self._boot()
        return name in self._entries

    def __repr__(self) -> str:
        booted = "" if self._booted else ", unbooted"
        return f"Registry({self.kind!r}, {len(self._entries)} entries{booted})"


#: the component families of the public API; bootstrap modules are the
#: ones whose import registers the built-in members of each family
REGISTRIES: dict[str, Registry] = {
    "objective": Registry("objective", bootstrap=("repro.quant.objectives",)),
    "format_family": Registry(
        "format_family", bootstrap=("repro.numerics.registry",)
    ),
    "format_parser": Registry(
        "format_parser", bootstrap=("repro.numerics.registry",)
    ),
    "executor": Registry("executor", bootstrap=("repro.parallel.executor",)),
    "shared_pool": Registry(
        "shared_pool",
        bootstrap=("repro.serve.pool", "repro.serve.remote"),
    ),
    "model": Registry(
        "model",
        bootstrap=(
            "repro.models.tiny",
            "repro.models.zoo",
            "repro.perf.bench",
        ),
    ),
    "calib": Registry("calib", bootstrap=("repro.data",)),
    "lint_rule": Registry(
        "lint_rule", bootstrap=("repro.analysis.rules",)
    ),
}


def registry(kind: str) -> Registry:
    """The :class:`Registry` for component family ``kind``."""
    try:
        return REGISTRIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown registry {kind!r}; choose from {sorted(REGISTRIES)}"
        ) from None


def register(kind: str, name: str, component=None, *, replace: bool = False):
    """Register ``component`` as ``name`` in the ``kind`` registry."""
    return registry(kind).register(name, component, replace=replace)


def resolve(kind: str, name: str):
    """Resolve ``name`` in the ``kind`` registry."""
    return registry(kind).resolve(name)


def names(kind: str) -> tuple[str, ...]:
    """Registered names of the ``kind`` registry."""
    return registry(kind).names()
