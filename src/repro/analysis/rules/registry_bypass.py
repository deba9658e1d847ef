"""``registry-bypass``: resolve pluggable components through registries.

Where a :mod:`repro.spec.registry` family exists (executors, shared
pools, format families, objectives), importing a concrete
implementation across subsystem boundaries re-couples what the registry
decoupled: the importing module works for the built-in but breaks for
every registered extension, and spec JSON stops being the single
switch.  The rule flags ``from repro.X import ConcreteImpl`` (absolute
or relative) whenever the importing module lives outside the
implementation's home package.  The sanctioned paths are
``registry.resolve(family, name)``, ``ExecutorConfig``,
``make_shared_pool`` and ``calibrated_format``/``make_format``.

Registry *factories* that must import the concrete class they construct
(e.g. the deferred ``RemoteExecutor`` import inside the ``remote``
executor factory) carry a disable comment naming that role.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, Rule

__all__ = ["RegistryBypassRule", "CONCRETE_IMPLS"]

#: concrete implementation name -> (registry family, home packages that
#: may import it directly).  Everything else goes through the registry.
CONCRETE_IMPLS: dict[str, tuple[str, tuple[str, ...]]] = {
    # executor family (ExecutorConfig / registry("executor"))
    "SerialExecutor": ("executor", ("repro.parallel",)),
    "ProcessExecutor": ("executor", ("repro.parallel",)),
    "RemoteExecutor": ("executor", ("repro.serve",)),
    # shared_pool family (make_shared_pool / registry("shared_pool"))
    "SharedSerialPool": ("shared_pool", ("repro.serve",)),
    "SharedProcessPool": ("shared_pool", ("repro.serve",)),
    "SharedRemotePool": ("shared_pool", ("repro.serve",)),
    # format_family (calibrated_format / make_format)
    "IntFormat": ("format_family", ("repro.numerics",)),
    "MiniFloatFormat": ("format_family", ("repro.numerics",)),
    "AdaptivFloatFormat": ("format_family", ("repro.numerics",)),
    "PositFormat": ("format_family", ("repro.numerics",)),
    "LNSFormat": ("format_family", ("repro.numerics",)),
    "FlintFormat": ("format_family", ("repro.numerics",)),
    "LogPositFormat": ("format_family", ("repro.numerics",)),
    # objective family (registry("objective") / FitnessConfig.objective)
    "OutputObjectiveEvaluator": ("objective", ("repro.quant", "repro.perf")),
}


def _resolve_relative(module: ModuleSource, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ImportFrom refers to."""
    if node.level == 0:
        return node.module or ""
    parts = module.dotted.split(".")
    # level 1 = current package; the module itself is parts[:-1]'s child
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _package(module: ModuleSource) -> str:
    """Top two components of the module's dotted path (repro.serve)."""
    return ".".join(module.dotted.split(".")[:2])


class RegistryBypassRule(Rule):
    name = "registry-bypass"
    description = (
        "concrete registry-family implementations are imported only "
        "inside their home package; everyone else resolves by name"
    )

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        home_pkg = _package(module) if module.dotted.startswith(
            "repro."
        ) else ""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = _resolve_relative(module, node)
            if not target.startswith("repro."):
                continue
            for alias in node.names:
                entry = CONCRETE_IMPLS.get(alias.name)
                if entry is None:
                    continue
                family, homes = entry
                if any(
                    target == h or target.startswith(h + ".")
                    for h in homes
                ) is False:
                    continue  # not the implementation's real module
                if any(
                    home_pkg == h or home_pkg.startswith(h + ".")
                    for h in homes
                ):
                    continue
                yield module.finding(
                    self.name, node,
                    f"direct import of {alias.name} bypasses the "
                    f"{family!r} registry; resolve it by name "
                    "(or move the import into a registered factory)",
                )
