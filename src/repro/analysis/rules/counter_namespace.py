"""``counter-namespace``: every perf metric name is declared in docs.

Perf counters are created on first use (``perf.counter("fault.x")``),
so a typo or an undocumented namespace silently becomes a new metric.
The counter-namespace table in ``docs/perf.md`` (section ``## Counter
namespaces``) is the source of truth this rule reads; it checks both
directions:

* every ``counter("...")`` / ``timer("...")`` / ``cache("...")``
  literal in the code (including the ``timer_name``/``cache_name``
  evaluator-class attributes) must appear in the table, with the
  matching kind;
* every table row must correspond to a name the code actually uses —
  stale rows are findings too.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..engine import Finding, Project, Rule
from ._util import str_const

__all__ = ["CounterNamespaceRule", "load_declared_metrics"]

_SECTION = "## Counter namespaces"
_ROW = re.compile(r"^\|\s*`(?P<name>[^`]+)`\s*\|\s*(?P<kind>\w+)\s*\|")

#: evaluator-convention class attributes that carry metric names
_NAME_ATTRS = {
    "timer_name": "timer",
    "counter_name": "counter",
    "cache_name": "cache",
}

_FACTORIES = {"counter": "counter", "timer": "timer", "cache": "cache"}


def load_declared_metrics(perf_md_text: str) -> dict[str, tuple[str, int]]:
    """Name -> (kind, table line) from the docs/perf.md table."""
    declared: dict[str, tuple[str, int]] = {}
    in_section = False
    for lineno, line in enumerate(perf_md_text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.strip() == _SECTION
            continue
        if not in_section:
            continue
        match = _ROW.match(line.strip())
        if match and match.group("kind") in ("counter", "timer", "cache"):
            declared[match.group("name")] = (match.group("kind"), lineno)
    return declared


class CounterNamespaceRule(Rule):
    name = "counter-namespace"
    description = (
        "perf counter/timer/cache names must appear, with matching "
        "kind, in the docs/perf.md counter-namespace table"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        perf_md = project.root / "docs" / "perf.md"
        if not perf_md.exists():
            yield Finding(self.name, "docs/perf.md", 0,
                          "docs/perf.md is missing")
            return
        declared = load_declared_metrics(perf_md.read_text())
        if not declared:
            yield Finding(
                self.name, "docs/perf.md", 0,
                f"no metric rows under the {_SECTION!r} section",
            )
            return
        namespaces = {name.split(".", 1)[0] for name in declared}
        used: dict[str, str] = {}
        for module in project.modules:
            if not module.dotted.startswith("repro."):
                continue
            for node in ast.walk(module.tree):
                name = kind = None
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FACTORIES
                    and node.args
                ):
                    name = str_const(node.args[0])
                    kind = _FACTORIES[node.func.attr]
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in _NAME_ATTRS
                ):
                    name = str_const(node.value)
                    kind = _NAME_ATTRS[node.targets[0].id]
                if name is None:
                    continue
                used[name] = kind
                if name not in declared:
                    ns = name.split(".", 1)[0]
                    hint = (
                        f"add a row to the {_SECTION!r} table"
                        if ns in namespaces
                        else f"namespace {ns!r} is undeclared; add it "
                        f"to the {_SECTION!r} table"
                    )
                    yield module.finding(
                        self.name, node,
                        f"perf {kind} {name!r} is not in the "
                        f"docs/perf.md table ({hint})",
                    )
                elif declared[name][0] != kind:
                    yield module.finding(
                        self.name, node,
                        f"perf {kind} {name!r} is declared as a "
                        f"{declared[name][0]} in docs/perf.md",
                    )
        for name, (kind, lineno) in sorted(declared.items()):
            if name not in used:
                yield Finding(
                    self.name, "docs/perf.md", lineno,
                    f"stale table row: {kind} {name!r} is declared but "
                    "nothing in src/ creates it",
                )
