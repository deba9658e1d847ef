"""``wire-frame-coverage``: no orphan frame ops, no dead handler arms.

The framed wire protocol (:mod:`repro.spec.wire`) is dispatched by hand
in four places — the worker session reader, the remote pool reader, the
daemon session reader, and the search client reader.  Nothing but
convention keeps a newly added ``*_message`` constructor (or a raw
``{"type": ...}`` send) in sync with the ``kind == "..."`` arms on the
other end of the socket.  This rule extracts both sides per channel
from the AST and reports the difference:

* a frame type *sent* on a channel with no handler arm in any of the
  channel's receiver classes is an **orphan op**;
* a handler arm for a type nothing on the channel sends is a **dead
  handler**.

Sends are ``<name>_message(...)`` calls (resolved to their ``"type"``
literal through the constructors in ``repro/spec/wire.py``) and inline
``{"type": "..."}`` dict literals inside the sender classes.  Handler
arms are comparisons of a string literal against ``.get("type")`` (or a
variable assigned from it, or the conventional ``kind`` dispatch
variable), and calls to a ``repro/spec/wire.py`` function that holds
such an arm for a frame type (``hello_refusal``).  Connection-scoped frames every peer may emit or ignore
(``ping``/``pong``/``bye``/``error``) are exempt from both directions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, Project, Rule
from ._util import dotted_name, str_const

__all__ = ["WireFrameCoverageRule", "CHANNELS"]

#: frames any peer may send or pre-emptively handle: keepalive and
#: connection-teardown traffic is connection-scoped, not protocol drift
_CONNECTION_FRAMES = {"ping", "pong", "bye", "error"}

#: the four directed frame channels of the serve stack:
#: (channel name, sender (module, class) specs, receiver specs)
CHANNELS = (
    (
        "pool->worker",
        (("repro.serve.remote", "SharedRemotePool"),),
        (("repro.serve.remote", "_WorkerSession"),),
    ),
    (
        "worker->pool",
        (
            ("repro.serve.remote", "_WorkerSession"),
            ("repro.serve.remote", "WorkerServer"),
        ),
        (("repro.serve.remote", "SharedRemotePool"),),
    ),
    (
        "client->daemon",
        (("repro.serve.server", "SearchClient"),),
        (
            ("repro.serve.server", "_ServerSession"),
            ("repro.serve.server", "SearchServer"),
        ),
    ),
    (
        "daemon->client",
        (
            ("repro.serve.server", "_ServerSession"),
            ("repro.serve.server", "SearchServer"),
        ),
        (("repro.serve.server", "SearchClient"),),
    ),
)

#: names conventionally bound to ``message.get("type")`` in dispatchers
_KIND_NAMES = {"kind"}


def _wire_constructors(wire: ModuleSource) -> dict[str, str]:
    """``<name>_message`` function -> the ``"type"`` literal it emits."""
    table: dict[str, str] = {}
    for node in wire.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if not node.name.endswith("_message") or node.name == "frame_message":
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Dict):
                continue
            for key, value in zip(sub.keys, sub.values):
                if key is not None and str_const(key) == "type":
                    lit = str_const(value)
                    if lit is not None:
                        table[node.name] = lit
    return table


def _wire_checkers(
    wire: ModuleSource, frame_types: set[str]
) -> dict[str, set[str]]:
    """Wire-module function -> the frame types it has handler arms for;
    a receiver calling it handles those types."""
    table: dict[str, set[str]] = {}
    for node in wire.tree.body:
        if isinstance(node, ast.FunctionDef):
            types = frame_types.intersection(_handled_types(node))
            if types:
                table[node.name] = types
    return table


def _find_class(module: ModuleSource, name: str) -> ast.ClassDef | None:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _sent_types(
    cls: ast.ClassDef, constructors: dict[str, str]
) -> dict[str, int]:
    """Frame type -> a line where the class sends it."""
    sent: dict[str, int] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in constructors:
                sent.setdefault(constructors[name], node.lineno)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is not None and str_const(key) == "type":
                    lit = str_const(value)
                    if lit is not None:
                        sent.setdefault(lit, node.lineno)
    return sent


def _is_type_read(node: ast.AST, names: set[str]) -> bool:
    """``X.get("type")`` or a name conventionally bound to it."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr == "get"
            and len(node.args) >= 1
            and str_const(node.args[0]) == "type"
        )
    return isinstance(node, ast.Name) and node.id in names


def _handled_types(cls: ast.AST, checkers=None) -> dict[str, int]:
    """Frame type -> a line where the class (or function) has a handler
    arm for it; a call to one of ``checkers`` counts as its arms."""
    names = set(_KIND_NAMES)
    # names assigned from `<msg>.get("type")` anywhere in the class
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_type_read(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    handled: dict[str, int] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            for lit in sorted((checkers or {}).get(node.func.id, ())):
                handled.setdefault(lit, node.lineno)
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(_is_type_read(op, names) for op in operands):
            continue
        if not all(
            isinstance(op_, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
            for op_ in node.ops
        ):
            continue
        for op in operands:
            lit = str_const(op)
            if lit is not None:
                handled.setdefault(lit, node.lineno)
            elif isinstance(op, (ast.Tuple, ast.Set, ast.List)):
                for elt in op.elts:
                    sub = str_const(elt)
                    if sub is not None:
                        handled.setdefault(sub, node.lineno)
    return handled


class WireFrameCoverageRule(Rule):
    name = "wire-frame-coverage"
    description = (
        "every frame type sent on a wire channel has a handler arm in "
        "the receiving dispatcher, and no dispatcher keeps dead arms"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        wire = project.module("repro.spec.wire")
        if wire is None:
            return
        constructors = _wire_constructors(wire)
        checkers = _wire_checkers(wire, set(constructors.values()))
        for channel, sender_specs, receiver_specs in CHANNELS:
            sent: dict[str, tuple[ModuleSource, int]] = {}
            handled: dict[str, tuple[ModuleSource, int]] = {}
            missing = False
            for specs, out in (
                (sender_specs, sent), (receiver_specs, handled)
            ):
                extract = _sent_types if out is sent else None
                for mod_name, cls_name in specs:
                    module = project.module(mod_name)
                    cls = (
                        _find_class(module, cls_name)
                        if module is not None else None
                    )
                    if cls is None:
                        missing = True
                        continue
                    types = (
                        _sent_types(cls, constructors)
                        if extract else _handled_types(cls, checkers)
                    )
                    for lit, line in types.items():
                        out.setdefault(lit, (module, line))
            if missing:
                # a renamed dispatcher class is itself protocol drift
                yield Finding(
                    self.name, wire.path, 1,
                    f"channel {channel}: dispatcher class list is stale "
                    "(update CHANNELS in repro/analysis/rules/"
                    "wire_frames.py)",
                )
                continue
            for lit in sorted(set(sent) - set(handled) - _CONNECTION_FRAMES):
                module, line = sent[lit]
                yield module.finding(
                    self.name, line,
                    f"orphan op: frame type {lit!r} is sent on "
                    f"{channel} but no receiver dispatcher handles it",
                )
            for lit in sorted(set(handled) - set(sent) - _CONNECTION_FRAMES):
                module, line = handled[lit]
                yield module.finding(
                    self.name, line,
                    f"dead handler: dispatcher arm for {lit!r} on "
                    f"{channel} but nothing sends it",
                )
