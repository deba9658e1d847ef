"""One deliberately-bad fixture per rule, plus its clean twin.

Each test builds a tiny project tree under tmp_path, runs a single rule
through the engine, and asserts on the findings.  The front-end tests
at the bottom drive ``scripts/run_lint.py`` over the same bad trees and
check the acceptance bar: non-zero exit per bad fixture, zero on a
clean tree.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.engine import LintEngine, Project
from repro.analysis.rules.broad_except import BroadExceptRule
from repro.analysis.rules.counter_namespace import (
    CounterNamespaceRule,
    load_declared_metrics,
)
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.guarded_by import GuardedByRule
from repro.analysis.rules.registry_bypass import RegistryBypassRule
from repro.analysis.rules.wire_frames import WireFrameCoverageRule

REPO = Path(__file__).resolve().parents[2]


def make_project(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return Project(tmp_path)


def run_rule(rule, tmp_path, files):
    return LintEngine([rule]).run(make_project(tmp_path, files)).findings


# ---------------------------------------------------------------- wire

WIRE_PY = '''\
def task_message(payload):
    return {"type": "task", "payload": payload}


def result_message(payload):
    return {"type": "result", "payload": payload}
'''

REMOTE_BAD = '''\
class SharedRemotePool:
    def _send_task(self, conn, payload):
        conn.send(task_message(payload))
        conn.send({"type": "cancel"})

    def _reader(self, msg):
        kind = msg.get("type")
        if kind == "result":
            return msg


class _WorkerSession:
    def _reader(self, msg):
        kind = msg.get("type")
        if kind == "task":
            return msg
        if kind == "shutdown":
            return None


class WorkerServer:
    def _report(self, conn, payload):
        conn.send(result_message(payload))
'''

SERVER_OK = '''\
class SearchClient:
    def submit(self, conn):
        conn.send({"type": "submit"})

    def _reader(self, msg):
        kind = msg.get("type")
        if kind == "event":
            return msg


class _ServerSession:
    def _handle(self, conn, msg):
        kind = msg.get("type")
        if kind == "submit":
            conn.send({"type": "event"})


class SearchServer:
    pass
'''


def wire_tree(remote_text):
    return {
        "src/repro/spec/wire.py": WIRE_PY,
        "src/repro/serve/remote.py": remote_text,
        "src/repro/serve/server.py": SERVER_OK,
    }


def test_wire_orphan_op_and_dead_handler(tmp_path):
    findings = run_rule(
        WireFrameCoverageRule(), tmp_path, wire_tree(REMOTE_BAD)
    )
    messages = [f.message for f in findings]
    assert any(
        "orphan op" in m and "'cancel'" in m and "pool->worker" in m
        for m in messages
    )
    assert any(
        "dead handler" in m and "'shutdown'" in m for m in messages
    )
    assert len(findings) == 2


def test_wire_clean_protocol(tmp_path):
    good = REMOTE_BAD.replace(
        '        conn.send({"type": "cancel"})\n', ""
    ).replace(
        '        if kind == "shutdown":\n            return None\n', ""
    )
    assert run_rule(WireFrameCoverageRule(), tmp_path, wire_tree(good)) == []


def test_wire_connection_frames_exempt(tmp_path):
    # a ping send with no handler, and a bye arm with no sender: both ok
    good = REMOTE_BAD.replace(
        '{"type": "cancel"}', '{"type": "ping"}'
    ).replace('"shutdown"', '"bye"')
    assert run_rule(WireFrameCoverageRule(), tmp_path, wire_tree(good)) == []


def test_wire_handler_arm_inside_a_wire_helper(tmp_path):
    """A receiver that calls a wire.py helper holding the arm for a
    frame type handles that type; without the call it is an orphan."""
    good = REMOTE_BAD.replace(
        '        conn.send({"type": "cancel"})\n', ""
    ).replace(
        '        if kind == "shutdown":\n            return None\n',
        "        return hello_refusal(msg)\n",
    ).replace(
        "conn.send(task_message(payload))",
        "conn.send(task_message(payload))\n        conn.send(hello_message())",
    )
    tree = wire_tree(good)
    tree["src/repro/spec/wire.py"] = WIRE_PY + '''

def hello_message():
    return {"type": "hello"}


def hello_refusal(message):
    if message.get("type") != "hello":
        return "expected hello frame"
    return None
'''
    assert run_rule(WireFrameCoverageRule(), tmp_path, tree) == []
    tree["src/repro/serve/remote.py"] = good.replace(
        "        return hello_refusal(msg)\n", ""
    )
    findings = run_rule(WireFrameCoverageRule(), tmp_path, tree)
    assert [f.message for f in findings] == [
        "orphan op: frame type 'hello' is sent on pool->worker but no "
        "receiver dispatcher handles it"
    ]


def test_wire_stale_class_list_is_a_finding(tmp_path):
    tree = wire_tree(REMOTE_BAD)
    tree["src/repro/serve/remote.py"] = REMOTE_BAD.replace(
        "class SharedRemotePool:", "class RenamedPool:"
    )
    findings = run_rule(WireFrameCoverageRule(), tmp_path, tree)
    assert any("stale" in f.message for f in findings)


# ----------------------------------------------------------- guarded-by

GUARDED_BAD = '''\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def bump(self):
        with self._lock:
            self.value += 1

    def reset(self):
        self.value = 0
'''


def test_guarded_by_flags_bare_write(tmp_path):
    findings = run_rule(
        GuardedByRule(), tmp_path, {"src/box.py": GUARDED_BAD}
    )
    assert len(findings) == 1
    assert findings[0].line == 14
    assert "Box.value" in findings[0].message


def test_guarded_by_clean_when_all_writes_guarded(tmp_path):
    good = GUARDED_BAD.replace(
        "    def reset(self):\n        self.value = 0\n",
        "    def reset(self):\n"
        "        with self._lock:\n"
        "            self.value = 0\n",
    )
    assert run_rule(GuardedByRule(), tmp_path, {"src/box.py": good}) == []


def test_guarded_by_init_writes_never_count(tmp_path):
    # the only write outside __init__ is guarded: construction is exempt
    good = GUARDED_BAD.replace(
        "    def reset(self):\n        self.value = 0\n", ""
    )
    assert run_rule(GuardedByRule(), tmp_path, {"src/box.py": good}) == []


def test_guarded_by_condition_alias_guards(tmp_path):
    text = '''\
import threading


class Waiter:
    def __init__(self):
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self.state = "idle"

    def run(self):
        with self._wake:
            self.state = "busy"

    def kill(self):
        self.state = "dead"
'''
    findings = run_rule(GuardedByRule(), tmp_path, {"src/w.py": text})
    assert len(findings) == 1
    assert "Waiter.state" in findings[0].message


# ---------------------------------------------------------- determinism

DETERMINISM_BAD = '''\
import random
import time

import numpy as np


def jitter():
    return time.time() + random.random() + np.random.rand()


def dump(perf):
    for key in perf.snapshot():
        yield key
'''


def test_determinism_flags_entropy_sources(tmp_path):
    findings = run_rule(
        DeterminismRule(), tmp_path, {"src/repro/quant/bad.py": DETERMINISM_BAD}
    )
    messages = " | ".join(f.message for f in findings)
    assert "time.time()" in messages
    assert "random.random" in messages
    assert "numpy.random.rand" in messages
    assert "snapshot()" in messages
    assert len(findings) == 4


def test_determinism_only_watches_engine_packages(tmp_path):
    # the same text outside repro.quant/numerics/parallel is ignored
    assert run_rule(
        DeterminismRule(), tmp_path,
        {"src/repro/obs/ok.py": DETERMINISM_BAD},
    ) == []


def test_determinism_allows_seeded_generators(tmp_path):
    good = '''\
import time

import numpy as np


def sample(seed):
    rng = np.random.default_rng(seed)
    start = time.monotonic()
    return rng.random(), time.monotonic() - start


def dump(perf):
    for key in sorted(perf.snapshot()):
        yield key
'''
    assert run_rule(
        DeterminismRule(), tmp_path, {"src/repro/quant/ok.py": good}
    ) == []


# ------------------------------------------------------ counter-namespace

PERF_MD = '''\
# Perf

## Counter namespaces

| name | kind | meaning |
| --- | --- | --- |
| `lpq.candidates` | counter | candidates scored |
| `lpq.stale` | timer | nothing creates this |

## Other section

| `not.a.metric` | counter | outside the section, ignored |
'''

COUNTER_BAD = '''\
def record(perf):
    perf.counter("lpq.candidates").add(1)
    perf.counter("lpq.bogus").add(1)
    perf.timer("fault.injected")
'''


def test_counter_namespace_both_directions(tmp_path):
    findings = run_rule(
        CounterNamespaceRule(), tmp_path,
        {"docs/perf.md": PERF_MD, "src/repro/lpq.py": COUNTER_BAD},
    )
    messages = " | ".join(f.message for f in findings)
    assert "'lpq.bogus'" in messages          # undeclared, known namespace
    assert "namespace 'fault'" in messages    # undeclared namespace
    assert "stale table row" in messages and "'lpq.stale'" in messages
    assert len(findings) == 3


def test_counter_namespace_kind_mismatch(tmp_path):
    findings = run_rule(
        CounterNamespaceRule(), tmp_path,
        {
            "docs/perf.md": PERF_MD.replace(
                "| `lpq.stale` | timer | nothing creates this |\n", ""
            ),
            "src/repro/lpq.py": (
                'def record(perf):\n'
                '    perf.timer("lpq.candidates")\n'
            ),
        },
    )
    assert len(findings) == 1
    assert "declared as a counter" in findings[0].message


def test_counter_namespace_name_attr_convention(tmp_path):
    # timer_name / cache_name class attributes carry metric names too
    findings = run_rule(
        CounterNamespaceRule(), tmp_path,
        {
            "docs/perf.md": PERF_MD.replace(
                "| `lpq.stale` | timer | nothing creates this |\n", ""
            ),
            "src/repro/ev.py": (
                "class Ev:\n"
                '    timer_name = "lpq.undeclared"\n'
                '    cache_name = "lpq.candidates"\n'
            ),
        },
    )
    messages = " | ".join(f.message for f in findings)
    assert "timer 'lpq.undeclared'" in messages
    assert "cache 'lpq.candidates'" in messages  # kind mismatch vs counter


def test_counter_namespace_missing_docs_is_a_finding(tmp_path):
    findings = run_rule(
        CounterNamespaceRule(), tmp_path, {"src/repro/a.py": "x = 1\n"}
    )
    assert [f.message for f in findings] == ["docs/perf.md is missing"]


def test_load_declared_metrics_scoped_to_section():
    declared = load_declared_metrics(PERF_MD)
    assert set(declared) == {"lpq.candidates", "lpq.stale"}
    assert declared["lpq.candidates"][0] == "counter"


# ----------------------------------------------------------- broad-except

BROAD_BAD = '''\
def swallow(work):
    try:
        work()
    except Exception:
        return None
'''


def test_broad_except_flags_silent_swallow(tmp_path):
    findings = run_rule(
        BroadExceptRule(), tmp_path, {"src/a.py": BROAD_BAD}
    )
    assert len(findings) == 1
    assert "except Exception" in findings[0].message


@pytest.mark.parametrize("clause", ["except:", "except BaseException:"])
def test_broad_except_flags_bare_and_base(tmp_path, clause):
    findings = run_rule(
        BroadExceptRule(), tmp_path,
        {"src/a.py": BROAD_BAD.replace("except Exception:", clause)},
    )
    assert len(findings) == 1


def test_broad_except_reraise_is_fine(tmp_path):
    good = BROAD_BAD.replace("        return None\n", "        raise\n")
    assert run_rule(BroadExceptRule(), tmp_path, {"src/a.py": good}) == []


def test_broad_except_narrow_type_is_fine(tmp_path):
    good = BROAD_BAD.replace("except Exception:", "except ValueError:")
    assert run_rule(BroadExceptRule(), tmp_path, {"src/a.py": good}) == []


def test_broad_except_justified_disable_suppresses(tmp_path):
    text = BROAD_BAD.replace(
        "except Exception:",
        "except Exception:"
        "  # lint: disable=broad-except -- boundary: becomes error result",
    )
    report = LintEngine([BroadExceptRule()]).run(
        make_project(tmp_path, {"src/a.py": text})
    )
    assert report.findings == []
    assert len(report.disabled) == 1


# -------------------------------------------------------- registry-bypass

BYPASS_BAD = '''\
from repro.numerics.formats import PositFormat


def build():
    return PositFormat(8)
'''


def test_registry_bypass_cross_package_import(tmp_path):
    findings = run_rule(
        RegistryBypassRule(), tmp_path,
        {"src/repro/quant/uses.py": BYPASS_BAD},
    )
    assert len(findings) == 1
    assert "PositFormat" in findings[0].message
    assert "'format_family'" in findings[0].message


def test_registry_bypass_relative_import_resolved(tmp_path):
    text = BYPASS_BAD.replace(
        "from repro.numerics.formats import", "from ..numerics.formats import"
    )
    findings = run_rule(
        RegistryBypassRule(), tmp_path,
        {"src/repro/quant/uses.py": text},
    )
    assert len(findings) == 1


def test_registry_bypass_home_package_is_fine(tmp_path):
    assert run_rule(
        RegistryBypassRule(), tmp_path,
        {"src/repro/numerics/helper.py": BYPASS_BAD},
    ) == []


def test_registry_bypass_ignores_unlisted_names(tmp_path):
    text = "from repro.numerics.formats import quantize_tensor\n"
    assert run_rule(
        RegistryBypassRule(), tmp_path,
        {"src/repro/quant/uses.py": text},
    ) == []


# ----------------------------------------------------- run_lint front end


def load_run_lint():
    spec = importlib.util.spec_from_file_location(
        "run_lint_under_test", REPO / "scripts" / "run_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BAD_TREES = {
    "wire-frame-coverage": wire_tree(REMOTE_BAD),
    "guarded-by": {"src/box.py": GUARDED_BAD},
    "determinism": {"src/repro/quant/bad.py": DETERMINISM_BAD},
    "counter-namespace": {
        "docs/perf.md": PERF_MD,
        "src/repro/lpq.py": COUNTER_BAD,
    },
    "broad-except": {"src/a.py": BROAD_BAD},
    "registry-bypass": {"src/repro/quant/uses.py": BYPASS_BAD},
}


@pytest.mark.parametrize("rule_name", sorted(BAD_TREES))
def test_run_lint_exits_nonzero_on_bad_fixture(tmp_path, capsys, rule_name):
    for rel, text in BAD_TREES[rule_name].items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    run_lint = load_run_lint()
    code = run_lint.main(["--root", str(tmp_path), "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert rule_name in {f["rule"] for f in report["findings"]}


def test_run_lint_exits_zero_on_clean_tree(tmp_path, capsys):
    files = {
        "docs/perf.md": PERF_MD.replace(
            "| `lpq.stale` | timer | nothing creates this |\n", ""
        ),
        "src/repro/lpq.py": (
            'def record(perf):\n'
            '    perf.counter("lpq.candidates").add(1)\n'
        ),
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    run_lint = load_run_lint()
    assert run_lint.main(["--root", str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
