"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the repo's own test run does not
collect it: the smoke runs below take a few minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from layers import LayerView, layer_metrics, per_layer_specs  # noqa: E402
from tracer import KINDS, Recording, Tracer, attribute  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed():
    names = list(run.WORKLOAD_NAMES) + list(run.END_TO_END) + [
        name for name, _, _ in per_layer_specs()
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    units = [u for u, _ in run.END_TO_END.values()] + [
        u for _, u, _ in per_layer_specs()
    ]
    for unit in units:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_runner():
    bench = _bench_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in bench["per_layer"]}
    assert per_layer == {n: (u, b) for n, u, b in per_layer_specs()}


def _span(kind, start, end, parent=-1):
    return [kind, kind, start, end, parent, None, None, False]


def test_attribution_partitions_the_wall_time():
    # thread A: quant [0, 10] containing nn [2, 6] containing numerics
    # [3, 4]; thread B: a server wait [1, 12] overlapping everything
    a = [_span("quant.evaluate", 0.0, 10.0), _span("nn.conv", 2.0, 6.0, 0),
         _span("numerics.quantize", 3.0, 4.0, 1)]
    b = [_span("server.wait", 1.0, 12.0)]
    rec = Recording([("a", a), ("b", b)], 0.0, 15.0)
    totals, residual = attribute(rec)
    assert totals["numerics.quantize"] == 1.0
    assert totals["nn.conv"] == 3.0
    assert totals["quant.evaluate"] == 6.0
    assert totals["server.wait"] == 2.0  # only where nothing leafier ran
    assert residual == 3.0
    assert sum(totals.values()) + residual == rec.wall


def test_traced_search_layers_sum_to_wall():
    from repro.perf import get_perf
    from repro.perf.counters import diff_snapshots
    from repro.quant import LPQConfig, lpq_quantize
    from repro.spec import CalibSpec, SearchSpec

    spec = SearchSpec(model="tiny:resnet", calib=CalibSpec(batch=4, seed=1),
                      config=LPQConfig(population=3, passes=1, cycles=1,
                                       diversity_parents=2, hw_widths=(4, 8)),
                      seed=3)
    expected = lpq_quantize(spec=spec)
    with Tracer() as tracer:
        before = get_perf().snapshot()
        tracer.start()
        result = lpq_quantize(spec=spec)
        rec = tracer.stop()
    assert result.solution == expected.solution  # tracing moves no bit
    assert result.fitness == expected.fitness
    view = LayerView(rec, diff_snapshots(get_perf().snapshot(), before))
    values, absent = layer_metrics(view, view, tracer.present_kinds)
    assert not absent and not tracer.missing
    layers = sum(v for name, (v, _) in values.items()
                 if name.startswith("layers."))
    assert abs(layers - values["trace.wall_s"][0]) < 1e-9 * rec.wall + 1e-12
    assert values["nn.conv_s"][0] > 0
    assert values["numerics.quantize_calls"][0] > 0
    assert values["quant.evaluations"][0] == result.evaluations


def test_missing_wrap_target_is_reported_not_fatal():
    targets = [("repro.parallel.executor:NoSuchExecutor.evaluate_batch",
                "pool.batch", None, None),
               ("repro.nn.functional:conv2d_forward", "nn.conv", None, None)]
    with Tracer(targets) as tracer:
        tracer.start()
        rec = tracer.stop()
    assert tracer.missing == [targets[0][0]]
    view = LayerView(rec, {})
    values, absent = layer_metrics(view, view, tracer.present_kinds)
    assert "pool.batches" in absent and "pool.batch_s" in absent
    assert "nn.conv_s" in values and "trace.wall_s" in values
    assert set(KINDS) >= {"pool.batch", "nn.conv"}


def test_failed_job_injection_is_counted(tmp_path):
    from workloads import DaemonSweep, check_ops

    wl = DaemonSweep(seed=5, scratch=tmp_path, fail_at=1)
    wl.setup()
    try:
        p = wl.run_pass(counts=[3, 1])
    finally:
        wl.close()
    keys = {op.key for op in p.ops if op.kind == "fresh" and not op.error}
    attempted, failures = check_ops([p], wl.references(keys),
                                    wl.fresh_records)
    assert attempted == len(p.ops)
    assert len(failures) == 1 and "ServerError" in failures[0], failures
    assert 0 < len(failures) / attempted < 1


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_smoke_run_of_each_workload():
    bench = _bench_json()
    e2e = {m["name"] for m in bench["end_to_end"]}
    for workload in run.WORKLOAD_NAMES:
        result = _run(workload, 0)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == e2e
        assert all(m["value"] > 0 for m in result["metrics"].values())
    traced = _run("daemon_sweep", 1)
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
