"""Per-layer metrics of a traced pass.

Every metric is derived from the spans of :mod:`tracer` plus the perf
counter deltas the program already keeps (``repro.perf.get_perf()``).
``*_s`` metrics are attributed self time (see :func:`tracer.attribute`);
``*_ms_p50``/``*_ms_p90`` are percentiles of single-call durations;
counts and ratios are over the traced pass.

``compute`` metrics (numerics, nn, quant) are taken from the pass that
ran the candidate evaluations in this process: the traced pass itself,
or, when pool or fleet processes evaluated them, a serial re-run of the
same specs, because work in other processes cannot be wrapped from
here.
"""

from __future__ import annotations

import numpy as np

from tracer import (
    END, ERROR, EXTRA, KIND, KINDS, LAYERS, NAME, PARENT, START,
    attribute, layer_of,
)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class LayerView:
    """One traced pass, indexed for the metric functions below."""

    def __init__(self, recording, perf_delta: dict, workers: int = 1):
        self.recording = recording
        self.attributed, self.residual = attribute(recording)
        self.perf = perf_delta
        self.workers = workers
        #: (span, parent span or None) over every thread
        self.spans = []
        for _, spans in recording.threads:
            for span in spans:
                parent = span[PARENT]
                self.spans.append((span, spans[parent] if parent >= 0
                                   else None))

    # -- span queries -----------------------------------------------------
    def select(self, kind=None, name=None, top=False):
        """Spans of ``kind`` (and qualname suffix ``name``); ``top``
        keeps only those not nested in a span of the same layer."""
        out = []
        for span, parent in self.spans:
            if kind is not None and span[KIND] != kind:
                continue
            if name is not None and not span[NAME].endswith(name):
                continue
            if top and parent is not None \
                    and layer_of(parent[KIND]) == layer_of(span[KIND]):
                continue
            out.append(span)
        return out

    def self_s(self, *kinds) -> float:
        return sum(self.attributed.get(k, 0.0) for k in kinds)

    def layer_s(self, layer: str) -> float:
        return sum(v for k, v in self.attributed.items()
                   if layer_of(k) == layer)

    def ms(self, spans, q: float) -> float:
        return _pct([(s[END] - s[START]) * 1e3 for s in spans], q)

    # -- perf-counter queries ---------------------------------------------
    def counter(self, name: str) -> int:
        return self.perf.get("counters", {}).get(name, 0)

    def counters_prefixed(self, prefix: str) -> int:
        return sum(v for k, v in self.perf.get("counters", {}).items()
                   if k.startswith(prefix))

    def hit_ratio(self, cache: str) -> float:
        stats = self.perf.get("caches", {}).get(cache)
        if not stats or not stats["hits"] + stats["misses"]:
            return 0.0
        return stats["hits"] / (stats["hits"] + stats["misses"])

    def timer_s(self, *names) -> float:
        timers = self.perf.get("timers", {})
        return sum(timers.get(n, {}).get("total_s", 0.0) for n in names)

    # -- derived ------------------------------------------------------------
    def evaluations(self):
        return self.select("quant.evaluate", name="__call__")

    def computed_ratio(self) -> float:
        calls = self.evaluations()
        computed = sum(1 for s in calls if s[EXTRA])
        return computed / len(calls) if calls else 0.0

    def pool_chunks(self) -> int:
        batched = sum(s[EXTRA] or 0 for s in
                      self.select("pool.batch", name="evaluate_batch"))
        return (batched + len(self.select("pool.submit"))
                + len(self.select("remote.submit")))

    def worker_util(self) -> float:
        batches = self.select("pool.batch", name="evaluate_batch")
        wall = sum(s[END] - s[START] for s in batches)
        if not wall:
            return 0.0
        busy = self.timer_s("fitness.evaluate", "objective.evaluate")
        return busy / (self.workers * wall)

    def job_phases(self, q: float = 50):
        """Queue wait and run time per job, from the journal appends
        (``submitted`` → ``running`` → ``done``)."""
        marks: dict = {}
        for span in self.select("store.journal"):
            if span[EXTRA]:
                op, job = span[EXTRA]
                marks.setdefault(job, {}).setdefault(op, span[START])
        waits, runs = [], []
        for ops in marks.values():
            if {"submitted", "running", "done"} <= set(ops):
                waits.append((ops["running"] - ops["submitted"]) * 1e3)
                runs.append((ops["done"] - ops["running"]) * 1e3)
        return _pct(waits, q), _pct(runs, q)


# (name, unit, better, span kinds it needs, compute-side, value)
_NN_KINDS = ("nn.conv", "nn.linear", "nn.norm", "nn.gelu", "nn.attention")
PER_LAYER = [
    ("numerics.quantize_s", "s", "lower", ("numerics.quantize",), True,
     lambda v: v.self_s("numerics.quantize")),
    ("numerics.quantize_calls", "count", "lower", ("numerics.quantize",),
     True, lambda v: len(v.select("numerics.quantize", top=True))),
    ("numerics.quantize_melems", "Melem", "lower", ("numerics.quantize",),
     True, lambda v: sum(s[EXTRA] or 0 for s in
                         v.select("numerics.quantize", top=True)) / 1e6),
    ("numerics.lut_hit_ratio", "ratio", "higher", (), True,
     lambda v: v.hit_ratio("numerics.lut_cache")),
    ("nn.conv_s", "s", "lower", ("nn.conv",), True,
     lambda v: v.self_s("nn.conv")),
    ("nn.linear_s", "s", "lower", ("nn.linear",), True,
     lambda v: v.self_s("nn.linear")),
    ("nn.gelu_s", "s", "lower", ("nn.gelu",), True,
     lambda v: v.self_s("nn.gelu")),
    ("nn.norm_s", "s", "lower", ("nn.norm",), True,
     lambda v: v.self_s("nn.norm")),
    ("nn.attention_s", "s", "lower", ("nn.attention",), True,
     lambda v: v.self_s("nn.attention")),
    ("nn.forward_calls", "count", "lower", _NN_KINDS, True,
     lambda v: sum(len(v.select(k)) for k in _NN_KINDS)),
    ("nn.layers_replayed", "count", "higher", (), True,
     lambda v: v.counter("replay.layers_reused")),
    ("quant.evaluate_ms_p50", "ms", "lower", ("quant.evaluate",), True,
     lambda v: v.ms([s for s in v.evaluations() if s[EXTRA]], 50)),
    ("quant.evaluate_ms_p90", "ms", "lower", ("quant.evaluate",), True,
     lambda v: v.ms([s for s in v.evaluations() if s[EXTRA]], 90)),
    ("quant.evaluations", "count", "higher", ("quant.evaluate",), True,
     lambda v: len(v.evaluations())),
    ("quant.computed_ratio", "ratio", "lower", ("quant.evaluate",), True,
     LayerView.computed_ratio),
    ("quant.step_s", "s", "lower", ("quant.step",), True,
     lambda v: v.self_s("quant.step")),
    ("quant.stats_s", "s", "lower", ("quant.stats",), True,
     lambda v: v.self_s("quant.stats")),
    ("quant.objective_s", "s", "lower", ("quant.objective",), True,
     lambda v: v.self_s("quant.objective")),
    ("quant.weight_cache_hit_ratio", "ratio", "higher", (), True,
     lambda v: v.hit_ratio("quant.weight_cache")),
    ("quant.act_cache_hit_ratio", "ratio", "higher", (), True,
     lambda v: v.hit_ratio("quant.act_cache")),
    ("quant.fitness_memo_hit_ratio", "ratio", "higher", (), True,
     lambda v: v.hit_ratio("fitness.memo")),
    ("pool.start_s", "s", "lower", ("pool.start",), False,
     lambda v: v.self_s("pool.start")),
    ("pool.batch_s", "s", "lower", ("pool.batch",), False,
     lambda v: v.self_s("pool.batch")),
    ("pool.batches", "count", "lower", ("pool.batch",), False,
     lambda v: len(v.select("pool.batch", name="evaluate_batch"))),
    ("pool.chunks", "count", "lower", ("pool.batch", "pool.submit"), False,
     LayerView.pool_chunks),
    ("pool.worker_util", "ratio", "higher", ("pool.batch",), False,
     LayerView.worker_util),
    ("scheduler.run_s", "s", "lower", ("scheduler.run",), False,
     lambda v: v.self_s("scheduler.run")),
    ("scheduler.batches", "count", "lower", (), False,
     lambda v: v.counter("serve.batches")),
    ("scheduler.chunks", "count", "lower", (), False,
     lambda v: v.counter("serve.chunks")),
    ("server.submit_ms_p50", "ms", "lower", ("server.submit",), False,
     lambda v: v.ms(v.select("server.submit"), 50)),
    ("server.queue_wait_ms_p50", "ms", "lower", ("store.journal",), False,
     lambda v: v.job_phases()[0]),
    ("server.run_ms_p50", "ms", "lower", ("store.journal",), False,
     lambda v: v.job_phases()[1]),
    ("store.journal_appends", "count", "lower", ("store.journal",), False,
     lambda v: len(v.select("store.journal"))),
    ("store.journal_append_ms_p50", "ms", "lower", ("store.journal",),
     False, lambda v: v.ms(v.select("store.journal"), 50)),
    ("store.result_writes", "count", "lower", ("store.write",), False,
     lambda v: len(v.select("store.write"))),
    ("store.result_write_ms_p50", "ms", "lower", ("store.write",), False,
     lambda v: v.ms(v.select("store.write"), 50)),
    ("store.result_loads", "count", "lower", ("store.load",), False,
     lambda v: len(v.select("store.load"))),
    ("store.result_hit_ratio", "ratio", "higher", (), False,
     lambda v: v.hit_ratio("serve.results")),
    ("remote.connect_ms_p50", "ms", "lower", ("remote.connect",), False,
     lambda v: v.ms(v.select("remote.connect"), 50)),
    ("remote.connects", "count", "lower", ("remote.connect",), False,
     lambda v: len(v.select("remote.connect"))),
    ("remote.connect_failures", "count", "lower", ("remote.connect",),
     False, lambda v: sum(1 for s in v.select("remote.connect")
                          if s[ERROR])),
    ("remote.fault_events", "count", "lower", (), False,
     lambda v: v.counters_prefixed("fault.")),
    ("wire.frames", "count", "lower", ("wire.encode",), False,
     lambda v: len(v.select("wire.encode", name="frame_message"))),
    ("wire.encode_s", "s", "lower", ("wire.encode",), False,
     lambda v: v.self_s("wire.encode")),
    ("wire.decode_s", "s", "lower", ("wire.decode",), False,
     lambda v: v.self_s("wire.decode")),
    ("wire.bytes_sent", "B", "lower", (), False,
     lambda v: v.counter("transport.bytes_sent")),
    ("wire.bytes_saved", "B", "higher", (), False,
     lambda v: v.counter("transport.bytes_saved")),
    ("blob.hit_ratio", "ratio", "higher", (), False,
     lambda v: v.hit_ratio("blob")),
    ("obs.samples", "count", "lower", ("obs.sample",), False,
     lambda v: len(v.select("obs.sample"))),
    ("obs.sample_ms_p50", "ms", "lower", ("obs.sample",), False,
     lambda v: v.ms(v.select("obs.sample"), 50)),
] + [
    (f"layers.{layer}_s", "s", "lower",
     tuple(k for k in KINDS if layer_of(k) == layer), False,
     lambda v, layer=layer: v.layer_s(layer))
    for layer in LAYERS
] + [
    ("layers.residual_s", "s", "lower", (), False, lambda v: v.residual),
    ("trace.wall_s", "s", "lower", (), False,
     lambda v: v.recording.wall),
]

#: overhead metrics computed by the runner from the two passes
OVERHEAD = [
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric."""
    return [m[:3] for m in PER_LAYER] + OVERHEAD


def layer_metrics(main: LayerView, compute: LayerView,
                  present_kinds: set) -> tuple[dict, list]:
    """``({name: (value, unit)}, [absent metric names])``.

    A metric is absent when every span kind it needs lost its wrap
    target (the code it measured is gone).
    """
    values, absent = {}, []
    for name, unit, _, needs, compute_side, fn in PER_LAYER:
        if needs and not present_kinds.intersection(needs):
            absent.append(name)
            continue
        view = compute if compute_side else main
        values[name] = (float(fn(view)), unit)
    return values, absent
