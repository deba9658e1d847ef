"""Span tracing of the repro layers, installed from outside the program.

:class:`Tracer` wraps the public functions of each layer at every place
they are reachable: module-level functions are replaced in every
``repro.*`` module that imported them, methods are replaced on their
class.  A wrapper records one span per call — kind, qualified name,
start, end, parent span, thread and the job id the caller set — into a
per-thread buffer held in memory.  Nothing inside ``src/`` changes and
an uninstalled tracer leaves every original object back in place.

A target that no longer exists (a deleted class or function) is listed
in :attr:`Tracer.missing`; the metrics that depend only on missing
targets are reported absent and everything else still works.

:func:`attribute` turns the spans of a recording into a partition of
its wall time: every instant goes to the innermost span active at that
instant, and when several threads are inside spans at once, to the
span of the most leafward layer (``LAYERS`` order).  On one thread this
is the classic self time (span minus the child spans it covers); across
threads it keeps the layers plus ``residual`` summing to the wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

import numpy as np

#: layers in attribution priority, most leafward first
LAYERS = (
    "numerics", "nn", "quant", "spec", "store", "obs",
    "pool", "remote", "scheduler", "server",
)

#: span kind → layer (kinds not listed map to their dotted prefix)
_KIND_LAYER = {"wire.encode": "spec", "wire.decode": "spec", "blob": "spec"}


def layer_of(kind: str) -> str:
    return _KIND_LAYER.get(kind, kind.split(".", 1)[0])


def _size(x) -> int:
    return int(np.size(x))


def _numerics_elems(args, kwargs, result, before):
    first = args[0] if args else None
    if isinstance(first, (list, tuple)):  # lp_quantize_many
        return sum(_size(t) for t in first)
    return _size(first)


def _computed_before(args, kwargs):
    return getattr(args[0], "computed_evaluations", 0)


def _computed_delta(args, kwargs, result, before):
    return getattr(args[0], "computed_evaluations", 0) - before


def _batch_len(args, kwargs, result, before):
    return len(args[1]) if len(args) > 1 else 0


def _journal_op(args, kwargs, result, before):
    return (args[1], args[2]) if len(args) > 2 else None


#: (``module:qualname``, span kind, before-probe, after-probe); the shared
#: serial/process pools are listed so pool metrics keep working if
#: ``lpq_quantize`` moves onto the scheduler
TARGETS = (
    ("repro.numerics.logposit:lp_quantize", "numerics.quantize",
     None, _numerics_elems),
    ("repro.numerics.logposit:lp_quantize_many", "numerics.quantize",
     None, _numerics_elems),
    ("repro.nn.functional:conv2d_forward", "nn.conv", None, None),
    ("repro.nn.layers:Linear.forward", "nn.linear", None, None),
    ("repro.nn.layers:LayerNorm.forward", "nn.norm", None, None),
    ("repro.nn.layers:BatchNorm2d.forward", "nn.norm", None, None),
    ("repro.nn.layers:GELU.forward", "nn.gelu", None, None),
    ("repro.nn.attention:MultiHeadSelfAttention.forward", "nn.attention",
     None, None),
    ("repro.quant.engine:IncrementalEvaluator.__call__", "quant.evaluate",
     _computed_before, _computed_delta),
    ("repro.quant.engine:IncrementalEvaluator.evaluate_many",
     "quant.evaluate", None, None),
    ("repro.quant.genetic:LPQEngine.initialize", "quant.step", None, None),
    ("repro.quant.genetic:LPQEngine.step", "quant.step", None, None),
    ("repro.quant.quantizer:collect_layer_stats", "quant.stats", None, None),
    ("repro.quant.fitness:contrastive_objective", "quant.objective",
     None, None),
    ("repro.quant.pooling:kurtosis3", "quant.objective", None, None),
    ("repro.parallel.evaluator:PopulationEvaluator.evaluate_many",
     "pool.batch", None, None),
    ("repro.parallel.executor:ProcessExecutor.evaluate_batch", "pool.batch",
     None, _batch_len),
    ("repro.parallel.executor:ProcessExecutor.__init__", "pool.start",
     None, None),
    ("repro.parallel.executor:ProcessExecutor.close", "pool.close",
     None, None),
    ("repro.serve.pool:make_shared_pool", "pool.start", None, None),
    ("repro.serve.pool:SharedSerialPool.submit", "pool.submit", None, None),
    ("repro.serve.pool:SharedProcessPool.submit", "pool.submit", None, None),
    ("repro.serve.pool:SharedSerialPool.close", "pool.close", None, None),
    ("repro.serve.pool:SharedProcessPool.close", "pool.close", None, None),
    ("repro.serve.remote:SharedRemotePool.start", "remote.connect",
     None, None),
    ("repro.serve.remote:SharedRemotePool.submit", "remote.submit",
     None, None),
    ("repro.serve.remote:SharedRemotePool.close", "remote.close",
     None, None),
    ("repro.serve.scheduler:SearchScheduler.submit", "scheduler.submit",
     None, None),
    ("repro.serve.scheduler:SearchScheduler.run", "scheduler.run",
     None, None),
    ("repro.serve.server:SearchClient.submit", "server.submit", None, None),
    ("repro.serve.server:SearchClient.wait", "server.wait", None, None),
    ("repro.serve.store:Journal.append", "store.journal", None, _journal_op),
    ("repro.serve.store:ResultStore.store", "store.write", None, None),
    ("repro.serve.store:ResultStore.load", "store.load", None, None),
    ("repro.spec.wire:frame_message", "wire.encode", None, None),
    ("repro.spec.wire:read_frame", "wire.decode", None, None),
    ("repro.spec.serde:encode_array", "wire.encode", None, None),
    ("repro.spec.serde:decode_array", "wire.decode", None, None),
    ("repro.spec.blob:BlobStore.put", "blob", None, None),
    ("repro.spec.blob:BlobStore.get", "blob", None, None),
    ("repro.obs.emitter:MetricsEmitter.sample", "obs.sample", None, None),
    ("repro.obs.timeseries:TimeSeriesStore.append", "obs.append",
     None, None),
    ("repro.obs.timeseries:merge_samples", "obs.merge", None, None),
)

#: every span kind, in attribution order (layer priority, then name)
KINDS = tuple(sorted(
    {kind for _, kind, _, _ in TARGETS},
    key=lambda k: (LAYERS.index(layer_of(k)), k),
))

# span record fields
KIND, NAME, START, END, PARENT, JOB, EXTRA, ERROR = range(8)


class _TimedStream:
    """Read-side proxy for ``read_frame``: notes when the first bytes of
    a frame arrived, so the span covers decoding, not the idle wait for
    the peer to send."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.arrived: float | None = None

    def read(self, n: int = -1):
        data = self._stream.read(n)
        if self.arrived is None:
            self.arrived = time.perf_counter()
        return data


class Recording:
    """The spans of one traced pass plus its wall-clock window."""

    def __init__(self, threads: list, t0: float, t1: float) -> None:
        #: one ``(thread name, [span, ...])`` per thread that recorded
        self.threads = threads
        self.t0 = t0
        self.t1 = t1

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "threads": [
                {
                    "thread": name,
                    "spans": [
                        {"kind": s[KIND], "name": s[NAME],
                         "start": s[START] - self.t0,
                         "end": s[END] - self.t0, "parent": s[PARENT],
                         "job": s[JOB], "error": s[ERROR]}
                        for s in spans
                    ],
                }
                for name, spans in self.threads
            ],
        }


class Tracer:
    """Install span wrappers around the ``TARGETS`` (or a custom list).

    Wrappers are inert until :meth:`start`; :meth:`stop` returns the
    :class:`Recording` of everything recorded since.  Recording is
    switched off in forked children, whose spans could never reach this
    process anyway.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.missing: list[str] = []
        self.present_kinds: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list = []
        self._generation = 0
        self._on = False
        self._pid = os.getpid()
        self._t0 = 0.0

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Tracer":
        for target, kind, before, after in self.targets:
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            self.present_kinds.add(kind)
            if attr == "read_frame":
                wrapper = self._wrap_read_frame(original, kind, qualname)
            else:
                wrapper = self._wrap(original, kind, qualname, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                # every repro module that imported the function by name
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, wrapper)
        os.register_at_fork(after_in_child=self._forked)
        return self

    def uninstall(self) -> None:
        self._on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _forked(self) -> None:
        if os.getpid() != self._pid:
            self._on = False

    # -- recording --------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            self._generation += 1
            self._buffers = []
        self._t0 = time.perf_counter()
        self._on = True

    def stop(self) -> Recording:
        t1 = time.perf_counter()
        self._on = False
        with self._lock:
            threads = [(name, spans) for name, spans, _ in self._buffers]
        return Recording(threads, self._t0, t1)

    def set_job(self, job: str | None) -> None:
        """Tag the calling thread's next spans with ``job``."""
        self._local.job = job

    def _buffer(self):
        local = self._local
        if getattr(local, "generation", None) != self._generation:
            local.generation = self._generation
            local.spans, local.stack = [], []
            with self._lock:
                self._buffers.append(
                    (threading.current_thread().name, local.spans,
                     local.stack)
                )
        return local.spans, local.stack

    def _wrap(self, fn, kind, name, before, after):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            spans, stack = tracer._buffer()
            rec = [kind, name, 0.0, 0.0, stack[-1] if stack else -1,
                   getattr(tracer._local, "job", None), None, False]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args, kwargs) if before is not None else None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[EXTRA] = after(args, kwargs, result, state)
            return result

        return wrapper

    def _wrap_read_frame(self, fn, kind, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(stream, *args, **kwargs):
            if not tracer._on:
                return fn(stream, *args, **kwargs)
            proxy = _TimedStream(stream)
            result = fn(proxy, *args, **kwargs)
            end = time.perf_counter()
            if proxy.arrived is not None and result is not None:
                spans, stack = tracer._buffer()
                spans.append([kind, name, proxy.arrived, end,
                              stack[-1] if stack else -1,
                              getattr(tracer._local, "job", None), None,
                              False])
            return result

        return wrapper


# -- attribution -----------------------------------------------------------
def _self_intervals(spans: list):
    """Per span, the parts of its interval no child span covers.

    Yields ``(start, end, kind)``; spans of one thread nest properly, so
    subtracting the direct children is enough.
    """
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(idx)
    for idx, span in enumerate(spans):
        cursor = span[START]
        for child in sorted(children.get(idx, ()),
                            key=lambda c: spans[c][START]):
            c_start, c_end = spans[child][START], spans[child][END]
            if c_start > cursor:
                yield cursor, c_start, span[KIND]
            cursor = max(cursor, c_end)
        if span[END] > cursor:
            yield cursor, span[END], span[KIND]


def attribute(recording: Recording, kinds=KINDS) -> tuple[dict, float]:
    """Partition the recording's wall time over span kinds.

    Returns ``({kind: seconds}, residual_seconds)``; the values sum to
    ``recording.wall`` up to float rounding.
    """
    rank = {kind: i for i, kind in enumerate(kinds)}
    events: list[tuple[float, int, int]] = []
    t0, t1 = recording.t0, recording.t1
    for _, spans in recording.threads:
        for start, end, kind in _self_intervals(spans):
            start, end = max(start, t0), min(end, t1)
            if end > start:
                events.append((start, 1, rank[kind]))
                events.append((end, -1, rank[kind]))
    events.sort()
    totals = [0.0] * len(kinds)
    active = [0] * len(kinds)
    residual = 0.0
    prev = t0
    for when, delta, r in events:
        if when > prev:
            top = next((i for i, n in enumerate(active) if n), None)
            if top is None:
                residual += when - prev
            else:
                totals[top] += when - prev
            prev = when
        active[r] += delta
    residual += t1 - prev
    return dict(zip(kinds, totals)), residual
