"""Perf-counter primitives: counters, wall-clock timers, cache stats.

The hot paths of the LPQ search (quantized-weight cache, prefix-reuse
forward passes) are instrumented through a
:class:`PerfRegistry` so every run can report where time went and how
well each cache performed.  Instrumentation must never change behaviour:
all primitives are plain accumulators with no side effects on the code
they observe.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["Counter", "Timer", "CacheStats", "PerfRegistry", "diff_snapshots"]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Timer:
    """Accumulated wall-clock time over any number of timed sections."""

    __slots__ = ("name", "total", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0

    @contextmanager
    def time(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.total += time.perf_counter() - start
            self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {"total_s": self.total, "count": self.count, "mean_s": self.mean}


class CacheStats:
    """Hit/miss accounting for one cache."""

    __slots__ = ("name", "hits", "misses", "evictions")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def hit(self, amount: int = 1) -> None:
        self.hits += amount

    def miss(self, amount: int = 1) -> None:
        self.misses += amount

    def evict(self, amount: int = 1) -> None:
        self.evictions += amount

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PerfRegistry:
    """Named collection of counters, timers, and cache stats.

    ``counter``/``timer``/``cache`` create-on-first-use, so call sites
    never need registration boilerplate.  ``snapshot`` returns a plain
    JSON-serialisable dict; ``report`` renders a human-readable summary.

    Reads (``snapshot``/``report``) may race with evaluator threads that
    create entries mid-run (the live-telemetry sampler does exactly
    that), so first-use insertion and dict iteration share one lock.
    The hot path — looking up an entry that already exists — stays a
    plain dict read.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.timers: dict[str, Timer] = {}
        self.caches: dict[str, CacheStats] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            with self._lock:
                return self.counters.setdefault(name, Counter(name))

    def timer(self, name: str) -> Timer:
        try:
            return self.timers[name]
        except KeyError:
            with self._lock:
                return self.timers.setdefault(name, Timer(name))

    def cache(self, name: str) -> CacheStats:
        try:
            return self.caches[name]
        except KeyError:
            with self._lock:
                return self.caches.setdefault(name, CacheStats(name))

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.caches.clear()

    def _items(self) -> tuple[list, list, list]:
        """Stable (name, entry) lists taken under the insertion lock."""
        with self._lock:
            return (
                sorted(self.counters.items()),
                sorted(self.timers.items()),
                sorted(self.caches.items()),
            )

    def snapshot(self) -> dict:
        counters, timers, caches = self._items()
        return {
            "counters": {k: c.snapshot() for k, c in counters},
            "timers": {k: t.snapshot() for k, t in timers},
            "caches": {k: s.snapshot() for k, s in caches},
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Accumulate another registry's snapshot into this one.

        Used by the parallel population executors: worker replicas record
        into private registries and ship snapshot *deltas* back with each
        result, so counters, timers, and cache hit-rates stay truthful
        after a fan-out (a worker's cache hit is still a cache hit).
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, t in snap.get("timers", {}).items():
            timer = self.timer(name)
            timer.total += t["total_s"]
            timer.count += t["count"]
        for name, c in snap.get("caches", {}).items():
            stats = self.cache(name)
            stats.hit(c["hits"])
            stats.miss(c["misses"])
            stats.evict(c["evictions"])

    def report(self) -> str:
        counters, timers, caches = self._items()
        lines = ["perf report", "-" * 11]
        if timers:
            lines.append("timers:")
            for name, t in timers:
                lines.append(
                    f"  {name:<40} {t.total:9.3f}s total  "
                    f"{t.count:7d} calls  {t.mean * 1e3:9.3f} ms/call"
                )
        if counters:
            lines.append("counters:")
            for name, c in counters:
                lines.append(f"  {name:<40} {c.value}")
        if caches:
            lines.append("caches:")
            for name, s in caches:
                lines.append(
                    f"  {name:<40} {s.hits:7d} hits  {s.misses:7d} misses  "
                    f"{s.hit_rate * 100:6.2f}% hit rate"
                )
        return "\n".join(lines)


def diff_snapshots(new: dict, old: dict) -> dict:
    """Per-entry difference ``new - old`` of two registry snapshots.

    Worker replicas snapshot their private registry after every task and
    return the delta since the previous task, letting the coordinating
    process merge exactly one task's worth of events per result (see
    :meth:`PerfRegistry.merge_snapshot`).  Entries that did not change
    are left out, except a name ``old`` lacks: it travels even at zero,
    so a merged registry knows every metric the replica created.
    """
    out: dict = {"counters": {}, "timers": {}, "caches": {}}
    old_counters = old.get("counters", {})
    for name, value in new.get("counters", {}).items():
        delta = value - old_counters.get(name, 0)
        if delta or name not in old_counters:
            out["counters"][name] = delta
    old_timers = old.get("timers", {})
    for name, t in new.get("timers", {}).items():
        prev = old_timers.get(name, {"total_s": 0.0, "count": 0})
        total, count = t["total_s"] - prev["total_s"], t["count"] - prev["count"]
        if count or total or name not in old_timers:
            out["timers"][name] = {
                "total_s": total,
                "count": count,
                "mean_s": total / count if count else 0.0,
            }
    old_caches = old.get("caches", {})
    for name, c in new.get("caches", {}).items():
        prev = old_caches.get(name, {"hits": 0, "misses": 0, "evictions": 0})
        hits = c["hits"] - prev["hits"]
        misses = c["misses"] - prev["misses"]
        evictions = c["evictions"] - prev["evictions"]
        if hits or misses or evictions or name not in old_caches:
            lookups = hits + misses
            out["caches"][name] = {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "hit_rate": hits / lookups if lookups else 0.0,
            }
    return out
