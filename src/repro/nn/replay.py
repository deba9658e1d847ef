"""Prefix-reuse forward passes for incremental re-evaluation.

LPQ's genetic search is block-wise by construction: each candidate
differs from the previously evaluated one in only a few consecutive
layers.  Everything a network computes *before* the first changed layer
is therefore identical across the two evaluations — recomputing it is
pure waste.

:class:`ForwardCache` exploits this.  One *record* pass stores, for every
module call, its output and its pre-order call interval ``[start, end)``
(``end`` covers the whole subtree the call executed).  On later *replay*
passes, given the first changed ("dirty") module, any call whose entire
subtree finished before the dirty module's start is served from the
cache without executing; calls whose interval straddles the cutoff
re-execute their forward so their children can decide individually, and
calls at or after the cutoff recompute (refreshing the cache, which
after the pass describes the *new* candidate end to end).

Invariants required of the caller:

* the model architecture and the input tensor are identical across
  passes (the cache full-recomputes if it sees a different input object);
* module outputs depend only on module state and inputs — true for every
  layer here except ``Dropout`` in training mode, whose RNG draw is not
  replayable (callers must keep stochastic layers out of cached passes);
* every module instance is called at most once per pass.  A violation is
  detected during the record pass and the cache permanently falls back
  to full recomputation (correct, just not fast).

Replayed (skipped) container calls do not execute their children, so
forward hooks inside a skipped subtree do not fire; hooks attached to a
module whose ``__call__`` runs — including replayed leaves — fire with
the cached output.
"""

from __future__ import annotations

import numpy as np

from . import module as _module
from .module import Module

__all__ = ["ForwardCache"]

#: sentinel distinguishing "everything dirty" from "nothing dirty" (None)
_ALL_DIRTY = object()


class _CallRecord:
    __slots__ = ("start", "end", "output")

    def __init__(self) -> None:
        self.start = 0
        self.end = 0
        self.output: np.ndarray | None = None


class ForwardCache:
    """Caches one reference forward pass of ``model`` and replays the
    unchanged prefix of subsequent passes.

    >>> cache = ForwardCache(model)
    >>> out = cache.forward(x)                  # record pass (full)
    >>> out = cache.forward(x, dirty=layer_k)   # replays up to layer_k
    >>> out = cache.forward(x, dirty=None)      # nothing changed: free
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self._records: dict[int, _CallRecord] = {}
        self._seen: set[int] = set()
        self._seq = 0
        self._mode = "record"
        self._cutoff = 0
        self._input_ref: np.ndarray | None = None
        self._primed = False
        self._unsupported = False
        #: cumulative instrumentation (read by the perf subsystem)
        self.calls_replayed = 0
        self.calls_computed = 0
        self.record_passes = 0
        self.replay_passes = 0

    @property
    def primed(self) -> bool:
        """True when the cache holds a complete, usable reference pass."""
        return self._primed and not self._unsupported

    def invalidate(self) -> None:
        """Drop the cached pass (e.g. after model weights were mutated)."""
        self._records.clear()
        self._primed = False

    def recorded_in_order(self, modules) -> bool:
        """True if every module was recorded (its ``__call__`` ran) and
        the recorded execution order matches the given sequence.

        Replay cutoffs are positions in *execution* order; callers that
        derive the cutoff from a definition-order layer list (e.g. the
        fitness engine with ``quantizable_layers``) must check the two
        orders agree after the record pass and fall back otherwise.
        """
        starts = []
        for module in modules:
            rec = self._records.get(id(module))
            if rec is None:
                return False
            starts.append(rec.start)
        return all(a < b for a, b in zip(starts, starts[1:]))

    # -- pass execution --------------------------------------------------
    def forward(self, x: np.ndarray, dirty=_ALL_DIRTY) -> np.ndarray:
        """Run ``model(x)``, replaying every call that finished before
        ``dirty``'s recorded position.

        ``dirty`` is the first module whose behaviour changed since the
        cached pass (``None`` = nothing changed: the cached final output
        is returned without running anything).  Omitting it forces a full
        record pass.
        """
        if (
            dirty is _ALL_DIRTY
            or not self.primed
            or x is not self._input_ref
            or (dirty is not None and id(dirty) not in self._records)
        ):
            return self._run_record(x)
        if dirty is None:
            cutoff = self._records[id(self.model)].end
        else:
            cutoff = self._records[id(dirty)].start
        return self._run_replay(x, cutoff)

    def _activate(self):
        # thread-local: concurrent replicas (in-process worker servers,
        # scheduler threads) must not observe each other's cached passes
        prev = _module._REPLAY.active
        _module._REPLAY.active = self
        return prev

    def _run_record(self, x: np.ndarray) -> np.ndarray:
        self._records.clear()
        self._seen.clear()
        self._seq = 0
        self._mode = "record"
        self._primed = False
        self._unsupported = False
        prev = self._activate()
        try:
            out = self.model(x)
        finally:
            _module._REPLAY.active = prev
        self._primed = True
        self._input_ref = x
        self.record_passes += 1
        return out

    def _run_replay(self, x: np.ndarray, cutoff: int) -> np.ndarray:
        self._mode = "replay"
        self._cutoff = cutoff
        prev = self._activate()
        try:
            out = self.model(x)
        except BaseException:
            # an aborted pass leaves records mixing the old candidate's
            # prefix with the new one's partial suffix — unusable as a
            # reference; force a record pass next time
            self._primed = False
            raise
        finally:
            _module._REPLAY.active = prev
        self.replay_passes += 1
        return out

    # -- called from Module.__call__ -------------------------------------
    def call(self, module: Module, x) -> np.ndarray:
        if self._mode == "record":
            key = id(module)
            if key in self._seen:
                # same instance called twice in one pass: intervals would
                # be ambiguous, so disable replay for this model
                self._unsupported = True
                return module.forward(x)
            self._seen.add(key)
            rec = _CallRecord()
            self._records[key] = rec
            rec.start = self._seq
            self._seq += 1
            out = module.forward(x)
            rec.end = self._seq
            rec.output = out
            return out
        rec = self._records.get(id(module))
        if rec is None:  # module not seen during record: compute
            return module.forward(x)
        if rec.end <= self._cutoff:
            self.calls_replayed += 1
            return rec.output
        self.calls_computed += 1
        out = module.forward(x)
        rec.output = out
        return out
