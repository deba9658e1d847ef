"""Shared incremental candidate-evaluation engine.

Both LPQ evaluators — :class:`repro.quant.fitness.FitnessEvaluator`
(the paper's global-local contrastive objective) and
:class:`repro.quant.objectives.OutputObjectiveEvaluator` (the Fig. 5(a)
final-output baselines) — score candidates the same way: install a
fake-quantized configuration, re-estimate BatchNorm statistics, run the
calibration batch forward, and turn what the pass produced into a loss
that is multiplied by the compression factor ``L_CR^λ``.

:class:`IncrementalEvaluator` holds the machinery that makes one such
evaluation incremental, independent of which measurement the subclass
extracts from the pass:

* a result memo keyed by the full candidate makes duplicates free;
* a :class:`~repro.quant.quantizer.WeightQuantCache` re-quantizes only
  layers whose parameters actually changed;
* an :class:`~repro.quant.quantizer.ActQuantCache` memoises quantized
  activations by input identity, so the first recomputed layer of a
  replayed pass skips ``lp_quantize`` when its input and activation
  parameters are unchanged;
* a prefix-reuse forward (:class:`repro.nn.ForwardCache`) replays cached
  activations up to the first changed layer and recomputes the suffix;
* BN recalibration is fused into the measurement pass: with momentum 1 a
  batch normalised by its own statistics in training mode is bit-for-bit
  what the eval pass would recompute (see
  :func:`repro.quant.quantizer.bn_batch_stats`).

Fast and reference paths produce bitwise-identical results; the engine
assumes frozen weights and falls back to the reference path for models
with active Dropout or a forward order that deviates from definition
order.

Every evaluator takes an optional private :class:`repro.perf.PerfRegistry`
so worker replicas in a parallel population fan-out
(:mod:`repro.parallel`) can account their cache traffic separately and
merge it back truthfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import (
    BatchNorm2d,
    Dropout,
    ForwardCache,
    Module,
    quantizable_layers,
)
from ..nn.recorder import _recording
from ..perf import get_perf
from .params import QuantSolution

__all__ = ["FitnessConfig", "IncrementalEvaluator"]

#: memo-miss sentinel — a fitness of exactly 0.0 is legal (e.g. an MSE
#: objective on a bitwise-lossless candidate) and must still be memoized
_MISSING = object()


@dataclass(frozen=True)
class FitnessConfig:
    """Knobs of the fitness function; defaults follow the paper.

    ``fast`` toggles the incremental evaluation engine (quantized-weight
    cache, result memo, prefix-reuse forward passes, fused BN
    recalibration, activation-quant cache).  Fast and reference paths
    produce bitwise-identical fitness values; the flag exists for
    benchmarking and as an escape hatch.  ``weight_cache_entries`` bounds
    the quantized-weight LRU and ``act_cache_entries`` the quantized-
    activation LRU (entries pin activation tensors, so keep it small).
    """

    tau: float = 0.07  # concentration level of the contrastive loss
    lam: float = 0.4  # λ balancing L_CO and L_CR
    pooling: str = "kurtosis"  # "kurtosis" (paper) | "mean" (ablation)
    fast: bool = True  # incremental evaluation engine
    weight_cache_entries: int = 1024
    act_cache_entries: int = 64

    def to_dict(self) -> dict:
        """Plain-JSON dict form (used by :class:`repro.spec.SearchSpec`)."""
        from ..spec.serde import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FitnessConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        from ..spec.serde import config_from_dict

        return config_from_dict(cls, data)


def _has_active_dropout(model: Module) -> bool:
    return any(
        isinstance(m, Dropout) and m.p > 0 for _, m in model.named_modules()
    )


class IncrementalEvaluator:
    """Template for candidate evaluators with an incremental fast path.

    Subclasses define what a candidate *measurement* is by implementing:

    * ``_prepare_reference()`` — one-time FP baseline (runs in eval mode
      on the clean model during construction);
    * ``_reference_measurement()`` — full-pass measurement, called inside
      a ``quantized`` + ``bn_recalibrated`` context;
    * ``_suffix_record_names(suffix)`` — layer names whose activations
      the fast pass must record (empty when only the final output is
      needed);
    * ``_measurement_from_pass(acts, out, suffix)`` — measurement from a
      fast pass's recorded activations and final output;
    * ``_loss(measurement)`` — the objective factor; the engine then
      multiplies it by ``L_CR^λ``.

    ``timer_name``/``memo_name`` label the perf sections so both
    evaluators report uniformly; every concrete evaluator must set them
    to names declared in the docs/perf.md counter table.
    """

    timer_name: str
    memo_name: str

    def __init__(
        self,
        model: Module,
        calib_images: np.ndarray,
        param_counts: list[int],
        config: FitnessConfig | None = None,
        perf=None,
    ) -> None:
        from .quantizer import (
            ActQuantCache,
            WeightQuantCache,
            clear_quantization,
        )

        self.model = model
        self.images = calib_images
        self.param_counts = param_counts
        self.config = config or FitnessConfig()
        self._layers = quantizable_layers(model)
        self.layer_names = [n for n, _ in self._layers]
        clear_quantization(model)
        model.eval()
        #: evaluations requested (memo hits included)
        self.evaluations = 0
        #: evaluations that actually ran a forward pass (memo misses)
        self.computed_evaluations = 0
        self.perf = perf if perf is not None else get_perf()
        # -- incremental engine state ------------------------------------
        self.fast = self.config.fast and not _has_active_dropout(model)
        # module lists walked once here instead of on every evaluation
        self._modules = [m for _, m in model.named_modules()]
        self._bns = [m for m in self._modules if isinstance(m, BatchNorm2d)]
        self._memo: dict = {}
        self._weight_cache = WeightQuantCache(
            self.config.weight_cache_entries,
            stats=self.perf.cache("quant.weight_cache"),
        )
        self._act_cache = ActQuantCache(
            self.config.act_cache_entries,
            stats=self.perf.cache("quant.act_cache"),
        )
        self._forward_cache = ForwardCache(model)
        self._ref_cfg: tuple | None = None
        self._prepare_reference()

    # -- subclass hooks ---------------------------------------------------
    def _prepare_reference(self) -> None:
        raise NotImplementedError

    def _reference_measurement(self):
        raise NotImplementedError

    def _suffix_record_names(self, suffix: range) -> list[str]:
        return []

    def _measurement_from_pass(self, acts: dict, out, suffix: range):
        raise NotImplementedError

    def _loss(self, measurement) -> float:
        raise NotImplementedError

    def _on_reset(self) -> None:
        """Subclass hook: invalidate measurement state on reset_caches."""

    # -- public API -------------------------------------------------------
    def __call__(self, solution: QuantSolution, act_params=None) -> float:
        from .fitness import compression_ratio

        if self.fast:
            key = (
                solution,
                None if act_params is None else tuple(act_params),
            )
            memo_stats = self.perf.cache(self.memo_name)
            cached = self._memo.get(key, _MISSING)
            if cached is not _MISSING:
                memo_stats.hit()
                self.evaluations += 1  # requested, but served from the memo
                return cached
            memo_stats.miss()
        with self.perf.timer(self.timer_name).time():
            if self.fast:
                measurement = self._measure_fast(solution, act_params)
            else:
                measurement = self._measure_reference(solution, act_params)
        self.evaluations += 1
        self.computed_evaluations += 1
        lcr = compression_ratio(solution, self.param_counts)
        fitness = self._loss(measurement) * lcr**self.config.lam
        if self.fast:
            self._memo[key] = fitness
        return fitness

    def evaluate_many(self, solutions, act_params_list=None) -> list[float]:
        """Evaluate a batch of candidates, results in submission order.

        Candidates not already memoized get their quantized weights
        prefilled through :meth:`prefill_weights` first — one LUT lookup
        per shared format instead of per-layer-per-candidate calls —
        then each candidate runs the usual (bitwise-identical)
        incremental path against a warm cache.  A
        :class:`repro.parallel.PopulationEvaluator` additionally fans
        the batch out across executor workers.
        """
        solutions = list(solutions)
        if act_params_list is None:
            act_params_list = [None] * len(solutions)
        self.prefill_weights(
            sol
            for sol, acts in zip(solutions, act_params_list)
            if not self.is_memoized(sol, acts)
        )
        return [
            self(sol, acts) for sol, acts in zip(solutions, act_params_list)
        ]

    def is_memoized(self, solution: QuantSolution, act_params=None) -> bool:
        """True when ``__call__`` would serve this candidate from the
        fitness memo (no stats side effects — pure lookup)."""
        if not self.fast:
            return False
        key = (solution, None if act_params is None else tuple(act_params))
        return key in self._memo

    def prefill_weights(self, solutions) -> int:
        """Warm the quantized-weight cache for a batch of candidates.

        All missing ``(layer, params)`` pairs across the batch are
        computed in one :meth:`WeightQuantCache.prefill` call, which
        groups them by clamped LP format and looks each group's LUT up
        once (``lp_quantize_many``).  Returns the
        number of cache entries computed; the
        ``population.prefill_entries`` counter tracks the same number.
        """
        if not self.fast:
            return 0
        pairs = [
            (layer, solution[i])
            for solution in solutions
            if len(solution) == len(self._layers)
            for i, (_, layer) in enumerate(self._layers)
        ]
        if not pairs:
            return 0
        computed = self._weight_cache.prefill(pairs)
        if computed:
            self.perf.counter("population.prefill_entries").inc(computed)
        return computed

    def reset_caches(self) -> None:
        """Invalidate all caches (required after mutating model weights)."""
        self._memo.clear()
        self._weight_cache.clear()
        self._act_cache.clear()
        self._forward_cache.invalidate()
        self._ref_cfg = None
        self._on_reset()

    # -- reference path ---------------------------------------------------
    def _measure_reference(self, solution, act_params):
        from .quantizer import bn_recalibrated, quantized

        with quantized(self.model, solution, act_params):
            # evaluate the candidate as it would be deployed: with BN
            # statistics re-estimated under the quantized weights
            with bn_recalibrated(self.model, self.images):
                return self._reference_measurement()

    # -- incremental engine ---------------------------------------------
    def _layer_config(self, solution, act_params) -> tuple:
        """Per-layer installed configuration: (weight params, input-side
        activation params) — exactly what apply_quantization installs."""
        return tuple(
            (
                solution[i],
                act_params[i - 1] if act_params is not None and i > 0 else None,
            )
            for i in range(len(self._layers))
        )

    def _first_diff(self, cfg: tuple) -> int | None:
        """Index of the first layer whose config differs from the cached
        reference candidate (None = identical)."""
        if self._ref_cfg is None or len(self._ref_cfg) != len(cfg):
            return 0
        for i, (a, b) in enumerate(zip(self._ref_cfg, cfg)):
            if a != b:
                return i
        return None

    def _measure_fast(self, solution, act_params):
        from .quantizer import _clear, _install, _set_training

        cfg = self._layer_config(solution, act_params)
        full = not self._forward_cache.primed or self._ref_cfg is None
        first = 0 if full else self._first_diff(cfg)
        _install(
            self._layers,
            solution,
            act_params,
            self._weight_cache,
            self._act_cache,
        )
        try:
            if first is None:
                dirty, suffix = None, range(0)
            else:
                dirty = None if full else self._layers[first][1]
                suffix = range(first, len(self._layers))
            self.perf.counter("replay.layers_reused").inc(
                len(self._layers) - len(suffix)
            )
            suffix_names = self._suffix_record_names(suffix)
            if self._bns:
                acts, out = self._fused_recal_pass(dirty, suffix_names, full)
            else:
                _set_training(self._modules, False)
                with _recording(self._layers, suffix_names) as acts:
                    if full:
                        out = self._forward_cache.forward(self.images)
                    else:
                        out = self._forward_cache.forward(
                            self.images, dirty=dirty
                        )
            if full and not self._forward_cache.recorded_in_order(
                [layer for _, layer in self._layers]
            ):
                # forward execution order deviates from definition order
                # (or a layer bypasses __call__): prefix cutoffs would be
                # unsound, so this evaluation stands but replay must not
                self.fast = False
            measurement = self._measurement_from_pass(acts, out, suffix)
            self._ref_cfg = cfg
            return measurement
        except BaseException:
            # forward cache, measurement state, and _ref_cfg may now
            # disagree about which candidate they describe — drop all
            self.reset_caches()
            raise
        finally:
            _clear(self._layers)

    def _fused_recal_pass(self, dirty, suffix_names, full):
        """One training-mode pass with BN momentum 1: recalibrates BN and
        runs the measurement forward simultaneously, making the reference
        path's second forward redundant (see
        :func:`repro.quant.quantizer.bn_batch_stats`).
        """
        from .quantizer import _batch_stats_window

        with _batch_stats_window(self._modules, self._bns):
            with _recording(self._layers, suffix_names) as acts:
                if full:
                    out = self._forward_cache.forward(self.images)
                else:
                    out = self._forward_cache.forward(self.images, dirty=dirty)
        return acts, out
