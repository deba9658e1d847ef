"""Search determinism across executor backends.

The hard guarantee of the parallel population engine: the genetic search
produces a bitwise-identical :class:`SearchHistory` no matter which
backend scores the candidates — serial or process pool — and no
matter how many workers share the batch.  The engine draws all
candidate RNG before any evaluation runs, and every replica's fast path
is bitwise-equal to the reference path, so fan-out must not move a
single bit.
"""

import numpy as np
import pytest

from repro import nn
from repro.data import calibration_batch
from repro.parallel import EvaluatorSpec, ExecutorConfig, PopulationEvaluator
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    LPQEngine,
    collect_layer_stats,
    derive_activation_params,
)
from repro.perf import reset_perf

SEARCH = LPQConfig(
    population=3,
    passes=1,
    cycles=1,
    block_size=2,
    diversity_parents=3,
    hw_widths=(4, 8),
    seed=13,
)


def _search_history(par_setup, executor=None, fast=True):
    """Run the same search; returns (best fitness, history, solution)."""
    model, images, stats = par_setup
    reset_perf()
    if executor is None:
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=fast)
        )

        def evaluate(solution):
            return evaluator(solution, derive_activation_params(solution, stats))

        engine = LPQEngine(evaluate, stats.weight_log_centers, SEARCH)
        solution, fitness = engine.run()
        return fitness, engine.history, solution
    spec = EvaluatorSpec(images=images, model=model, stats=stats)
    with PopulationEvaluator(spec, executor) as evaluator:
        engine = LPQEngine(evaluator, stats.weight_log_centers, SEARCH)
        solution, fitness = engine.run()
    return fitness, engine.history, solution


class TestBackendDeterminism:
    def test_serial_backend_reproduces_closure_path(self, par_setup):
        fit_ref, hist_ref, sol_ref = _search_history(par_setup)
        fit, hist, sol = _search_history(
            par_setup, ExecutorConfig("serial")
        )
        assert fit == fit_ref
        assert hist.best_fitness == hist_ref.best_fitness
        assert hist.mean_bits == hist_ref.mean_bits
        assert sol == sol_ref

    @pytest.mark.parametrize("backend,workers", [
        ("process", 2),
        ("process", 3),
    ])
    def test_parallel_backend_identical_history(
        self, par_setup, backend, workers
    ):
        fit_ref, hist_ref, sol_ref = _search_history(
            par_setup, ExecutorConfig("serial")
        )
        fit, hist, sol = _search_history(
            par_setup, ExecutorConfig(backend, workers=workers)
        )
        assert fit == fit_ref
        assert hist.best_fitness == hist_ref.best_fitness
        assert hist.mean_bits == hist_ref.mean_bits
        assert sol == sol_ref

    def test_batched_step_matches_reference_path(self, par_setup):
        """The batched GA step must not change the slow path either."""
        fit_fast, hist_fast, _ = _search_history(par_setup, fast=True)
        fit_slow, hist_slow, _ = _search_history(par_setup, fast=False)
        assert fit_fast == fit_slow
        assert hist_fast.best_fitness == hist_slow.best_fitness


class TestLpqQuantizeExecutor:
    def test_lpq_quantize_executor_knob(self):
        """End-to-end: lpq_quantize(executor=...) matches the default."""
        from repro.quant import lpq_quantize

        nn.seed(11)
        from .parmodels import ParBNCNN

        model = ParBNCNN()
        model.eval()
        images = calibration_batch(8, seed=5)
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=3,
                           diversity_parents=2, hw_widths=(4, 8), seed=2)
        res_default = lpq_quantize(model, images, config=config)
        res_process = lpq_quantize(
            model, images, config=config,
            executor=ExecutorConfig("process", workers=2),
        )
        assert res_default.fitness == res_process.fitness
        assert (
            res_default.history.best_fitness
            == res_process.history.best_fitness
        )
        assert res_default.solution == res_process.solution

    def test_lpq_quantize_executor_with_objective(self):
        from repro.quant import lpq_quantize

        nn.seed(11)
        from .parmodels import ParBNCNN

        model = ParBNCNN()
        model.eval()
        images = calibration_batch(8, seed=5)
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=3,
                           diversity_parents=2, hw_widths=(4, 8), seed=2)
        res_default = lpq_quantize(
            model, images, config=config, objective="mse"
        )
        res_process = lpq_quantize(
            model, images, config=config, objective="mse",
            executor=ExecutorConfig("process", workers=2),
        )
        assert np.isfinite(res_process.fitness)
        assert res_default.fitness == res_process.fitness

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pickled_spec_route_matches_serial(self, start_method):
        """A model the wire codec rejects (required constructor
        argument) reaches process workers as the pickled spec, and the
        search stays bitwise-equal to serial."""
        from repro.quant import lpq_quantize
        from repro.spec.wire import encode_job

        from .parmodels import WidthBNCNN

        nn.seed(12)
        model = WidthBNCNN(5)
        model.eval()
        images = calibration_batch(8, seed=6)
        with pytest.raises(ValueError, match="constructor argument"):
            encode_job(EvaluatorSpec(images=images, model=model))
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=2,
                           diversity_parents=2, hw_widths=(4, 8), seed=4)
        serial = lpq_quantize(model, images, config=config)
        process = lpq_quantize(
            model, images, config=config,
            executor=ExecutorConfig("process", workers=2,
                                    start_method=start_method),
        )
        assert process.solution == serial.solution
        assert process.fitness == serial.fitness
        assert process.history.best_fitness == serial.history.best_fitness
        assert process.history.mean_bits == serial.history.mean_bits
        assert process.evaluations == serial.evaluations
