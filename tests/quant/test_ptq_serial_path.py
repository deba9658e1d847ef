"""Default ``lpq_quantize`` ≡ the per-candidate closure search, bitwise.

With no executor, ``lpq_quantize`` scores candidates as a one-job
:class:`repro.serve.SearchScheduler` on the serial pool (job memo,
batched weight prefill).  The reference below is an in-test copy of the
per-candidate loop it replaced: :class:`LPQEngine` over a closure that
derives the activation parameters and calls the fitness or objective
evaluator directly.  Both must agree on every bit of the solution,
history and fitness, and on the evaluation count.
"""

import pytest

from repro.data import calibration_batch
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    LPQEngine,
    OutputObjectiveEvaluator,
    collect_layer_stats,
    derive_activation_params,
    lpq_quantize,
)
from repro.spec import registry

SEARCH = LPQConfig(
    population=4,
    passes=1,
    cycles=2,
    block_size=2,
    diversity_parents=3,
    hw_widths=(4, 8),
    seed=17,
)


def _closure_search(model, images, fitness_config, objective, act_sf_mode):
    """The per-candidate serial search ``lpq_quantize`` used to run."""
    stats = collect_layer_stats(model, images)
    if objective == "global_local_contrastive":
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, fitness_config
        )
    else:
        evaluator = OutputObjectiveEvaluator(
            model, images, stats.param_counts, objective, fitness_config
        )

    def evaluate_with_acts(solution):
        acts = derive_activation_params(solution, stats, mode=act_sf_mode)
        return evaluator(solution, acts)

    engine = LPQEngine(evaluate_with_acts, stats.weight_log_centers, SEARCH)
    solution, fitness = engine.run()
    return solution, fitness, engine.history, evaluator.evaluations


@pytest.mark.parametrize("model_name,fitness_config,objective,act_sf_mode", [
    ("tiny:resnet", None, "global_local_contrastive", "calibrated"),
    ("tiny:mlp", None, "mse", "recurrence"),
    ("tiny:resnet", FitnessConfig(fast=False), "global_local_contrastive",
     "calibrated"),
], ids=["cnn-contrastive", "mlp-mse-recurrence", "reference-path"])
def test_default_search_matches_closure_loop(
    model_name, fitness_config, objective, act_sf_mode
):
    images = calibration_batch(8, seed=4)
    build = registry.resolve("model", model_name)  # fresh, seeded weights
    solution, fitness, history, evaluations = _closure_search(
        build(), images, fitness_config, objective, act_sf_mode
    )
    result = lpq_quantize(
        build(), images, config=SEARCH, fitness_config=fitness_config,
        objective=objective, act_sf_mode=act_sf_mode,
    )
    assert result.solution == solution
    assert result.fitness == fitness
    assert result.history.best_fitness == history.best_fitness
    assert result.history.mean_bits == history.mean_bits
    assert result.evaluations == evaluations
