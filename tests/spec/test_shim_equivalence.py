"""Legacy-kwarg shim ≡ spec path, bitwise, on every executor backend.

``lpq_quantize(model, images, ...)`` now constructs an inline
:class:`~repro.spec.SearchSpec` and runs it through the same engine as
``lpq_quantize(spec=...)``.  These tests pin the acceptance criterion:
the two call styles produce bitwise-identical :class:`LPQResult`s
(solution, history, fitness) on serial and process backends.
"""

import pytest

from repro.models.tiny import tiny_mlp, tiny_resnet
from repro.parallel import ExecutorConfig
from repro.quant import FitnessConfig, LPQConfig, lpq_quantize
from repro.spec import CalibSpec, SearchSpec

CALIB = CalibSpec(batch=4, seed=3)
CONFIG = LPQConfig(population=3, passes=1, cycles=1, block_size=2,
                   diversity_parents=2, hw_widths=(4, 8), seed=13)


def assert_same_result(got, ref):
    assert got.solution == ref.solution
    assert got.fitness == ref.fitness
    assert got.history.best_fitness == ref.history.best_fitness
    assert got.history.mean_bits == ref.history.mean_bits
    assert got.act_params == ref.act_params
    assert got.evaluations == ref.evaluations


class TestShimEquivalence:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None),
        ("process", 2),
    ])
    def test_legacy_kwargs_equal_spec_path(self, backend, workers):
        executor = (
            None if backend == "serial"
            else ExecutorConfig(backend, workers=workers)
        )
        spec = SearchSpec(model="tiny:resnet", calib=CALIB, config=CONFIG,
                          executor=executor)
        ref = lpq_quantize(spec=spec)
        legacy = lpq_quantize(
            tiny_resnet(), CALIB.build(), config=CONFIG, executor=executor
        )
        assert_same_result(legacy, ref)

    def test_objective_and_fitness_knobs_carry_over(self):
        fitness = FitnessConfig(lam=0.15)
        spec = SearchSpec(model="tiny:mlp", calib=CALIB, config=CONFIG,
                          fitness=fitness, objective="mse",
                          act_sf_mode="recurrence")
        ref = lpq_quantize(spec=spec)
        legacy = lpq_quantize(
            tiny_mlp(), CALIB.build(), config=CONFIG,
            fitness_config=fitness, objective="mse",
            act_sf_mode="recurrence",
        )
        assert_same_result(legacy, ref)


class TestCallConventionErrors:
    def test_spec_plus_kwargs_raises(self):
        spec = SearchSpec(model="tiny:mlp", calib=CALIB, config=CONFIG)
        with pytest.raises(ValueError, match="conflicting"):
            lpq_quantize(tiny_mlp(), spec=spec)
        with pytest.raises(ValueError, match="objective"):
            lpq_quantize(spec=spec, objective="mse")

    def test_missing_model_raises(self):
        with pytest.raises(TypeError, match="model and calib_images"):
            lpq_quantize()

    def test_non_spec_spec_raises(self):
        with pytest.raises(TypeError, match="SearchSpec"):
            lpq_quantize(spec={"model": "tiny:mlp"})

    def test_inline_spec_without_live_objects_raises(self):
        inline = SearchSpec(config=CONFIG)
        with pytest.raises(ValueError, match="no model reference"):
            lpq_quantize(spec=inline)
