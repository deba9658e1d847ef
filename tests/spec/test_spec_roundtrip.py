"""SearchSpec JSON round-trip property tests.

The spec layer's contract: ``spec → to_dict → json.dumps → json.loads →
from_dict`` is the identity, and *running* the reconstructed spec
reproduces the identical search trajectory (solution, history, fitness —
bitwise).  Serde errors must be loud: unknown fields, bad versions, and
malformed payloads raise instead of silently defaulting.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ExecutorConfig
from repro.quant import FitnessConfig, LPQConfig, lpq_quantize
from repro.spec import CalibSpec, SearchSpec
from repro.spec.serde import decode_array, encode_array


def roundtrip(spec: SearchSpec) -> SearchSpec:
    return SearchSpec.from_json(json.dumps(json.loads(spec.to_json())))


# -- strategies ----------------------------------------------------------
lpq_configs = st.builds(
    LPQConfig,
    population=st.integers(2, 8),
    passes=st.integers(1, 3),
    cycles=st.integers(1, 2),
    block_size=st.integers(1, 4),
    diversity_parents=st.integers(2, 5),
    hw_widths=st.one_of(
        st.none(),
        st.sets(st.sampled_from([2, 4, 8, 16]), min_size=1).map(
            lambda s: tuple(sorted(s))
        ),
    ),
    diversity=st.booleans(),
    blockwise=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)

fitness_configs = st.builds(
    FitnessConfig,
    tau=st.floats(0.01, 10.0, allow_nan=False),
    lam=st.floats(0.0, 1.0, allow_nan=False),
    pooling=st.sampled_from(["kurtosis", "mean"]),
    fast=st.booleans(),
)

executor_configs = st.builds(
    ExecutorConfig,
    backend=st.sampled_from(["serial", "process"]),
    workers=st.one_of(st.none(), st.integers(1, 8)),
)

search_specs = st.builds(
    SearchSpec,
    model=st.sampled_from(["tiny:resnet", "tiny:mlp", "bench:resnet"]),
    calib=st.builds(
        CalibSpec, batch=st.integers(1, 32), seed=st.integers(0, 1000)
    ),
    config=lpq_configs,
    fitness=st.one_of(st.none(), fitness_configs),
    objective=st.sampled_from(
        ["mse", "kl", "cosine", "global_contrastive",
         "global_local_contrastive"]
    ),
    act_sf_mode=st.sampled_from(["calibrated", "recurrence"]),
    executor=st.one_of(st.none(), executor_configs),
    seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    name=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
)


class TestJsonRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(spec=search_specs)
    def test_roundtrip_is_identity(self, spec):
        assert roundtrip(spec) == spec

    @settings(max_examples=50, deadline=None)
    @given(config=lpq_configs)
    def test_lpq_config_roundtrip(self, config):
        assert LPQConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    @settings(max_examples=50, deadline=None)
    @given(config=fitness_configs)
    def test_fitness_config_roundtrip_bitwise_floats(self, config):
        back = FitnessConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        # float fields must survive JSON exactly (shortest-repr parses
        # back to identical bits), not approximately
        assert back.tau == config.tau and back.lam == config.lam
        assert back == config

    @settings(max_examples=30, deadline=None)
    @given(config=executor_configs)
    def test_executor_config_roundtrip(self, config):
        assert ExecutorConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from([(3,), (2, 4), (1, 3, 2, 2)]),
        seed=st.integers(0, 1000),
        dtype=st.sampled_from(["float32", "float64", "int32"]),
    )
    def test_array_roundtrip_bitwise(self, shape, seed, dtype):
        rng = np.random.default_rng(seed)
        array = (rng.normal(size=shape) * 100).astype(dtype)
        back = decode_array(json.loads(json.dumps(encode_array(array))))
        assert back.dtype == array.dtype
        np.testing.assert_array_equal(back, array)


class TestRoundTrippedSpecRunsIdentically:
    def test_identical_search_trajectory(self):
        spec = SearchSpec(
            model="tiny:resnet",
            calib=CalibSpec(batch=4, seed=3),
            config=LPQConfig(population=3, passes=1, cycles=1,
                             block_size=2, diversity_parents=2,
                             hw_widths=(4, 8)),
            seed=11,
        )
        ref = lpq_quantize(spec=spec)
        got = lpq_quantize(spec=roundtrip(spec))
        assert got.solution == ref.solution
        assert got.fitness == ref.fitness
        assert got.history.best_fitness == ref.history.best_fitness
        assert got.history.mean_bits == ref.history.mean_bits
        assert got.act_params == ref.act_params
        assert got.evaluations == ref.evaluations

    def test_dump_load_file_roundtrip(self, tmp_path):
        spec = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4),
            config=LPQConfig(population=3, passes=1, cycles=1,
                             diversity_parents=2, hw_widths=(4, 8)),
            objective="mse", executor=ExecutorConfig("process", workers=2),
            seed=5, name="roundtrip",
        )
        path = spec.dump(tmp_path / "spec.json")
        assert SearchSpec.load(path) == spec

    def test_spec_seed_overrides_config_seed(self):
        config = LPQConfig(population=3, passes=1, cycles=1,
                           diversity_parents=2, hw_widths=(4, 8), seed=0)
        base = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
                          config=config)
        reseeded = dataclasses.replace(base, seed=9)
        assert reseeded.search_config().seed == 9
        ref = lpq_quantize(
            spec=dataclasses.replace(
                base, config=dataclasses.replace(config, seed=9)
            )
        )
        got = lpq_quantize(spec=reseeded)
        assert got.solution == ref.solution and got.fitness == ref.fitness


class TestSerdeErrors:
    def test_unknown_spec_field_raises(self):
        spec = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4))
        payload = spec.to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            SearchSpec.from_dict(payload)

    def test_unknown_config_field_raises(self):
        with pytest.raises(ValueError, match="populatoin"):
            LPQConfig.from_dict({"populatoin": 4})

    def test_unsupported_version_raises(self):
        payload = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4)
        ).to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            SearchSpec.from_dict(payload)

    def test_non_dict_payload_raises(self):
        with pytest.raises(ValueError, match="must be a dict"):
            SearchSpec.from_dict([1, 2, 3])

    def test_inline_spec_refuses_to_serialize(self):
        inline = SearchSpec(config=LPQConfig(population=3, passes=1,
                                             cycles=1, diversity_parents=2))
        assert not inline.serializable
        with pytest.raises(ValueError, match="inline"):
            inline.to_dict()

    def test_unknown_model_ref_raises_with_known_names(self):
        spec = SearchSpec(model="zoo:warp-drive", calib=CalibSpec(batch=4))
        with pytest.raises(KeyError, match="unknown model"):
            spec.build_model()

    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError, match="unknown objective"):
            SearchSpec(model="tiny:mlp", objective="nope")

    def test_unknown_act_sf_mode_raises(self):
        with pytest.raises(ValueError, match="activation sf mode"):
            SearchSpec(model="tiny:mlp", act_sf_mode="nope")

    def test_live_model_instance_rejected(self):
        from repro import nn

        with pytest.raises(ValueError, match="registered model name"):
            SearchSpec(model=nn.Linear(2, 2))

    def test_bad_calib_batch_raises(self):
        with pytest.raises(ValueError, match="positive"):
            CalibSpec(batch=0)

    def test_calib_dict_form_coerced(self):
        spec = SearchSpec(model="tiny:mlp", calib={"batch": 4, "seed": 2})
        assert spec.calib == CalibSpec(batch=4, seed=2)
        assert roundtrip(spec) == spec

    def test_calib_wrong_type_raises(self):
        import numpy as np

        with pytest.raises(ValueError, match="CalibSpec"):
            SearchSpec(model="tiny:mlp", calib=np.zeros((1, 3, 8, 8)))


class TestCalibMemo:
    """``CalibSpec.build`` memoizes its batches per process: read-only,
    bitwise the source's, and bounded."""

    def test_memoized_batch_is_the_sources_read_only(self):
        from repro.data import calibration_batch

        calib = CalibSpec(batch=6, seed=12)
        images = calib.build()
        assert calib.build() is images
        assert CalibSpec.from_dict(calib.to_dict()).build() is images
        assert not images.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0, 0, 0] = 1.0
        want = calibration_batch(6, 12)
        assert want.flags.writeable
        assert images.dtype == want.dtype and images.shape == want.shape
        np.testing.assert_array_equal(
            images.view(np.uint8), want.view(np.uint8)
        )

    def test_memo_is_bounded(self):
        from repro.spec import spec as spec_module

        first = CalibSpec(batch=2, seed=1000).build()
        for seed in range(1001, 1001 + spec_module.CALIB_MEMO_ENTRIES):
            CalibSpec(batch=2, seed=seed).build()
        info = spec_module._calib_batch.cache_info()
        assert info.currsize == info.maxsize == spec_module.CALIB_MEMO_ENTRIES
        again = CalibSpec(batch=2, seed=1000).build()
        assert again is not first  # evicted, rebuilt
        np.testing.assert_array_equal(again, first)
