"""Tests for the experiment harnesses (smoke effort, cached models)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    EFFORTS,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    accuracy_profiles,
    format_table,
    get_lpq_result,
    lpq_row,
    paper_drop,
    resnet50_bits,
    run_fig1,
    run_fig5b,
    run_fig6,
    run_table3,
)


class TestReferenceConstants:
    def test_table1_lpq_beats_baselines_on_size(self):
        for model in ("resnet18", "resnet50", "mobilenetv2"):
            lpq_size = TABLE1["LPQ"][model][1]
            fp_size = TABLE1["baseline"][model][1]
            assert lpq_size < fp_size / 6

    def test_paper_drop_under_one_point(self):
        # the paper's own tables: CNN drops are <1.3pp each, ViT-B is the
        # outlier at 4.4pp; the abstract's "<1% average" is generous
        drops = [paper_drop(m) for m in
                 ("resnet18", "resnet50", "mobilenetv2", "vit_b", "deit_s",
                  "swin_t")]
        assert np.mean(drops) < 2.0

    def test_table3_density_ratio(self):
        assert TABLE3["LPA"][2] / TABLE3["ANT"][2] == pytest.approx(1.9, abs=0.2)

    def test_table4_orderings(self):
        assert TABLE4["LPA-2"][0] > TABLE4["LPA-2/4/8"][0] > TABLE4["LPA-8"][0]
        assert TABLE4["LPA-2"][1] == 0.0  # 2-bit everywhere collapses

    def test_table2_shapes(self):
        assert set(TABLE2["LPQ"]) == {"vit_b", "deit_s", "swin_t"}


@pytest.fixture
def isolated_zoo(tmp_path, monkeypatch):
    """A private zoo directory holding only the resnet18 checkpoint, so
    the result store starts empty and the test never retrains."""
    import shutil

    from repro.models import get_model, zoo_dir

    get_model("resnet18")  # trains + caches on a cold zoo
    shutil.copy(zoo_dir() / "resnet18.npz", tmp_path / "resnet18.npz")
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    return tmp_path


class TestCommon:
    def test_efforts_defined(self):
        assert {"smoke", "fast", "paper"} <= set(EFFORTS)
        assert EFFORTS["paper"].config.population == 20
        assert EFFORTS["paper"].config.passes == 10
        assert EFFORTS["paper"].config.cycles == 4
        assert EFFORTS["paper"].calib == 128

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [3, 44]])
        assert "a" in out and "44" in out
        assert len(out.splitlines()) == 4

    def test_lpq_result_equals_legacy_keyword_call(self, isolated_zoo):
        from repro.data import calibration_batch
        from repro.models import get_model
        from repro.quant import FitnessConfig, lpq_quantize

        _, solution, act, rec = get_lpq_result("resnet18", "smoke")
        legacy = lpq_quantize(
            get_model("resnet18"), calibration_batch(16, seed=1),
            config=EFFORTS["smoke"].config,
            fitness_config=FitnessConfig(lam=0.15),
        )
        assert solution == legacy.solution
        assert act == legacy.act_params
        assert rec["fitness"] == legacy.fitness
        assert rec["evaluations"] == legacy.evaluations

    def test_lpq_result_cached(self, isolated_zoo, monkeypatch):
        from repro.experiments import common

        _, sol1, act1, rec1 = get_lpq_result("resnet18", "smoke")
        digest = common._paper_spec("resnet18", "smoke").digest()
        assert rec1["digest"] == digest
        assert (isolated_zoo / "results" / f"{digest}.json").exists()
        assert not list(isolated_zoo.rglob("lpq_*.json"))

        def no_search(*args, **kwargs):
            raise AssertionError("a store hit must not search")

        monkeypatch.setattr(common, "lpq_quantize", no_search)
        _, sol2, act2, rec2 = get_lpq_result("resnet18", "smoke")
        assert (sol2, act2, rec2) == (sol1, act1, rec1)

        # a changed effort config is a different search: a store miss
        smoke = EFFORTS["smoke"]
        monkeypatch.setitem(EFFORTS, "smoke", dataclasses.replace(
            smoke, config=dataclasses.replace(smoke.config, seed=1)))
        with pytest.raises(AssertionError, match="must not search"):
            get_lpq_result("resnet18", "smoke")

    @pytest.mark.parametrize("stamp", [None, "0" * 16])
    def test_record_from_other_numerics_is_a_miss(self, isolated_zoo,
                                                  monkeypatch, stamp):
        """A stored record without this process's numerics fingerprint
        (written before fingerprints existed, or on a host whose kernels
        round differently) re-runs the search instead of replaying."""
        import json

        from repro.experiments import common

        _, _, _, rec = get_lpq_result("resnet18", "smoke")
        path = isolated_zoo / "results" / f"{rec['digest']}.json"
        stale = dict(rec)
        if stamp is None:
            del stale["fingerprint"]
        else:
            stale["fingerprint"] = stamp
        path.write_text(json.dumps(stale))

        def no_search(*args, **kwargs):
            raise AssertionError("must not search")

        monkeypatch.setattr(common, "lpq_quantize", no_search)
        with pytest.raises(AssertionError, match="must not search"):
            get_lpq_result("resnet18", "smoke")

    def test_committed_sweep_is_the_harness_search(self):
        from repro.experiments.common import _paper_spec
        from repro.models import MODEL_REGISTRY
        from repro.spec import load_sweep

        specs = load_sweep(
            Path(__file__).resolve().parents[2]
            / "examples/specs/paper_lpq_fast.json"
        )
        assert sorted(spec.digest() for spec in specs.values()) == sorted(
            _paper_spec(name, "fast").digest() for name in MODEL_REGISTRY
        )


class TestSearchAblation:
    @pytest.mark.parametrize("effort", sorted(EFFORTS))
    def test_each_variant_turns_off_one_switch(self, effort):
        from repro.experiments.ablations import search_variants

        base = EFFORTS[effort].config
        variants = search_variants(base)
        assert variants["full"] == base
        full = dataclasses.asdict(base)
        for name, switch in (("no_diversity", "diversity"),
                             ("no_blockwise", "blockwise")):
            variant = dataclasses.asdict(variants[name])
            assert {k for k in full if variant[k] != full[k]} == {switch}
            assert variant[switch] is False


class TestFig1:
    def test_accuracy_profiles_structure(self):
        prof = accuracy_profiles(points=33)
        assert set(prof["curves"]) >= {"AdaptivFloat"}
        for c in prof["curves"].values():
            assert c.shape == prof["magnitudes"].shape

    def test_run_fig1_claims(self):
        res = run_fig1()
        assert res["lp_taper_range"] > res["af_taper_range"]
        assert all(v > 0.4 for v in res["median_log10_spread"].values())


class TestQuantHarnesses:
    def test_lpq_row_fields(self):
        row = lpq_row("resnet18", "smoke")
        assert 2.0 <= row["w_bits"] <= 8.0
        assert row["size_mb"] < row["fp_size_mb"]
        assert 0.0 <= row["top1"] <= 100.0

    def test_resnet50_bits_cover_paper_layers(self):
        w, a = resnet50_bits("smoke")
        assert len(w) == len(a) == 54
        assert all(b in (2, 4, 8) for b in w)


class TestHardwareHarnesses:
    def test_table3_areas_match_paper(self):
        res = run_table3("smoke")
        for arch, (area, *_ ) in TABLE3.items():
            assert res["rows"][arch]["compute_area_um2"] == pytest.approx(
                area, rel=1e-3
            )

    def test_fig6_checks(self):
        res = run_fig6("smoke")
        assert res["checks"]["lpa_lowest_latency"]

    def test_fig5b_lp_best(self):
        res = run_fig5b()
        assert res["best_format"] == "lp"
