"""Sweep expansion and digest-keyed result caching."""

import dataclasses
import json

import pytest

from repro.parallel import ExecutorConfig
from repro.quant import LPQConfig
from repro.spec import CalibSpec, SearchSpec, expand_sweep, load_sweep

BASE = {
    "model": "tiny:mlp",
    "calib": {"batch": 4, "seed": 1},
    "config": {
        "population": 3,
        "passes": 1,
        "cycles": 1,
        "diversity_parents": 2,
        "hw_widths": [4, 8],
    },
    "objective": "mse",
    "name": "tiny-mlp",
}


class TestExpandSweep:
    def test_cartesian_product_names_and_values(self):
        specs = expand_sweep({
            "version": 1,
            "name": "study",
            "base": BASE,
            "grid": {"seed": [1, 2], "config.population": [3, 4]},
        })
        assert list(specs) == [
            "study-seed1-population3",
            "study-seed1-population4",
            "study-seed2-population3",
            "study-seed2-population4",
        ]
        spec = specs["study-seed2-population4"]
        assert spec.seed == 2
        assert spec.config.population == 4
        assert spec.name == "study-seed2-population4"
        assert spec.model == "tiny:mlp"
        # every expanded spec still serializes (fully declarative)
        assert all(s.serializable for s in specs.values())

    def test_name_falls_back_to_base_then_sweep(self):
        specs = expand_sweep({"base": BASE, "grid": {"seed": [5]}})
        assert list(specs) == ["tiny-mlp-seed5"]
        anon = dict(BASE)
        anon.pop("name")
        specs = expand_sweep({"base": anon, "grid": {"seed": [5]}})
        assert list(specs) == ["sweep-seed5"]

    def test_dotted_path_creates_missing_section(self):
        """Sweeping fitness.fast over a base with fitness=null works —
        the intermediate dict is created on the fly."""
        specs = expand_sweep({
            "base": BASE, "grid": {"fitness.fast": [True, False]},
        })
        assert specs["tiny-mlp-fastTrue"].fitness.fast is True
        assert specs["tiny-mlp-fastFalse"].fitness.fast is False

    def test_malformed_documents_raise(self):
        with pytest.raises(ValueError, match="dict"):
            expand_sweep([])
        with pytest.raises(ValueError, match="version"):
            expand_sweep({"version": 99, "base": BASE, "grid": {"seed": [1]}})
        with pytest.raises(ValueError, match="base"):
            expand_sweep({"grid": {"seed": [1]}})
        with pytest.raises(ValueError, match="grid"):
            expand_sweep({"base": BASE})
        with pytest.raises(ValueError, match="non-empty"):
            expand_sweep({"base": BASE, "grid": {"seed": []}})
        with pytest.raises(ValueError, match="unknown sweep field"):
            expand_sweep({"base": BASE, "grid": {"seed": [1]}, "jobs": 3})

    def test_invalid_sweep_point_names_the_point(self):
        with pytest.raises(ValueError, match="tiny-mlp-wormhole9"):
            expand_sweep({
                "base": BASE, "grid": {"config.wormhole": [9]},
            })

    def test_load_sweep_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "base": BASE, "grid": {"seed": [1, 2]},
        }))
        specs = load_sweep(path)
        assert sorted(specs) == ["tiny-mlp-seed1", "tiny-mlp-seed2"]
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_sweep(bad)

    def test_committed_example_sweep_expands(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "examples/specs/tiny_sweep.json"
        )
        specs = load_sweep(path)
        assert len(specs) == 4
        assert all(s.serializable for s in specs.values())


class TestDigest:
    def _spec(self, **overrides) -> SearchSpec:
        fields = dict(
            model="tiny:mlp",
            calib=CalibSpec(batch=4, seed=1),
            config=LPQConfig(population=3, passes=1, cycles=1,
                             diversity_parents=2, hw_widths=(4, 8)),
        )
        fields.update(overrides)
        return SearchSpec(**fields)

    def test_stable_across_processes(self):
        """The digest is a pure content hash — recomputable anywhere."""
        spec = self._spec()
        import hashlib

        payload = spec.to_dict()
        del payload["executor"]
        del payload["name"]
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode()
        ).hexdigest()
        assert spec.digest() == expected

    def test_ignores_executor_and_name(self):
        spec = self._spec()
        assert spec.digest() == self._spec(
            name="label",
            executor=ExecutorConfig("process", workers=2),
        ).digest()

    def test_sensitive_to_search_content(self):
        spec = self._spec()
        assert spec.digest() != self._spec(seed=9).digest()
        assert spec.digest() != self._spec(
            calib=CalibSpec(batch=8, seed=1)
        ).digest()
        assert spec.digest() != self._spec(objective="mse").digest()

    def test_roundtripped_spec_keeps_digest(self):
        spec = self._spec()
        back = SearchSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.digest() == spec.digest()

    def test_inline_spec_refuses(self):
        with pytest.raises(ValueError, match="inline"):
            SearchSpec().digest()


class TestRunSearchCache:
    def test_cache_replay_skips_rerun(self, tmp_path):
        """Second identical run replays from the cache — asserted via
        the CLI, which is what CI exercises."""
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        spec_path = repo / "examples/specs/tiny_mlp.json"
        cache = tmp_path / "cache"

        def run():
            return subprocess.run(
                [sys.executable, str(repo / "scripts/run_search.py"),
                 "--spec", str(spec_path), "--cache-dir", str(cache)],
                capture_output=True, text=True, cwd=repo,
            )

        first = run()
        assert first.returncode == 0, first.stderr
        assert "[cache replay]" not in first.stdout
        assert len(list(cache.glob("*.json"))) == 1
        second = run()
        assert second.returncode == 0, second.stderr
        assert "[cache replay]" in second.stdout
        # same fitness either way
        line = [l for l in first.stdout.splitlines() if "fitness:" in l]
        line2 = [l for l in second.stdout.splitlines() if "fitness:" in l]
        assert line and line == line2

    def test_records_redact_worker_token(self, tmp_path):
        """The shared-secret auth token must never land in --out
        records or cache files (both get committed/uploaded)."""
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        sys.path.insert(0, str(repo / "scripts"))
        try:
            import run_search
        finally:
            sys.path.pop(0)

        spec = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4),
            executor=ExecutorConfig(
                "remote", addresses=("127.0.0.1:7301",), token="s3cret"
            ),
        )

        class FakeResult:
            fitness = 1.0
            mean_weight_bits = 4.0
            mean_act_bits = 8.0
            evaluations = 1

            class solution:
                layer_params = ()

            @staticmethod
            def model_size_mb():
                return 0.1

        # the record builder now lives in repro.serve.store (the daemon
        # shares it); run_search re-exports it
        record = run_search.result_record(spec, FakeResult, None)
        assert record["spec"]["executor"]["token"] is None
        assert "s3cret" not in json.dumps(record)
        # the live spec is untouched (the run itself still needs it)
        assert spec.executor.token == "s3cret"
