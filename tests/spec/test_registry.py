"""The unified component registry: registration, resolution, and the
legacy lookup tables now backed by it."""

import pytest

from repro.spec import registry
from repro.spec.registry import Registry


class TestRegistry:
    def test_register_resolve_names(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        assert reg.resolve("a") == 1
        assert reg.names() == ("a", "b")

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.resolve("fn") is fn

    def test_duplicate_name_raises_unless_replace(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        reg.register("a", 2, replace=True)
        assert reg.resolve("a") == 2

    def test_invalid_name_raises(self):
        reg = Registry("widget")
        with pytest.raises(ValueError, match="non-empty string"):
            reg.register("", 1)

    def test_failed_bootstrap_import_stays_visible(self):
        """A bootstrap module that fails to import must keep raising the
        real ImportError on every lookup, not degrade later lookups to
        'registered <kind>s: <none>'."""
        reg = Registry("widget", bootstrap=("definitely_missing_mod_xyz",))
        with pytest.raises(ModuleNotFoundError):
            reg.names()
        with pytest.raises(ModuleNotFoundError):  # retried, not masked
            reg.resolve("anything")

    def test_registered_name_resolves_without_bootstrap(self):
        """A serial search resolves the ``serial`` shared pool, which
        its own module registered on import; that lookup must not pay
        for importing the socket transport the family also boots."""
        reg = Registry("widget", bootstrap=("definitely_missing_mod_xyz",))
        reg.register("a", 1)
        assert reg.resolve("a") == 1
        with pytest.raises(ModuleNotFoundError):
            reg.resolve("b")

    def test_unknown_name_raises_actionable_keyerror(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(KeyError, match="unknown widget 'b'.*a"):
            reg.resolve("b")

    def test_mapping_interface(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        assert "a" in reg and "c" not in reg
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2
        assert reg["b"] == 2
        assert dict(reg) == {"a": 1, "b": 2}


class TestModuleLevelApi:
    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown registry"):
            registry.registry("nope")

    def test_builtin_executors(self):
        assert registry.names("executor") == (
            "serial", "process", "remote"
        )

    def test_builtin_shared_pools(self):
        assert registry.names("shared_pool") == (
            "serial", "process", "remote"
        )

    def test_builtin_objectives_bootstrap_on_lookup(self):
        assert "global_local_contrastive" in registry.names("objective")
        assert registry.resolve("objective", "mse") == "MSE"

    def test_builtin_models_include_every_suite(self):
        names = registry.names("model")
        assert "tiny:resnet" in names and "tiny:mlp" in names
        assert "zoo:resnet18" in names
        assert "bench:vit" in names

    def test_register_and_resolve_extension(self):
        registry.register(
            "model", "test:ext", lambda: None, replace=True
        )
        try:
            assert registry.resolve("model", "test:ext")() is None
        finally:
            # global registries outlive the test; leave no trace
            registry.registry("model")._entries.pop("test:ext", None)


class TestLegacyTablesAreRegistries:
    def test_objectives_table(self):
        from repro.quant import OBJECTIVES

        assert OBJECTIVES is registry.registry("objective")
        assert OBJECTIVES["mse"] == "MSE"
        assert "kl" in OBJECTIVES
        assert len(sorted(OBJECTIVES)) == len(OBJECTIVES)

    def test_format_families_table(self):
        from repro.numerics.registry import FORMAT_FAMILIES

        assert FORMAT_FAMILIES is registry.registry("format_family")
        assert sorted(FORMAT_FAMILIES) == sorted(
            ["int", "float", "adaptivfloat", "posit", "lns", "flint", "lp"]
        )

    def test_executor_config_accepts_registered_backend(self):
        from repro.parallel import ExecutorConfig

        with pytest.raises(ValueError, match="unknown backend"):
            ExecutorConfig("warp-drive")
        registry.register(
            "executor", "test-backend", lambda spec, config, perf: None,
            replace=True,
        )
        try:
            assert ExecutorConfig("test-backend").backend == "test-backend"
        finally:
            registry.registry("executor")._entries.pop("test-backend", None)
