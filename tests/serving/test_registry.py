"""Model registry: versioned persistence + engine materialisation."""

import numpy as np
import pytest

from repro.core import FeBiMEngine, quantize_model
from repro.crossbar.tiling import TiledFeBiM
from repro.devices import MultiLevelCellSpec
from repro.serving import ModelRegistry


def make_model(k=3, m=4, seed=0, n_levels=4):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(2):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=n_levels)


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry", engine_cache_size=2)


class TestRegistration:
    def test_first_registration_is_v1(self, registry):
        assert registry.register("iris", make_model()) == 1

    def test_versions_increment(self, registry):
        registry.register("m", make_model(seed=0))
        registry.register("m", make_model(seed=1))
        assert registry.versions("m") == [1, 2]
        assert registry.latest_version("m") == 2

    def test_list_models(self, registry):
        registry.register("a", make_model())
        registry.register("b", make_model())
        assert sorted(registry.list_models()) == ["a", "b"]

    def test_round_trip_latest(self, registry):
        model = make_model(seed=3)
        registry.register("m", model)
        rebuilt, spec = registry.load("m")
        for a, b in zip(rebuilt.likelihood_levels, model.likelihood_levels):
            np.testing.assert_array_equal(a, b)
        assert spec.n_levels == model.quantizer.n_levels

    def test_pinned_version_load(self, registry):
        old = make_model(seed=0, k=3)
        registry.register("m", old)
        registry.register("m", make_model(seed=1, k=4))
        rebuilt, _ = registry.load("m", version=1)
        assert rebuilt.n_classes == 3

    def test_unknown_name_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="no model"):
            registry.load("ghost")

    def test_bad_names_rejected(self, registry):
        for bad in ("", "../escape", "a b", "x" * 70, None):
            with pytest.raises(ValueError):
                registry.register(bad, make_model())

    def test_unregister(self, registry):
        registry.register("m", make_model())
        registry.get_engine("m", seed=0)
        registry.unregister("m")
        assert "m" not in registry

    def test_persistence_across_instances(self, registry):
        registry.register("m", make_model(seed=5))
        reborn = ModelRegistry(registry.root)
        assert reborn.versions("m") == [1]


class TestEngineCache:
    def test_materializes_flat_engine(self, registry):
        registry.register("m", make_model())
        engine = registry.get_engine("m", seed=0)
        assert isinstance(engine, FeBiMEngine)

    def test_materializes_tiled_engine(self, registry):
        registry.register("m", make_model(k=20))
        engine = registry.get_engine("m", seed=0, max_rows=8)
        assert isinstance(engine, TiledFeBiM)
        assert engine.n_tiles == 3

    def test_distinct_seeds_distinct_entries(self, registry):
        registry.register("m", make_model())
        assert registry.get_engine("m", seed=0) is not registry.get_engine("m", seed=1)

    def test_reregister_invalidates(self, registry):
        registry.register("m", make_model(seed=0))
        stale = registry.get_engine("m", seed=0)
        registry.register("m", make_model(seed=1))
        fresh = registry.get_engine("m", seed=0)
        assert fresh is not stale

    def test_latest_resolution_after_reregister(self, registry):
        registry.register("m", make_model(seed=0, k=3))
        registry.get_engine("m", seed=0)
        registry.register("m", make_model(seed=1, k=5))
        assert registry.get_engine("m", seed=0).model.n_classes == 5

    def test_engine_spec_round_trips(self, registry):
        spec = MultiLevelCellSpec(n_levels=4, i_min=0.2e-6, i_max=2.0e-6)
        registry.register("m", make_model(), spec)
        engine = registry.get_engine("m", seed=0)
        assert engine.spec.i_min == pytest.approx(0.2e-6)

    def test_latest_version_cache_refreshed_by_invalidate(self, registry):
        registry.register("m", make_model(seed=0))
        assert registry.latest_version("m") == 1
        # Another process writes v2 directly into the shared directory.
        ModelRegistry(registry.root).register("m", make_model(seed=1))
        assert registry.latest_version("m") == 1  # cached (documented)
        registry.invalidate("m")
        assert registry.latest_version("m") == 2

    def test_no_stray_temp_files_after_register(self, registry):
        registry.register("m", make_model())
        leftovers = [
            p for p in (registry.root / "m").iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_n_features_contract_both_flavours(self, registry):
        registry.register("m", make_model(k=20))
        flat = registry.get_engine("m", seed=0)
        tiled = registry.get_engine("m", seed=0, max_rows=8)
        assert flat.n_features == tiled.n_features == 2


class TestPipelineRegistration:
    def test_register_into(self, registry):
        from repro import FeBiMPipeline, load_iris, train_test_split

        data = load_iris()
        X_tr, _, y_tr, _ = train_test_split(
            data.data, data.target, test_size=0.7, seed=0
        )
        pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
        assert pipe.register_into(registry, "iris") == 1
        rebuilt, spec = registry.load("iris")
        assert rebuilt.n_features == 4
        assert spec.n_levels == 4

    def test_register_into_requires_fit(self, registry):
        from repro import FeBiMPipeline

        with pytest.raises(RuntimeError, match="not fitted"):
            FeBiMPipeline().register_into(registry, "unfit")
