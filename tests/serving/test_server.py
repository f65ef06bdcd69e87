"""The multi-tenant server: routing, RNG streams, telemetry, lifecycle."""

import threading

import numpy as np
import pytest

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    FeBiMServer,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.server import model_stream_seed


def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(
        ModelRegistry(tmp_path / "reg"),
        policy=BatchPolicy(max_batch=8),
        seed=0,
    ) as srv:
        srv.register("alpha", make_model(seed=1))
        srv.register("beta", make_model(seed=2))
        yield srv


class TestRouting:
    def test_predict_round_trip(self, server):
        result = server.predict("alpha", np.array([0, 1, 2]), timeout=5)
        engine = server.engine_for("alpha")
        direct = engine.infer_batch(np.array([[0, 1, 2]]))
        assert result.prediction == direct.predictions[0]

    def test_models_listing(self, server):
        assert sorted(server.models()) == ["alpha", "beta"]

    def test_tenants_route_to_distinct_engines(self, server):
        assert server.engine_for("alpha") is not server.engine_for("beta")

    def test_unknown_model_raises(self, server):
        with pytest.raises(KeyError):
            server.predict("ghost", np.array([0, 0, 0]), timeout=5)

    def test_version_pinning(self, server):
        server.register("alpha", make_model(k=5, seed=9))
        pinned = server.predict("alpha", np.array([0, 1, 2]), version=1, timeout=5)
        assert pinned.model == "alpha@v1"
        latest = server.predict("alpha", np.array([0, 1, 2]), timeout=5)
        assert latest.model == "alpha@v2"

    def test_reregister_serves_new_weights(self, server):
        before = server.engine_for("alpha")
        server.register("alpha", make_model(seed=3))
        after = server.engine_for("alpha")
        assert after is not before

    def test_submit_many(self, server):
        futures = server.submit_many("beta", np.zeros((5, 3), dtype=int))
        preds = {f.result(timeout=5).prediction for f in futures}
        assert len(preds) == 1  # identical inputs, identical outputs


class TestRngStreams:
    def test_stream_seed_is_stable(self):
        assert model_stream_seed(0, "alpha", 1) == model_stream_seed(0, "alpha", 1)

    def test_stream_seed_distinct_per_tenant(self):
        seeds = {
            model_stream_seed(0, name, version)
            for name in ("alpha", "beta", "gamma")
            for version in (1, 2)
        }
        assert len(seeds) == 6

    def test_none_base_stays_none(self):
        assert model_stream_seed(None, "alpha", 1) is None

    def test_same_seed_servers_share_engine_stream(self, tmp_path, server):
        with FeBiMServer(
            ModelRegistry(tmp_path / "reg2"),
            policy=BatchPolicy(max_batch=8),
            seed=0,
        ) as other:
            other.register("alpha", make_model(seed=1))
            a = server.predict("alpha", np.array([1, 1, 1]), timeout=5)
            b = other.predict("alpha", np.array([1, 1, 1]), timeout=5)
            assert a.prediction == b.prediction
            assert a.delay == b.delay


class TestTelemetryAndLifecycle:
    def test_stats_track_requests(self, server):
        for _ in range(3):
            server.predict("alpha", np.array([0, 0, 0]), timeout=5)
        snapshot = server.stats()
        assert snapshot.submitted == snapshot.completed == 3
        assert snapshot.batches >= 1
        assert snapshot.per_model.get("alpha@v1") == 3
        assert snapshot.p50_latency_s > 0

    def test_snapshot_to_dict_is_json_ready(self, server):
        import json

        server.predict("alpha", np.array([0, 0, 0]), timeout=5)
        text = json.dumps(server.stats().to_dict())
        assert "occupancy" in text

    def test_drain_then_close_clean(self, tmp_path):
        server = FeBiMServer(ModelRegistry(tmp_path / "reg3"), seed=0)
        server.register("m", make_model())
        futures = server.submit_many("m", np.zeros((4, 3), dtype=int))
        assert server.drain(timeout=30)
        server.close()
        assert all(f.done() and not f.cancelled() for f in futures)
        snapshot = server.stats()
        assert snapshot.in_flight == 0
        assert snapshot.completed == 4

    def test_close_idempotent(self, tmp_path):
        server = FeBiMServer(ModelRegistry(tmp_path / "reg4"), seed=0)
        server.close()
        server.close()

    def test_implicit_deployments_leave_nothing_behind(self, tmp_path):
        """Each undeployed route is served by an implicit deployment
        owning a scheduler thread; close() must stop every one of them
        and leave the request ledger balanced."""
        before = set(threading.enumerate())
        server = FeBiMServer(
            ModelRegistry(tmp_path / "reg6"),
            policy=BatchPolicy(max_batch=8),
            seed=0,
        )
        for seed, name in enumerate(("alpha", "beta", "gamma", "delta")):
            server.register(name, make_model(seed=seed + 1))
        server.register("alpha", make_model(k=5, seed=9))
        server.deploy(
            Deployment(
                "delta",
                [ReplicaSpec("fefet"), ReplicaSpec("ideal")],
                RoutingPolicy("round_robin"),
            )
        )
        futures = []
        for name, version in (
            ("alpha", 1), ("beta", None), ("gamma", None), ("delta", None)
        ):
            futures.append(server.submit(name, np.array([0, 1, 2]), version))
            futures += server.submit_many(
                name, np.zeros((5, 3), dtype=int), version
            )
        # Three implicit replicas and two deployed ones, a thread each.
        assert len(set(threading.enumerate()) - before) >= 5
        assert [f.result(timeout=5).model for f in futures[:6]] == (
            ["alpha@v1"] * 6
        )
        assert list(server.deployments()) == ["delta"]
        server.close()
        assert set(threading.enumerate()) - before == set()
        snapshot = server.stats()
        assert snapshot.in_flight == 0
        assert snapshot.submitted == len(futures)
        assert snapshot.submitted == (
            snapshot.completed + snapshot.failed
            + snapshot.shed_requests + snapshot.cancelled
        )


class TestImplicitLifecycle:
    """An implicit deployment lives as long as the registry's view of
    its model: invalidation or eviction rebuilds the route and drains
    the stale deployment."""

    SAMPLE = np.array([0, 1, 2])

    def test_reregister_keeps_thread_count_bounded(self, server):
        server.predict("alpha", self.SAMPLE, timeout=5)
        threads = threading.active_count()
        for version in range(2, 7):
            server.register("alpha", make_model(seed=version + 1))
            pinned = server.predict("alpha", self.SAMPLE, version=1, timeout=5)
            assert pinned.model == "alpha@v1"
            latest = server.predict("alpha", self.SAMPLE, timeout=5)
            assert latest.model == f"alpha@v{version}"
            # v1 (rebuilt) and the latest version; stale ones drained.
            assert threading.active_count() <= threads + 1
        snapshot = server.stats()
        assert snapshot.completed == snapshot.submitted == 11

    def test_unregistered_model_stops_serving(self, server):
        before = set(threading.enumerate())
        server.predict("alpha", self.SAMPLE, version=1, timeout=5)
        server.registry.unregister("alpha")
        with pytest.raises(KeyError, match="no version 1"):
            server.submit("alpha", self.SAMPLE, version=1)
        # The sweep drains the orphan; nothing else is deployed.
        assert server.router.check_all() == []
        assert set(threading.enumerate()) - before == set()

    def test_evicted_implicit_replica_is_rebuilt(self, server):
        canaries = np.array([[0, 1, 2], [3, 2, 1], [1, 1, 1]])
        server.router.install_canaries("alpha", canaries)
        server.router.kill_replica("alpha", 0)
        assert server.router.check_replica("alpha", 0).action == "evict"
        # The next sweep drains the dead deployment; the next request
        # rebuilds the route on the installed canaries.
        assert server.router.check_all() == []
        result = server.predict("alpha", self.SAMPLE, timeout=5)
        assert result.model == "alpha@v1"
        np.testing.assert_array_equal(
            server.router.serving("alpha").canaries, canaries
        )
        assert server.router.check_replica("alpha", 0).ok

    def test_implicit_deployments_are_capped(self, tmp_path):
        """At most ``router.max_implicit`` implicit deployments live: a
        build beyond that drains and shuts the least recently served
        one, whose next request rebuilds it bit for bit."""
        with FeBiMServer(
            ModelRegistry(tmp_path / "reg"),
            policy=BatchPolicy(max_batch=8),
            seed=0,
        ) as server:
            server.router.max_implicit = 2
            names = ["m0", "m1", "m2", "m3"]
            for i, name in enumerate(names):
                server.register(name, make_model(seed=i + 1))
            before = set(threading.enumerate())
            first = server.predict("m0", self.SAMPLE, timeout=5)
            for name in names[1:]:
                server.predict(name, self.SAMPLE, timeout=5)
            schedulers = {
                t for t in set(threading.enumerate()) - before
                if t.name == "febim-microbatch"
            }
            assert len(schedulers) <= 2
            assert sorted(
                name for name, _ in server.router._implicit
            ) == ["m2", "m3"]
            again = server.predict("m0", self.SAMPLE, timeout=5)
            assert (again.prediction, again.delay, again.energy_total) == (
                first.prediction, first.delay, first.energy_total
            )
            snapshot = server.stats()
            assert snapshot.completed == snapshot.submitted == 5

    def test_deploy_racing_an_implicit_build_wins(self, server, monkeypatch):
        router = server.router
        build = router._build
        spec = Deployment("alpha", [ReplicaSpec("fefet")], RoutingPolicy("cost"))

        def racing(deployment, version, implicit=False, canaries=None):
            built = build(deployment, version, implicit, canaries)
            if implicit:
                server.deploy(spec)  # lands before the build is published
            return built

        before = set(threading.enumerate())
        monkeypatch.setattr(router, "_build", racing)
        dep = router.serving("alpha")
        assert dep is router.deployment_for("alpha") and not dep.implicit
        # Only the deployment's replica runs; the losing build shut down.
        assert len(set(threading.enumerate()) - before) == 1

    def test_engine_for_skips_a_dead_replica_0(self, server):
        dep = server.deploy(
            Deployment(
                "alpha",
                [ReplicaSpec("fefet"), ReplicaSpec("ideal")],
                RoutingPolicy("cost"),
            )
        )
        assert server.engine_for("alpha") is dep.replicas[0].engine
        server.router.kill_replica("alpha", 0)
        assert server.engine_for("alpha") is dep.replicas[1].engine


class TestTiledRouting:
    def test_many_class_tenant_served_tiled(self, tmp_path):
        with FeBiMServer(
            ModelRegistry(tmp_path / "reg5"),
            policy=BatchPolicy(max_batch=4),
            seed=0,
            max_rows=8,
        ) as server:
            model = make_model(k=20, seed=4)
            server.register("tall", model)
            engine = server.engine_for("tall")
            assert engine.n_tiles == 3
            sample = np.array([0, 1, 2])
            result = server.predict("tall", sample, timeout=5)
            direct = engine.infer_batch(sample[None, :])
            assert result.prediction == direct.predictions[0]
            assert result.delay == pytest.approx(float(direct.delay[0]))
            assert result.energy_total == pytest.approx(
                float(direct.energy.total[0])
            )
