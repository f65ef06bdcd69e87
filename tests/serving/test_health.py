"""The heal ladder over an undeployed model: canaries, detection, repair.

An undeployed model is served by an implicit one-replica deployment, so
``Router.check_replica(name, 0)`` sweeps the replica that serves it.
"""

import numpy as np
import pytest

from repro.core import quantize_model
from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.devices import RetentionModel
from repro.reliability import AgeClock, FaultInjector
from repro.serving import (
    Deployment,
    DeploymentError,
    FeBiMServer,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)


@pytest.fixture(scope="module")
def fitted():
    data = load_iris()
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
    return pipe, X_te


@pytest.fixture()
def served(fitted, tmp_path):
    pipe, X_te = fitted
    registry = ModelRegistry(tmp_path / "registry")
    pipe.register_into(registry, "iris")
    server = FeBiMServer(registry, seed=42)
    server.router.max_current_shift = 0.05
    canaries = pipe.transform_levels(X_te[:32])
    server.router.install_canaries("iris", canaries)
    yield server, canaries
    server.close()


def _check(server):
    return server.router.check_replica("iris", 0)


def _busiest_column(engine, canaries) -> int:
    """The evidence column the most canaries activate — killing it is
    guaranteed to be visible to the sweep."""
    masks = engine.layout.active_columns_batch(canaries)
    return int(np.argmax(masks.sum(axis=0)))


class TestInstallAndCheck:
    def test_pristine_engine_passes(self, served):
        server, _ = served
        report = _check(server)
        assert report.ok and report.healed
        assert report.accuracy == 1.0
        assert report.current_shift == 0.0
        snapshot = server.stats()
        assert snapshot.health_checks == 1
        assert snapshot.canary_failures == 0

    def test_installed_versions_listed(self, served):
        server, canaries = served
        assert server.router.install_canaries("iris", canaries) == 1
        np.testing.assert_array_equal(
            server.router.serving("iris").canaries, canaries
        )
        # An implicit deployment serves, but is not an applied spec.
        assert server.deployments() == {}

    def test_check_without_deployment_raises(self, served):
        server, _ = served
        with pytest.raises(KeyError):
            server.router.check_replica("missing-model", 0)
        # A control call finds an implicit deployment but never builds
        # one: v2 has not been served yet.
        server.register("iris", quantize_model(
            [np.full((3, 4), 0.25)] * 4, np.full(3, 1 / 3), n_levels=4
        ))
        with pytest.raises(KeyError, match="no deployment"):
            server.router.check_replica("iris", 0)
        with pytest.raises(KeyError):
            server.router.status("iris")

    def test_install_refuses_an_unreadable_replica(self, served):
        """All or nothing: a killed replica fails the install before any
        replica re-baselines, so its sibling keeps sweeping clean."""
        server, canaries = served
        server.deploy(
            Deployment(
                "iris",
                [ReplicaSpec("fefet"), ReplicaSpec("fefet")],
                RoutingPolicy("cost"),
            )
        )
        server.router.kill_replica("iris", 1)
        with pytest.raises(DeploymentError, match="r1"):
            server.router.install_canaries("iris", canaries)
        assert server.router.serving("iris").canaries.shape[0] == 8
        reports = server.router.check_all()
        assert [r.action for r in reports] == ["ok", "evict"]

    def test_canary_levels_validated(self, served):
        server, _ = served
        with pytest.raises(ValueError):
            server.router.install_canaries("iris", np.zeros((0, 4), dtype=int))
        with pytest.raises(ValueError):
            server.router.install_canaries("iris", np.zeros(4, dtype=int))

    def test_threshold_validation(self, served):
        server, _ = served
        with pytest.raises(ValueError):
            server.router.max_current_shift = -0.1


class TestHealing:
    def test_drift_heals_by_refresh(self, served):
        server, _ = served
        engine = server.engine_for("iris")
        AgeClock(engine.crossbar, RetentionModel(drift_rate=0.08)).advance(3e8)
        report = _check(server)
        assert report.action == "refresh"
        assert report.healed
        assert server.stats().refreshes == 1
        assert server.stats().replacements == 0
        assert _check(server).ok

    def test_stuck_column_escalates_to_replace(self, served):
        server, canaries = served
        engine = server.engine_for("iris")
        FaultInjector(engine.crossbar, seed=5).inject_dead_column(
            _busiest_column(engine, canaries), mode="off"
        )
        report = _check(server)
        assert report.action == "replace"
        assert report.healed
        # FeBiM decisions are robust: the dead column shows up in the
        # analog read signature, not (yet) in flipped predictions.
        assert report.current_shift > server.router.max_current_shift
        snapshot = server.stats()
        assert snapshot.refreshes == 1 and snapshot.replacements == 1
        # The replacement is pristine hardware: the served engine is a
        # new object and the canaries pass bit-for-bit again.
        final = _check(server)
        assert final.ok and final.accuracy == 1.0
        assert server.engine_for("iris") is not engine

    def test_served_requests_hit_replacement(self, served):
        server, canaries = served
        engine = server.engine_for("iris")
        baseline = engine.infer_batch(canaries).predictions.copy()
        FaultInjector(engine.crossbar, seed=5).inject_dead_column(
            _busiest_column(engine, canaries), mode="off"
        )
        assert _check(server).healed
        served_preds = np.array(
            [server.predict("iris", level).prediction for level in canaries[:8]]
        )
        np.testing.assert_array_equal(served_preds, baseline[:8])

    def test_check_all_sweeps_every_canary_set(self, served):
        server, _ = served
        reports = server.router.check_all()
        assert [r.replica for r in reports] == ["iris@v1[fefet]"]

    def test_heal_under_live_traffic_serves_no_garbage(self, served):
        """The repair ladder quiesces the replica's scheduler: every request
        submitted around a heal resolves to a pristine-baseline
        prediction — none may observe a half-reprogrammed array."""
        import threading

        server, canaries = served
        engine = server.engine_for("iris")
        baseline = engine.infer_batch(canaries).predictions.copy()
        FaultInjector(engine.crossbar, seed=5).inject_dead_column(
            _busiest_column(engine, canaries), mode="on"
        )
        # The stuck-on column is common-mode on iris: predictions stay
        # baseline even degraded, so *any* deviation in the served
        # results below can only come from reading mid-repair state.
        np.testing.assert_array_equal(
            engine.infer_batch(canaries).predictions, baseline
        )
        stop = threading.Event()
        futures = []

        def submitter():
            i = 0
            while not stop.is_set():
                futures.append(server.submit("iris", canaries[i % 32]))
                i += 1

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        try:
            report = _check(server)
        finally:
            stop.set()
            thread.join()
        assert report.healed
        assert server.drain(timeout=30)
        results = np.array([f.result(timeout=5).prediction for f in futures])
        expected = baseline[np.arange(len(futures)) % 32]
        np.testing.assert_array_equal(results, expected)
