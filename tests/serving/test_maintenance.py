"""Background maintenance sweeps: the server-driven health path.

A :class:`MaintenanceThread` runs ``Router.check_all()`` on a period,
so faults are detected and healed without any caller invoking
``check_replica()`` — and shutdown is drain-safe (the thread stops
before the schedulers drain).
"""

import time

import numpy as np
import pytest

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.reliability import FaultInjector
from repro.serving import FeBiMServer, MaintenanceThread, ModelRegistry

PERIOD_S = 0.02


@pytest.fixture()
def served(tmp_path):
    data = load_iris()
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
    registry = ModelRegistry(tmp_path)
    pipe.register_into(registry, "iris")
    server = FeBiMServer(registry, seed=42)
    yield server, pipe, pipe.transform_levels(X_te[:32])
    server.close()


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(PERIOD_S / 2)
    return predicate()


class TestMaintenanceThread:
    def test_sweeps_run_on_the_period(self, served):
        server, _, canaries = served
        server.router.max_current_shift = 0.05
        server.enable_maintenance(PERIOD_S)
        server.router.install_canaries("iris", canaries)
        assert _wait_until(lambda: server.stats().maintenance_sweeps >= 3)
        assert server.maintenance.running

    def test_background_sweep_heals_injected_fault(self, served):
        """The primary path: no caller ever invokes check_replica()."""
        server, _, canaries = served
        server.router.max_current_shift = 0.05
        server.enable_maintenance(PERIOD_S)
        server.router.install_canaries("iris", canaries)
        engine = server.engine_for("iris")
        baseline = engine.infer_batch(canaries).predictions.copy()
        masks = engine.layout.active_columns_batch(canaries)
        column = int(np.argmax(masks.sum(axis=0)))
        FaultInjector(engine.backend, seed=5).inject_dead_column(column, "off")

        assert _wait_until(lambda: server.stats().replacements >= 1)
        snapshot = server.stats()
        # The ladder ran: refresh was insufficient for stuck hardware,
        # replacement healed it, and served results are pristine again.
        assert snapshot.refreshes >= 1
        served_now = server.engine_for("iris").infer_batch(canaries).predictions
        np.testing.assert_array_equal(served_now, baseline)

    def test_sweep_errors_do_not_kill_the_loop(self, served, monkeypatch):
        server, _, canaries = served
        server.enable_maintenance(PERIOD_S)
        server.router.install_canaries("iris", canaries)

        def broken_sweep():
            raise RuntimeError("heal ladder raised mid-sweep")

        # Every sweep now raises inside its heal-ladder step.
        monkeypatch.setattr(server.router, "check_all", broken_sweep)
        assert _wait_until(lambda: server.maintenance.sweep_errors >= 2)
        assert server.maintenance.running

    def test_stop_is_idempotent_and_close_stops(self, served):
        server, _, _ = served
        server.enable_maintenance(PERIOD_S)
        thread = server.maintenance
        server.stop_maintenance()
        server.stop_maintenance()
        assert server.maintenance is None
        assert not thread.running
        server.enable_maintenance(PERIOD_S)
        server.close()
        assert server.maintenance is None

    def test_constructor_period_enables(self, served, tmp_path):
        server, pipe, _ = served
        other = FeBiMServer(
            server.registry, seed=1, maintenance_period_s=PERIOD_S
        )
        try:
            assert other.maintenance is not None and other.maintenance.running
            assert other.maintenance.router is other.router
        finally:
            other.close()

    def test_enable_replaces_previous_thread(self, served):
        server, _, _ = served
        server.enable_maintenance(PERIOD_S)
        first = server.maintenance
        returned = server.enable_maintenance(PERIOD_S * 2)
        assert returned is server.maintenance
        assert not first.running
        assert server.maintenance.period_s == pytest.approx(PERIOD_S * 2)

    def test_invalid_period_rejected(self, served):
        server, _, _ = served
        with pytest.raises(ValueError, match="period_s"):
            MaintenanceThread(0.0, server.router)
