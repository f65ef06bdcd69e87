"""Hardware-plane observability wired through the serving stack.

Margin and current-shift channels on the router's heal ladder, the
device-health ledger behind ``sample_metrics``, hardware gauges in the
Prometheus rendering, the spare-repair rung, and margin attributes on
traced execute spans.
"""

import numpy as np
import pytest

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.devices import RetentionModel
from repro.reliability import AgeClock, FaultInjector
from repro.serving import FeBiMServer, ModelRegistry
from repro.serving.deployment import Deployment, ReplicaSpec, RoutingPolicy
from repro.serving.observability import parse_prometheus, to_prometheus


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
    yield server, pipe, X_te
    server.close()


def _events(obs, kind):
    return [e for e in obs.recorder.events() if e.kind == kind]


def _install(server, pipe, X_te):
    canaries = pipe.transform_levels(X_te[:32])
    server.router.install_canaries("iris", canaries)
    return canaries


def _check(server):
    return server.router.check_replica("iris", 0)


class TestSweepMarginChannel:
    def test_pristine_report_carries_unity_margin_fields(self, served):
        server, pipe, X_te = served
        _install(server, pipe, X_te)
        report = _check(server)
        assert report.ok
        assert report.signal_ratio == pytest.approx(1.0)
        assert report.margin == report.margin  # a real number, not NaN
        d = report.to_dict()
        assert d["signal_ratio"] == pytest.approx(1.0)
        assert d["margin"] is not None

    def test_margin_warning_arms_ladder_before_flip(self, served):
        server, pipe, X_te = served
        obs = server.enable_observability()
        server.router.min_signal_ratio = 0.7
        _install(server, pipe, X_te)
        engine = server.engine_for("iris")
        clock = AgeClock(
            engine.backend, retention=RetentionModel(drift_rate=0.2)
        )
        clock.advance(0.658)  # signal ratio ~0.61: below floor, no flip
        report = _check(server)
        assert report.accuracy == 1.0, "corner drifted into a real flip"
        assert report.action == "refresh" and report.healed
        assert report.signal_ratio < 0.7
        warnings = _events(obs, "margin_warning")
        assert warnings, "margin collapse below the floor did not warn"
        assert warnings[0].detail["signal_ratio"] < 0.7
        assert not _events(obs, "drift_alarm")  # shift channel disarmed

    def test_drift_alarm_on_shift_without_flip(self, served):
        server, pipe, X_te = served
        obs = server.enable_observability()
        server.router.max_current_shift = 0.05
        _install(server, pipe, X_te)
        engine = server.engine_for("iris")
        clock = AgeClock(
            engine.backend, retention=RetentionModel(drift_rate=0.2)
        )
        clock.advance(0.3)
        report = _check(server)
        assert report.accuracy == 1.0
        assert report.current_shift > 0.05
        alarms = _events(obs, "drift_alarm")
        assert alarms and alarms[0].detail["shift"] > 0.05

    def test_canary_failure_event_carries_margin_detail(self, served):
        server, pipe, X_te = served
        obs = server.enable_observability()
        server.router.max_current_shift = 0.05
        canaries = _install(server, pipe, X_te)
        engine = server.engine_for("iris")
        masks = engine.layout.active_columns_batch(canaries)
        column = int(np.argmax(masks.sum(axis=0)))
        FaultInjector(engine.crossbar, seed=5).inject_dead_column(
            column, mode="off"
        )
        _check(server)
        failures = _events(obs, "canary_failure")
        assert failures
        detail = failures[0].detail
        assert "accuracy" in detail and "shift" in detail
        assert "signal_ratio" in detail and "margin_p50" in detail

    def test_sweep_reads_the_replica_that_serves(self, served):
        """The sweep checks the engine requests are served by: replica
        0 of an ``ideal`` + ``cmos`` deployment over a ``fefet``
        registry, not a registry engine no request reads."""
        server, pipe, X_te = served
        server.deploy(
            Deployment(
                model="iris",
                replicas=(ReplicaSpec("ideal"), ReplicaSpec("cmos")),
                policy=RoutingPolicy(kind="cost"),
            )
        )
        server.router.max_current_shift = 0.05
        _install(server, pipe, X_te)
        engine = server.router.deployment_for("iris").replicas[0].resolve()
        assert engine is server.engine_for("iris")
        stuck = np.zeros(
            (engine.backend.rows, engine.backend.cols), dtype=bool
        )
        stuck[:, : engine.backend.cols // 2] = True
        engine.backend.inject_stuck_faults(stuck_off=stuck)
        report = _check(server)
        assert report.replica.endswith("[ideal]")
        assert report.action in ("refresh", "spare_repair", "replace", "evict")
        assert report.current_shift > 0.05


class TestRouterHardwarePlane:
    def _deploy(self, server, spec=None):
        server.deploy(
            Deployment(
                model="iris",
                replicas=(spec or ReplicaSpec("fefet"),),
                policy=RoutingPolicy(kind="cost"),
            )
        )

    def test_hardware_status_samples_every_replica(self, served):
        server, _, _ = served
        self._deploy(server)
        samples = server.router.hardware_status("iris")
        assert len(samples) == 1
        sample = samples[0]
        assert sample.replica.endswith("[fefet]")
        assert sample.state == "healthy"
        assert sample.signal_ratio == pytest.approx(1.0)
        with pytest.raises(KeyError):
            server.router.hardware_status("missing")

    def test_sample_metrics_fills_ledger_and_gauges(self, served):
        server, _, _ = served
        obs = server.enable_observability()
        self._deploy(server)
        point = server.sample_metrics()
        assert len(obs.ledger) == 1
        hardware = point.hardware
        assert hardware is not None
        assert hardware["signal_ratio"] == pytest.approx(1.0)
        assert list(hardware["per_replica"]) == [
            obs.ledger.samples()[0].replica
        ]

    def test_hardware_gauges_round_trip_prometheus(self, served):
        server, _, _ = served
        server.enable_observability()
        self._deploy(server)
        point = server.sample_metrics()
        text = to_prometheus(
            server.stats(), replicas=1, hardware=point.hardware
        )
        series = parse_prometheus(text)
        assert series["febim_signal_ratio"] == pytest.approx(1.0)
        assert series["febim_wear_fraction"] == pytest.approx(0.0, abs=1e-6)
        assert "febim_maintenance_sweeps_total" in series
        label = next(
            k for k in series if k.startswith("febim_replica_signal_ratio")
        )
        assert "[fefet]" in label and series[label] == pytest.approx(1.0)

    def test_disabled_observability_detaches_ledger(self, served):
        server, _, _ = served
        obs = server.enable_observability()
        self._deploy(server)
        server.disable_observability()
        assert server.sample_hardware() is None
        server.router.check_all()
        assert len(obs.ledger) == 0

    def test_spare_repair_rung_fixes_stuck_row(self, served):
        server, _, _ = served
        obs = server.enable_observability()
        self._deploy(
            server, ReplicaSpec("fefet", backend_options={"spare_rows": 2})
        )
        dep = server.router.deployment_for("iris")
        replica = dep.replicas[0]
        engine = replica.resolve()
        assert engine.backend.spare_rows_free == 2
        # Stick the majority class's wordline off: predictions flip,
        # a reprogram cannot clear stuck hardware, but one spare can.
        row = int(np.bincount(replica.baseline).argmax())
        stuck = np.zeros(
            (engine.backend.rows, engine.backend.cols), dtype=bool
        )
        stuck[row, :] = True
        engine.backend.inject_stuck_faults(stuck_off=stuck)
        report = server.router.check_replica("iris", 0)
        assert report.action == "spare_repair", report
        assert report.healed and report.accuracy < 1.0
        assert server.router.check_replica("iris", 0).accuracy == 1.0
        repairs = _events(obs, "spare_repair")
        assert repairs and row in repairs[0].detail["rows"]
        assert engine.backend.spare_rows_free < 2
        # The next hardware sample sees the thinner spare pool.
        sample = server.router.hardware_status("iris")[0]
        assert sample.spares_free == engine.backend.spare_rows_free

    def test_router_margin_floor_heals_common_mode_collapse(self, served):
        server, _, _ = served
        obs = server.enable_observability()
        self._deploy(server)
        server.router.min_signal_ratio = 0.7
        dep = server.router.deployment_for("iris")
        engine = dep.replicas[0].resolve()
        clock = AgeClock(
            engine.backend, retention=RetentionModel(drift_rate=0.2)
        )
        clock.advance(5.0)  # deep common-mode collapse, no flip
        report = server.router.check_replica("iris", 0)
        assert report.action == "refresh" and report.healed
        assert report.accuracy == 1.0
        assert report.signal_ratio < 0.7  # the state the sweep found
        warnings = _events(obs, "margin_warning")
        refreshes = _events(obs, "refresh")
        assert warnings and refreshes
        assert warnings[0].seq < refreshes[0].seq
        follow_up = server.router.check_replica("iris", 0)
        assert follow_up.ok
        assert follow_up.signal_ratio == pytest.approx(1.0)


class TestExecuteSpanMargin:
    def test_traced_execute_span_carries_margin(self, served):
        server, pipe, X_te = served
        obs = server.enable_observability(trace_rate=1.0)
        level = pipe.transform_levels(X_te[:1])[0]
        server.predict("iris", level)
        traces = obs.tracer.finished()
        assert traces
        execute = next(
            s for s in traces[-1].spans if s.name == "execute"
        )
        assert 0.0 <= execute.attributes["margin"] <= 1.0
        assert execute.attributes["signal"] > 0.0
