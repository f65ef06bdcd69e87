"""Unit tests for the observability plane: traces, events, metrics."""

import dataclasses
import json
import math
import time

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
from repro.serving.observability import (
    EVENT_KINDS,
    FlightRecorder,
    MetricsRing,
    Observability,
    Trace,
    Tracer,
    count_replicas,
    format_events,
    format_trace_dicts,
    parse_prometheus,
    to_prometheus,
)
from repro.serving.telemetry import COUNTERS, Telemetry, TelemetrySnapshot
from repro.serving.workload import Fault, Scenario, run_scenario


def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


# -------------------------------------------------------------------- tracing
class TestSpanAndTrace:
    def test_spans_partition_the_trace(self):
        trace = Trace(0, "m@v1")
        t0 = trace.created_s
        trace.add_span("admit", t0, t0 + 0.001)
        span = trace.span("queue", start_s=t0 + 0.001)
        assert trace.open_spans() == [span]
        span.end(t0 + 0.004, lane=0)
        trace.add_span("execute", t0 + 0.004, t0 + 0.006, batch=8)
        trace.finish("served")
        assert trace.open_spans() == []
        assert trace.span_total_s() == pytest.approx(0.006)
        assert [s.name for s in trace.spans] == ["admit", "queue", "execute"]

    def test_span_end_is_idempotent_first_close_wins(self):
        trace = Trace(0, "m")
        span = trace.span("queue", start_s=1.0)
        span.end(2.0)
        span.end(9.0, extra="late")
        assert span.end_s == 2.0
        assert span.attributes["extra"] == "late"

    def test_finish_is_idempotent_first_outcome_wins(self):
        trace = Trace(0, "m")
        trace.finish("shed")
        finished_at = trace.finished_s
        trace.finish("served")
        assert trace.outcome == "shed"
        assert trace.finished_s == finished_at

    def test_open_span_has_zero_duration_and_survives_to_dict(self):
        trace = Trace(3, "m", client="c1")
        trace.span("queue")
        d = trace.to_dict()
        assert d["client"] == "c1"
        assert d["finished"] is False
        assert d["spans"][0]["closed"] is False
        assert d["spans"][0]["duration_ms"] == 0.0
        json.dumps(d)

    def test_format_lines_mentions_every_span(self):
        trace = Trace(7, "m@v2")
        trace.add_span("admit", 0.0, 0.5)
        trace.finish("served")
        text = trace.format_lines()
        assert "trace 7" in text and "admit" in text and "served" in text


class TestTracer:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(0.0)
        assert not tracer.enabled
        assert all(tracer.sample("m") is None for _ in range(100))
        assert tracer.traces() == []

    def test_deterministic_every_nth(self):
        tracer = Tracer(0.25)
        hits = [tracer.sample("m") is not None for _ in range(12)]
        assert hits == [True, False, False, False] * 3

    def test_rate_one_traces_everything(self):
        tracer = Tracer(1.0)
        assert sum(tracer.sample("m") is not None for _ in range(10)) == 10

    def test_ring_evicts_oldest(self):
        tracer = Tracer(1.0, capacity=4)
        for _ in range(10):
            tracer.sample("m")
        retained = tracer.traces()
        assert len(retained) == 4
        assert [t.trace_id for t in retained] == [6, 7, 8, 9]

    def test_jsonl_round_trip(self):
        tracer = Tracer(1.0)
        tracer.sample("m").finish("served")
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["outcome"] == "served"


def test_format_trace_dicts_handles_empty_and_open_spans():
    assert "no traces" in format_trace_dicts([])
    trace = Trace(1, "m")
    trace.span("queue")
    text = format_trace_dicts([trace.to_dict()])
    assert "open" in text and "trace 1" in text


# ------------------------------------------------------------ flight recorder
class TestFlightRecorder:
    def test_unknown_kind_rejected(self):
        recorder = FlightRecorder()
        with pytest.raises(ValueError, match="unknown flight-recorder"):
            recorder.record("sched")  # typo of "shed"

    def test_causal_order_and_payload(self):
        recorder = FlightRecorder()
        recorder.record("shed", key="m", lane=0)
        recorder.record("scale_up", replica="m#r1", slot="slot1")
        events = recorder.events()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].t_s <= events[1].t_s
        assert events[1].detail["slot"] == "slot1"

    def test_eviction_keeps_sequence_numbers(self):
        recorder = FlightRecorder(capacity=3)
        for _ in range(5):
            recorder.record("shed")
        events = recorder.events()
        assert len(recorder) == 3
        # The first retained seq is not 0 — eviction is visible.
        assert [e.seq for e in events] == [2, 3, 4]

    def test_kind_filter_validates(self):
        recorder = FlightRecorder()
        recorder.record("shed")
        recorder.record("failover", to_replica="r1")
        assert [e.kind for e in recorder.events(["failover"])] == ["failover"]
        with pytest.raises(ValueError, match="unknown event kinds"):
            recorder.events(["nope"])

    def test_jsonl_is_strict_json(self):
        recorder = FlightRecorder()
        recorder.record("scale_decision", action="up", snapshot={"p95": 1.0})
        rows = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
        assert rows[0]["kind"] == "scale_decision"
        assert rows[0]["snapshot"] == {"p95": 1.0}

    def test_clear_keeps_counting(self):
        recorder = FlightRecorder()
        recorder.record("shed")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.record("shed").seq == 1

    def test_format_events_accepts_objects_and_dicts(self):
        recorder = FlightRecorder()
        event = recorder.record("evict", replica="m#r2", agreement=0.5)
        for view in (recorder.events(), [event.to_dict()]):
            text = format_events(view)
            assert "evict" in text and "replica=m#r2" in text
        assert "no events" in format_events([])


def test_telemetry_emit_is_noop_without_recorder():
    telemetry = Telemetry(max_batch=8)
    telemetry.emit("shed", key="m")  # must not raise, records nowhere
    recorder = FlightRecorder()
    telemetry.recorder = recorder
    telemetry.emit("shed", key="m")
    assert [e.kind for e in recorder.events()] == ["shed"]
    with pytest.raises(ValueError):
        telemetry.emit("not-a-kind")


def test_emit_counts_the_incidents_the_table_names():
    """With no recorder armed, each counted kind bumps its one counter
    and any other kind bumps none."""
    telemetry = Telemetry(max_batch=8)

    def counts():
        data = telemetry.snapshot().to_dict()
        return {c.name: data[c.name] for c in COUNTERS}

    zero = counts()
    telemetry.emit("shed", key="m")
    assert counts() == zero
    telemetry.emit("scale_up", model="m")
    assert counts() == {**zero, "scale_ups": 1}
    for c in COUNTERS:
        if c.event is not None:
            before = counts()
            telemetry.emit(c.event)
            assert counts() == {**before, c.name: before[c.name] + 1}


# ------------------------------------------------------------------- counters
class TestCounterTable:
    def test_table_names_every_counter_once(self):
        ints = {
            f.name for f in dataclasses.fields(TelemetrySnapshot)
            if f.type == "int"
        } - {"max_batch"}  # a setting, not a counter
        names = [c.name for c in COUNTERS]
        assert len(names) == len(set(names)) and set(names) == ints
        assert {c.event for c in COUNTERS if c.event} <= EVENT_KINDS
        # The series a metrics point carried before every counter did.
        assert {
            "submitted", "completed", "shed", "failed", "canary_failures",
            "refreshes", "replacements", "replica_evictions",
            "maintenance_sweeps",
        } <= {c.stem for c in COUNTERS}

    def test_every_reader_carries_every_counter(self):
        values = {c.name: 10 + i for i, c in enumerate(COUNTERS)}
        snapshot = dataclasses.replace(
            Telemetry(max_batch=8).snapshot(), **values
        )
        series = parse_prometheus(to_prometheus(snapshot))
        data = snapshot.to_dict()
        point = MetricsRing().sample(snapshot)  # deltas against zero
        report = snapshot.format_lines()
        for c in COUNTERS:
            value = values[c.name]
            assert series[f"febim_{c.stem}_total"] == value, c
            assert data[c.name] == value, c
            assert getattr(point, c.stem) == point.to_dict()[c.stem] == value
            assert f"{c.name.replace('_', ' ')} {value}" in report, c

    def test_drained_series_reconciles_with_the_snapshot(self, tmp_path):
        """Summed deltas equal the final counters, and the summed
        outcomes account for every submitted request."""
        registry = ModelRegistry(tmp_path / "reg")
        registry.register("alpha", make_model(seed=1))
        result = run_scenario(Scenario(
            deployment=Deployment(
                "alpha", [ReplicaSpec("ideal")] * 2,
                RoutingPolicy("round_robin"),
            ),
            n_requests=64,
            submitters=2,
            policy=BatchPolicy(max_batch=8),
            service_time_ms=5.0,  # rows still queue when the client cancels
            metrics_s=0.005,
            faults=(
                Fault("kill_replica", at=16),
                Fault("sweep", at=24),
                Fault("cancel", at=48),
            ),
        ), registry)
        points, snapshot = result.metrics, result.telemetry
        assert len(points) >= 2
        assert snapshot.cancelled and snapshot.replica_evictions
        total = {c.stem: sum(p[c.stem] for p in points) for c in COUNTERS}
        for c in COUNTERS:
            assert total[c.stem] == getattr(snapshot, c.name), c
        assert total["submitted"] == (
            total["completed"] + total["failed"] + total["shed"]
            + total["cancelled"]
        )


# -------------------------------------------------------------------- metrics
class TestMetricsRing:
    def _snapshot(self, telemetry):
        return telemetry.snapshot()

    def test_first_point_is_anchor_with_zero_rates(self):
        telemetry = Telemetry(max_batch=8)
        telemetry.record_submitted(5)
        ring = MetricsRing()
        point = ring.sample(telemetry.snapshot())
        assert point.interval_s == 0.0
        assert point.submitted == 5
        assert point.completed_per_s == 0.0
        assert point.p50_ms is None  # NaN percentile -> None, not NaN

    def test_deltas_against_previous_sample(self):
        telemetry = Telemetry(max_batch=8)
        ring = MetricsRing()
        ring.sample(telemetry.snapshot(), t_s=100.0)
        telemetry.record_submitted(10)
        telemetry.record_batch("m", 4, latencies_s=np.array([0.001] * 4))
        point = ring.sample(telemetry.snapshot(), t_s=102.0, replicas=2)
        assert point.submitted == 10 and point.completed == 4
        assert point.interval_s == pytest.approx(2.0)
        assert point.completed_per_s == pytest.approx(2.0)
        assert point.replicas == 2
        assert point.p50_ms == pytest.approx(1.0)

    def test_ring_bounds_and_jsonl(self):
        telemetry = Telemetry(max_batch=8)
        ring = MetricsRing(capacity=2)
        for t in (1.0, 2.0, 3.0):
            ring.sample(telemetry.snapshot(), t_s=t)
        assert len(ring) == 2
        rows = [json.loads(line) for line in ring.to_jsonl().splitlines()]
        assert [r["t_s"] for r in rows] == [2.0, 3.0]
        assert rows[0]["p95_ms"] is None  # serialised null, never NaN


class TestPrometheus:
    def test_pre_completion_snapshot_exports_without_nan(self):
        telemetry = Telemetry(max_batch=8)
        telemetry.record_submitted(3)
        text = to_prometheus(telemetry.snapshot())
        series = parse_prometheus(text)  # strict: would raise on NaN
        assert series["febim_submitted_total"] == 3
        # Undefined percentiles are absent, not NaN samples.
        assert "febim_latency_p50_seconds" not in series

    def test_round_trip_with_latencies_lanes_and_replicas(self):
        telemetry = Telemetry(max_batch=8)
        telemetry.record_submitted(4)
        telemetry.record_lane_queued(1, 4)
        telemetry.record_batch("m", 4, latencies_s=np.array([0.002] * 4))
        telemetry.record_replica_served("m@v1#r0", 4)
        text = to_prometheus(telemetry.snapshot(), replicas=2)
        series = parse_prometheus(text)
        assert series["febim_completed_total"] == 4
        assert series["febim_replicas"] == 2
        assert series['febim_lane_depth{lane="1"}'] == 4
        assert series['febim_replica_served_total{replica="m@v1#r0"}'] == 4
        assert series["febim_latency_p95_seconds"] == pytest.approx(
            0.002, rel=1e-3
        )

    def test_parser_rejects_nan_and_malformed_lines(self):
        with pytest.raises(ValueError, match="NaN"):
            parse_prometheus("febim_latency_p50_seconds NaN\n")
        with pytest.raises(ValueError, match="not a metric sample"):
            parse_prometheus("what even is this\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE febim_x wibble\nfebim_x 1\n")


# ------------------------------------------------------------- server wiring
@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(
        ModelRegistry(tmp_path / "reg"),
        policy=BatchPolicy(max_batch=8),
        seed=0,
    ) as srv:
        srv.register("alpha", make_model(seed=1))
        yield srv


class TestServerWiring:
    def test_enable_threads_tracer_and_recorder(self, server):
        obs = server.enable_observability(trace_rate=1.0)
        assert server.router.tracer is obs.tracer
        assert server.telemetry.recorder is obs.recorder
        result = server.predict("alpha", np.array([0, 1, 2]), timeout=5)
        assert result.prediction >= 0
        traces = obs.tracer.traces()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.outcome == "served"
        names = [s.name for s in trace.spans]
        assert names[0] == "admit" and names[-1] == "execute"
        assert trace.open_spans() == []
        # Execute span carries the modeled device cost.
        execute = trace.spans[-1].attributes
        assert execute["delay_s"] > 0 and execute["energy_j"] > 0
        gap = abs(trace.duration_s - trace.span_total_s())
        assert gap <= max(0.05 * trace.duration_s, 5e-4)

    def test_bundle_and_kwargs_are_mutually_exclusive(self, server):
        with pytest.raises(ValueError):
            server.enable_observability(Observability(), trace_rate=0.5)

    def test_disable_restores_free_hot_path(self, server):
        server.enable_observability(trace_rate=1.0)
        server.disable_observability()
        assert server.telemetry.recorder is None
        server.predict("alpha", np.array([0, 1, 2]), timeout=5)
        assert server.observability is None

    def test_sample_metrics(self, server):
        assert server.sample_metrics() is None  # unarmed: no-op
        obs = server.enable_observability()
        server.predict("alpha", np.array([0, 1, 2]), timeout=5)
        point = obs.metrics.sample(server.stats())  # anchor
        point = server.sample_metrics()
        assert point is not None
        assert point.replicas == count_replicas(server) == 1
        assert obs.metrics.points()[-1] is point

    def test_implicit_tenants_reach_the_hardware_plane(self, server):
        """Undeployed models serve through implicit deployments; the
        device-health sweep and the replica gauge count those too."""
        server.register("beta", make_model(seed=2))
        obs = server.enable_observability()
        for name in ("alpha", "beta"):
            server.predict(name, np.array([0, 1, 2]), timeout=5)
        samples = server.sample_hardware()
        assert len(samples) == len(obs.ledger) == 2
        assert [s.replica.split("@")[0] for s in samples] == ["alpha", "beta"]
        assert count_replicas(server) == 2

    def test_submit_many_traces_each_request(self, server):
        obs = server.enable_observability(trace_rate=1.0)
        futures = server.submit_many("alpha", np.zeros((4, 3), dtype=int))
        for future in futures:
            future.result(timeout=5)
        finished = obs.tracer.finished()
        assert len(finished) == 4
        for trace in finished:
            assert trace.outcome == "served"
            assert trace.open_spans() == []


def test_event_taxonomy_is_frozen_and_documented():
    # The closed set the recorder enforces; additions must be deliberate
    # (update events.py, ARCHITECTURE.md and this list together).
    assert EVENT_KINDS == {
        "shed",
        "displacement",
        "backpressure_block",
        "failover",
        "replica_down",
        "canary_failure",
        "refresh",
        "replace",
        "evict",
        "scale_decision",
        "scale_up",
        "scale_down",
        "retire",
        "bist_scan",
        "spare_repair",
        "drift_alarm",
        "margin_warning",
        "worker_start",
        "worker_heartbeat",
        "worker_lost",
        "worker_respawn",
        "relocate",
    }
