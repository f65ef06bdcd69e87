"""Telemetry ledger invariants under concurrent submit/shed/drain.

The in-flight gauge is *derived* (``submitted - completed - failed -
cancelled - shed``) and the per-lane depth gauge is *maintained* (bumped
on admission, decremented on drain or dequeued shed), so the two can
only agree if every code path pairs its increments and decrements
exactly once — which is easy to break from one thread and easier from
eight.  These tests hammer the ledger from many threads with the same
record sequences the scheduler emits and assert the books balance.
"""

import threading

import numpy as np
import pytest

from repro.serving.telemetry import Telemetry

THREADS = 8
PER_THREAD = 500


def _run_threads(worker, n=THREADS):
    # A barrier start maximises interleaving across the record_* calls.
    barrier = threading.Barrier(n)

    def wrapped(idx):
        barrier.wait()
        worker(idx)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive(), "worker thread wedged"


class TestLedgerBalance:
    def test_in_flight_and_lanes_balance_after_mixed_traffic(self):
        """submit -> {drain+complete | dequeued shed | door shed} x N."""
        telemetry = Telemetry(max_batch=8)

        def worker(idx):
            lane = idx % 3
            for i in range(PER_THREAD):
                style = i % 4
                if style == 0:
                    # Served: admitted to a lane, drained into a batch.
                    telemetry.record_submitted()
                    telemetry.record_lane_queued(lane)
                    telemetry.record_lane_drained(lane)
                    telemetry.record_batch("m", 1, latencies_s=np.array([0.001]))
                elif style == 1:
                    # Displaced victim: admitted, then shed out of the lane.
                    telemetry.record_submitted()
                    telemetry.record_lane_queued(lane)
                    telemetry.record_lane_drained(lane)
                    telemetry.record_shed()
                elif style == 2:
                    # Door rejection: counted submitted + shed, never laned.
                    telemetry.record_submitted()
                    telemetry.record_shed()
                else:
                    # Cancelled at shutdown: admitted, drained, cancelled.
                    telemetry.record_submitted()
                    telemetry.record_lane_queued(lane)
                    telemetry.record_lane_drained(lane)
                    telemetry.record_cancelled(1)

        _run_threads(worker)
        snapshot = telemetry.snapshot()
        total = THREADS * PER_THREAD
        assert snapshot.submitted == total
        assert snapshot.completed == total // 4
        assert snapshot.shed_requests == total // 2
        assert snapshot.cancelled == total // 4
        # The two invariants under test: nothing left in flight, and
        # every lane gauge returned to zero (empty dict, not zeros).
        assert snapshot.in_flight == 0
        assert snapshot.lane_depth == {}

    def test_failed_batches_balance_too(self):
        telemetry = Telemetry(max_batch=4)

        def worker(idx):
            for _ in range(PER_THREAD):
                telemetry.record_submitted()
                telemetry.record_lane_queued(0)
                telemetry.record_lane_drained(0)
                telemetry.record_failed(1)
                telemetry.emit("evict")  # counted by emit, no recorder armed

        _run_threads(worker)
        snapshot = telemetry.snapshot()
        assert snapshot.failed == THREADS * PER_THREAD
        assert snapshot.replica_evictions == THREADS * PER_THREAD
        assert snapshot.in_flight == 0
        assert snapshot.lane_depth == {}

    def test_snapshots_stay_sane_while_traffic_runs(self):
        """Concurrent readers never observe a negative gauge."""
        telemetry = Telemetry(max_batch=8)
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                snapshot = telemetry.snapshot()
                if snapshot.in_flight < 0:
                    violations.append(("in_flight", snapshot.in_flight))
                if any(d <= 0 for d in snapshot.lane_depth.values()):
                    violations.append(("lane_depth", dict(snapshot.lane_depth)))

        watcher = threading.Thread(target=reader)
        watcher.start()
        try:

            def worker(idx):
                for _ in range(PER_THREAD):
                    telemetry.record_submitted()
                    telemetry.record_lane_queued(idx % 2)
                    telemetry.record_lane_drained(idx % 2)
                    telemetry.record_batch("m", 1)

            _run_threads(worker)
        finally:
            stop.set()
            watcher.join(10.0)
        assert not violations, violations[:5]
        assert telemetry.snapshot().in_flight == 0
        assert telemetry.snapshot().lane_depth == {}


class TestSnapshotSerialisation:
    def test_percentiles_serialise_as_null_before_first_completion(self):
        import json

        snapshot = Telemetry(max_batch=8).snapshot()
        # NaN in the dataclass (numpy percentile of an empty window)...
        assert snapshot.p50_latency_s != snapshot.p50_latency_s
        d = snapshot.to_dict()
        # ...but null on the wire: strict JSON parsers reject NaN.
        assert d["p50_latency_ms"] is None
        assert d["p95_latency_ms"] is None
        json.dumps(d, allow_nan=False)

    def test_percentiles_serialise_as_numbers_after_completion(self):
        telemetry = Telemetry(max_batch=8)
        telemetry.record_submitted()
        telemetry.record_batch("m", 1, latencies_s=np.array([0.002]))
        d = telemetry.snapshot().to_dict()
        assert d["p50_latency_ms"] == pytest.approx(2.0)
        assert d["p95_latency_ms"] == pytest.approx(2.0)
