"""Micro-batch scheduler: coalescing, futures, drain, shutdown."""

import sys
import threading
import time
import warnings
from concurrent.futures import InvalidStateError

import numpy as np
import pytest

from repro.serving import BatchPolicy, MicroBatchScheduler, SchedulerClosed
from repro.serving.observability import FlightRecorder
from repro.serving.scheduler import Overloaded, _Request, _Slot
from repro.serving.telemetry import Telemetry


class RecordingEngine:
    """Engine stub: argmax over levels, records every batch it sees.

    A ``gated`` engine sets ``started`` as each batch reaches it and
    holds that batch until the test sets ``release``, so a test knows
    the worker is inside a batch without sleeping on it.
    """

    def __init__(self, block_s=0.0, gated=False):
        self.batches = []
        self.block_s = block_s
        self.started = threading.Event()
        self.release = threading.Event()
        if not gated:
            self.release.set()

    def infer_batch(self, levels):
        self.started.set()
        assert self.release.wait(10), "gated batch never released"
        if self.block_s:
            time.sleep(self.block_s)
        self.batches.append(np.array(levels))
        n = levels.shape[0]

        class Report:
            predictions = levels.sum(axis=1)
            delay = np.full(n, 1e-9)

            class energy:
                total = np.full(n, 1e-15)

            @staticmethod
            def sample(i):
                return ("sample", i)

        return Report()


class FailingEngine:
    def infer_batch(self, levels):
        raise RuntimeError("array caught fire")


def make_scheduler(engine=None, **policy_kwargs):
    engine = engine if engine is not None else RecordingEngine()
    engines = {"m": engine}
    sched = MicroBatchScheduler(
        lambda key: engines[key], BatchPolicy(**policy_kwargs)
    )
    return sched, engine


class TestPolicy:
    def test_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = BatchPolicy()
        assert policy.max_batch == 64 and policy.max_wait_ms is None

    def test_invalid_max_batch(self):
        with pytest.raises((ValueError, TypeError)):
            BatchPolicy(max_batch=0)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError), pytest.warns(DeprecationWarning):
            BatchPolicy(max_wait_ms=-1.0)


class TestCoalescing:
    def test_single_request_served(self):
        sched, engine = make_scheduler(max_batch=8)
        try:
            result = sched.submit("m", np.array([1, 2, 3])).result(timeout=5)
            assert result.prediction == 6
            assert result.batch_size == 1
            assert result.model == "m"
        finally:
            sched.shutdown()

    def test_full_batch_flushes_before_deadline(self):
        sched, engine = make_scheduler(max_batch=4)
        try:
            # Paused, all four rows queue before the worker can pop.
            assert sched.pause(timeout=5)
            futures = [sched.submit("m", np.array([i])) for i in range(4)]
            sched.resume()
            for f in futures:
                f.result(timeout=5)
            assert len(engine.batches) == 1
            assert engine.batches[0].shape == (4, 1)
        finally:
            sched.shutdown()

    def test_deadline_flushes_partial_batch(self):
        sched, engine = make_scheduler(max_batch=1000)
        try:
            future = sched.submit("m", np.array([7]))
            result = future.result(timeout=5)
            assert result.batch_size == 1
        finally:
            sched.shutdown()

    def test_lone_row_never_waits_for_company(self):
        """The deprecated hold is ignored: an idle worker reads a lone
        row at once, not after 60 s."""
        with pytest.warns(DeprecationWarning, match="max_wait_ms"):
            policy = BatchPolicy(max_batch=1000, max_wait_ms=60_000)
        engine = RecordingEngine()
        with MicroBatchScheduler(lambda key: engine, policy) as sched:
            result = sched.submit("m", np.array([7])).result(timeout=5)
            assert result.batch_size == 1
            assert result.prediction == 7

    def test_rows_queued_during_a_batch_form_the_next(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=8)
        try:
            first = sched.submit("m", np.array([100]))
            assert engine.started.wait(5)  # the worker holds batch 1
            later = [sched.submit("m", np.array([i])) for i in range(5)]
            engine.release.set()
            results = [f.result(timeout=5) for f in later]
            assert first.result(timeout=5).batch_size == 1
            assert [b[:, 0].tolist() for b in engine.batches] == [
                [100], [0, 1, 2, 3, 4],
            ]
            assert [r.prediction for r in results] == [0, 1, 2, 3, 4]
            assert [r.batch_size for r in results] == [5] * 5
        finally:
            engine.release.set()
            sched.shutdown()

    def test_oversized_wave_splits_into_batches(self):
        sched, engine = make_scheduler(max_batch=4)
        try:
            futures = sched.submit_many("m", np.arange(10)[:, None])
            for f in futures:
                f.result(timeout=5)
            sizes = sorted(b.shape[0] for b in engine.batches)
            assert sum(sizes) == 10
            assert max(sizes) <= 4
        finally:
            sched.shutdown()

    def test_results_keep_request_order_within_batch(self):
        sched, engine = make_scheduler(max_batch=8)
        try:
            futures = sched.submit_many("m", np.arange(8)[:, None])
            preds = [f.result(timeout=5).prediction for f in futures]
            assert preds == list(range(8))
        finally:
            sched.shutdown()

    def test_queue_wait_and_report_view(self):
        sched, engine = make_scheduler(max_batch=2)
        try:
            assert sched.pause(timeout=5)
            f1 = sched.submit("m", np.array([1]))
            f2 = sched.submit("m", np.array([2]))
            sched.resume()
            r1, r2 = f1.result(timeout=5), f2.result(timeout=5)
            assert r1.queue_wait_s >= 0.0
            assert r1.delay == pytest.approx(1e-9)
            assert r1.energy_total == pytest.approx(1e-15)
            assert r1.report() == ("sample", 0)
            assert r2.report() == ("sample", 1)
        finally:
            sched.shutdown()

    def test_rejects_non_1d_submit(self):
        sched, _ = make_scheduler()
        try:
            with pytest.raises(ValueError, match="1-D"):
                sched.submit("m", np.zeros((2, 2), dtype=int))
            with pytest.raises(ValueError, match="samples"):
                sched.submit_many("m", np.zeros(3, dtype=int))
        finally:
            sched.shutdown()


class TestFailures:
    def test_engine_error_fails_batch_futures(self):
        sched, _ = make_scheduler(FailingEngine(), max_batch=2)
        try:
            futures = [sched.submit("m", np.array([i])) for i in range(2)]
            for f in futures:
                with pytest.raises(RuntimeError, match="caught fire"):
                    f.result(timeout=5)
            assert sched.telemetry.snapshot().failed == 2
        finally:
            sched.shutdown()

    def test_malformed_width_fails_alone_not_cobatched(self):
        """A wrong-width request must not poison its co-batched peers."""

        class WidthCheckingEngine(RecordingEngine):
            def infer_batch(self, levels):
                if levels.shape[1] != 2:
                    raise ValueError("bad width")
                return super().infer_batch(levels)

        sched, engine = make_scheduler(
            WidthCheckingEngine(), max_batch=8
        )
        try:
            # Paused, all four rows share the worker's next pop.
            assert sched.pause(timeout=5)
            good = [sched.submit("m", np.array([i, i])) for i in range(3)]
            bad = sched.submit("m", np.array([1, 2, 3]))
            sched.resume()
            for i, f in enumerate(good):
                assert f.result(timeout=5).prediction == 2 * i
            with pytest.raises(ValueError, match="bad width"):
                bad.result(timeout=5)
            snapshot = sched.telemetry.snapshot()
            assert snapshot.completed == 3 and snapshot.failed == 1
        finally:
            sched.shutdown()

    def test_unknown_key_fails_future_not_scheduler(self):
        sched, _ = make_scheduler(max_batch=4)
        try:
            bad = sched.submit("ghost", np.array([1]))
            with pytest.raises(KeyError):
                bad.result(timeout=5)
            # Scheduler survives and keeps serving the good key.
            good = sched.submit("m", np.array([1, 1]))
            assert good.result(timeout=5).prediction == 2
        finally:
            sched.shutdown()


class TestLifecycle:
    def test_drain_completes_everything(self):
        sched, engine = make_scheduler(max_batch=64)
        futures = sched.submit_many("m", np.arange(10)[:, None])
        assert sched.drain(timeout=10)
        assert all(f.done() for f in futures)
        assert sched.pending == 0
        sched.shutdown()

    def test_shutdown_is_idempotent(self):
        sched, _ = make_scheduler()
        sched.shutdown()
        sched.shutdown()

    def test_submit_after_shutdown_raises(self):
        sched, _ = make_scheduler()
        sched.shutdown()
        with pytest.raises(SchedulerClosed):
            sched.submit("m", np.array([1]))

    def test_non_draining_shutdown_cancels_queued(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=1)
        first = sched.submit("m", np.array([1]))
        assert engine.started.wait(5)  # the worker is inside batch 1
        queued = [sched.submit("m", np.array([i])) for i in range(5)]
        resolved = threading.Semaphore(0)
        for future in queued:
            future.add_done_callback(lambda _: resolved.release())
        # shutdown() cancels the queue before it joins the worker, which
        # is held inside batch 1 until the cancellations have landed.
        stopper = threading.Thread(
            target=sched.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        assert all(resolved.acquire(timeout=5) for _ in queued)
        engine.release.set()
        stopper.join(5)
        first.result(timeout=5)  # in-flight batch still completes
        cancelled = sum(1 for f in queued if f.cancelled())
        assert cancelled == 5
        assert sched.telemetry.snapshot().cancelled == 5

    def test_client_cancel_does_not_kill_worker(self):
        """A client cancelling its own future must not poison serving."""
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=1)
        try:
            blocker = sched.submit("m", np.array([1]))
            assert engine.started.wait(5)  # worker inside batch 1
            doomed = sched.submit("m", np.array([2]))
            assert doomed.cancel()  # still queued -> cancellable
            engine.release.set()
            blocker.result(timeout=5)
            # The worker survived the cancelled future and keeps serving.
            after = sched.submit("m", np.array([3, 4]))
            assert after.result(timeout=5).prediction == 7
            assert sched.telemetry.snapshot().cancelled == 1
        finally:
            sched.shutdown()

    def test_drain_timeout_restores_coalescing(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=4)
        try:
            sched.submit("m", np.array([1]))
            assert engine.started.wait(5)  # the worker holds batch 1
            assert sched.drain(timeout=0.05) is False
            # A timed-out drain leaves nothing latched: rows queued
            # after it still coalesce into the next batch.
            for i in range(3):
                sched.submit("m", np.array([i]))
            engine.release.set()
            assert sched.drain(timeout=10) is True
            assert [len(b) for b in engine.batches] == [1, 3]
        finally:
            engine.release.set()
            sched.shutdown()

    def test_context_manager_drains(self):
        with make_scheduler(max_batch=64)[0] as sched:
            futures = sched.submit_many("m", np.arange(5)[:, None])
        assert all(f.done() and not f.cancelled() for f in futures)


class TestConcurrency:
    def test_concurrent_submitters_no_drop_no_dup(self):
        sched, engine = make_scheduler(max_batch=16)
        try:
            n, workers = 400, 4
            futures = [None] * n
            barrier = threading.Barrier(workers)

            def submitter(w):
                barrier.wait()
                for i in range(w, n, workers):
                    futures[i] = sched.submit("m", np.array([i]))

            threads = [
                threading.Thread(target=submitter, args=(w,)) for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sched.drain(timeout=30)
            preds = sorted(f.result(timeout=5).prediction for f in futures)
            assert preds == list(range(n))  # exactly once, nothing lost
            served = sum(b.shape[0] for b in engine.batches)
            assert served == n
            snapshot = sched.telemetry.snapshot()
            assert snapshot.submitted == snapshot.completed == n
            assert snapshot.occupancy > 0
        finally:
            sched.shutdown()

    def test_lone_round_trips_never_lose_a_wake(self):
        """Eight clients each send a row and wait for its answer before
        the next, so the queue empties and refills all the time.  No
        timer rescues a stranded row: under a 1 µs switch interval, a
        wake lost between an ``enqueue`` and the worker's sleep would
        leave a row unread past its timeout."""
        sched, _ = make_scheduler(max_batch=4)
        n_threads, per_thread = 8, 50
        answers = [[] for _ in range(n_threads)]

        def client(k):
            for i in range(per_thread):
                future = sched.submit("m", np.array([k, i]))
                answers[k].append(future.result(timeout=10).prediction)

        threads = [
            threading.Thread(target=client, args=(k,))
            for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [
            [k + i for i in range(per_thread)] for k in range(n_threads)
        ]
        snapshot = sched.telemetry.snapshot()
        assert snapshot.submitted == snapshot.completed == n_threads * per_thread


class TestQuiesce:
    """pause/resume/quiesce: the engine-maintenance primitive."""

    def test_pause_holds_batches_resume_releases(self):
        sched, engine = make_scheduler(max_batch=4)
        try:
            assert sched.pause(timeout=5)
            futures = [sched.submit("m", np.array([i])) for i in range(3)]
            time.sleep(0.05)  # an unpaused idle worker flushes at once
            assert engine.batches == []
            assert sched.pending == 3
            sched.resume()
            assert sched.drain(timeout=5)
            assert [f.result(timeout=1).prediction for f in futures] == [0, 1, 2]
        finally:
            sched.shutdown()

    def test_pause_waits_out_inflight_batch(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=1)
        try:
            future = sched.submit("m", np.array([7]))
            assert engine.started.wait(5)  # the worker holds the batch
            releaser = threading.Timer(0.05, engine.release.set)
            start = time.monotonic()
            releaser.start()
            assert sched.pause(timeout=5)
            # pause() returned only after the held batch finished.
            assert future.done()
            assert time.monotonic() - start > 0.05
            sched.resume()
        finally:
            engine.release.set()
            sched.shutdown()

    def test_pause_timeout_leaves_scheduler_running(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=1)
        try:
            sched.submit("m", np.array([1]))
            assert engine.started.wait(5)
            assert not sched.pause(timeout=0.01)  # batch still in flight
            engine.release.set()
            later = sched.submit("m", np.array([2]))
            assert later.result(timeout=5).prediction == 2  # not paused
        finally:
            engine.release.set()
            sched.shutdown()

    def test_quiesce_context_manager(self):
        sched, engine = make_scheduler(max_batch=2)
        try:
            with sched.quiesce(timeout=5):
                sched.submit("m", np.array([1]))
                time.sleep(0.05)
                assert engine.batches == []
            assert sched.drain(timeout=5)
            assert len(engine.batches) == 1
        finally:
            sched.shutdown()

    def test_resume_without_pause_rejected(self):
        sched, _ = make_scheduler()
        try:
            with pytest.raises(RuntimeError):
                sched.resume()
        finally:
            sched.shutdown()

    def test_nested_pause(self):
        sched, engine = make_scheduler(max_batch=1)
        try:
            sched.pause(timeout=5)
            sched.pause(timeout=5)
            sched.submit("m", np.array([3]))
            sched.resume()
            time.sleep(0.05)
            assert engine.batches == []  # still paused once
            sched.resume()
            assert sched.drain(timeout=5)
            assert len(engine.batches) == 1
        finally:
            sched.shutdown()


class TestLaneGauge:
    @pytest.mark.parametrize("path", ["submit", "submit_many", "bounded"])
    def test_drained_scheduler_reports_no_phantom_queued_row(self, path):
        """The lane gauge rises before the worker can see the row.

        Were it raised after the scheduler lock is released, the worker
        could pop and drain the row first: the drain clamps at zero and
        the late rise sticks, so a drained scheduler reports a queued
        row forever.  The hook forces that interleaving whenever the row
        is already queued as the gauge rises (the scheduler is paused,
        so ``pending`` says so without racing the worker).
        """
        drained = threading.Event()
        late = []

        class GatedTelemetry(Telemetry):
            def record_lane_drained(self, lane, n=1):
                super().record_lane_drained(lane, n)
                drained.set()

            def record_lane_queued(self, lane, n=1):
                if sched.pending:
                    late.append(lane)
                    sched.resume()
                    assert drained.wait(10), "the worker never drained"
                super().record_lane_queued(lane, n)

        engine = RecordingEngine()
        sched = MicroBatchScheduler(
            lambda key: engine,
            BatchPolicy(max_batch=8),
            telemetry=GatedTelemetry(8),
            max_queue_depth=4 if path == "bounded" else None,
        )
        try:
            assert sched.pause(timeout=5)
            levels = np.array([[1, 2]])
            if path == "submit_many":
                futures = sched.submit_many("m", levels)
            else:
                futures = [sched.submit("m", levels[0])]
            if not late:
                sched.resume()
            assert [f.result(timeout=5).prediction for f in futures] == [3]
            assert sched.drain(timeout=5)
            snapshot = sched.telemetry.snapshot()
            assert snapshot.in_flight == 0
            assert snapshot.lane_depth == {}
        finally:
            sched.shutdown()


class RecordingOwner:
    """Row-owner stub: records every call the scheduler makes on it and
    keeps every row (a stub counts nothing in telemetry)."""

    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()
        self.cancelled = threading.Event()

    def _record(self, call, rows, **detail):
        with self.lock:
            self.calls.append((call, list(rows), detail))

    def claim(self, rows):
        self._record("claim", rows)
        return rows

    def served(self, rows, results, finished):
        self._record("served", rows, results=list(results))

    def failed(self, rows, exc, ran):
        self._record("failed", rows, exc=exc, ran=ran)

    def cancel(self, rows):
        self._record("cancel", rows)
        self.cancelled.set()

    def rows(self, n, lane=0):
        now = time.monotonic()
        return [_Request(np.array([i, 1]), now, lane, self) for i in range(n)]

    def history(self, row):
        """The calls ``row`` went through, in order."""
        return [kind for kind, batch, _ in self.calls for r in batch if r is row]

    def assert_settled_once(self, rows, call, claimed):
        """Every row settled exactly once, by ``call`` — after one claim
        when ``claimed``, unclaimed otherwise."""
        expected = ["claim", call] if claimed else [call]
        assert [self.history(row) for row in rows] == [expected] * len(rows)


class TestRowOwners:
    """The scheduler settles every queued row through its owner,
    exactly once: claim before the read, then served, failed or
    cancelled."""

    def test_served_rows_are_claimed_then_served(self):
        sched, _ = make_scheduler(max_batch=4)
        owner = RecordingOwner()
        rows = owner.rows(6)
        try:
            assert sched.enqueue("m", rows) is None
            assert sched.drain(timeout=5)
            owner.assert_settled_once(rows, "served", claimed=True)
            served = [
                (row, result) for kind, batch, detail in owner.calls
                if kind == "served"
                for row, result in zip(batch, detail["results"])
            ]
            assert [r.at(row.lo).prediction for row, r in served] == [
                int(row.levels.sum()) for row, _ in served
            ]
            snapshot = sched.telemetry.snapshot()
            # Counting client requests is the owner's, not the queue's.
            assert snapshot.submitted == snapshot.completed == 0
            assert snapshot.batches == 2 and snapshot.lane_depth == {}
        finally:
            sched.shutdown()

    def test_failing_engine_fails_the_rows_that_ran(self):
        sched, _ = make_scheduler(FailingEngine(), max_batch=4)
        owner = RecordingOwner()
        rows = owner.rows(3)
        try:
            sched.enqueue("m", rows)
            assert sched.drain(timeout=5)
            owner.assert_settled_once(rows, "failed", claimed=True)
            for kind, _, detail in owner.calls:
                if kind == "failed":
                    assert detail["ran"] is True
                    assert "caught fire" in str(detail["exc"])
        finally:
            sched.shutdown()

    def test_displaced_row_fails_unread_with_overloaded(self):
        engine = RecordingEngine(gated=True)
        sched = MicroBatchScheduler(
            lambda key: engine,
            BatchPolicy(max_batch=1),
            max_queue_depth=1,
        )
        owner = RecordingOwner()
        rows = owner.rows(1, lane=0)
        try:
            running = sched.submit("m", np.array([1]))
            assert engine.started.wait(5)  # the worker is inside batch 1
            sched.enqueue("m", rows)
            vip = sched.submit("m", np.array([2]), priority=5)
            owner.assert_settled_once(rows, "failed", claimed=False)
            (_, _, detail), = owner.calls
            assert isinstance(detail["exc"], Overloaded)
            assert detail["ran"] is False
            engine.release.set()
            assert running.result(timeout=5) and vip.result(timeout=5)
            assert sched.drain(timeout=5)
            assert len(owner.calls) == 1
            assert sched.telemetry.snapshot().lane_depth == {}
        finally:
            engine.release.set()
            sched.shutdown()

    def test_non_draining_shutdown_cancels_queued_rows(self):
        engine = RecordingEngine(gated=True)
        sched, _ = make_scheduler(engine, max_batch=1)
        owner = RecordingOwner()
        rows = owner.rows(3)
        running = sched.submit("m", np.array([1]))
        assert engine.started.wait(5)  # the worker is inside batch 1
        sched.enqueue("m", rows)
        # shutdown() cancels the queue before it joins the worker, which
        # is held inside batch 1 until the cancellation has landed.
        stopper = threading.Thread(
            target=sched.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        assert owner.cancelled.wait(5)
        engine.release.set()
        stopper.join(5)
        assert not stopper.is_alive()
        running.result(timeout=5)
        owner.assert_settled_once(rows, "cancel", claimed=False)
        assert sched.telemetry.snapshot().lane_depth == {}

    def test_refused_direct_submit_is_counted_before_the_raise(self):
        """A direct submit is a client request too: refused, it is
        counted (shed at a full queue, failed when closed) before
        ``submit`` raises, so the direct books balance."""
        engine = RecordingEngine(gated=True)
        sched = MicroBatchScheduler(
            lambda key: engine,
            BatchPolicy(max_batch=1),
            max_queue_depth=1,
        )
        running = sched.submit("m", np.array([1]))
        assert engine.started.wait(5)  # the worker is inside batch 1
        queued = sched.submit("m", np.array([2]))
        with pytest.raises(Overloaded):
            sched.submit("m", np.array([3]))
        engine.release.set()
        assert running.result(timeout=5) and queued.result(timeout=5)
        sched.shutdown()
        with pytest.raises(SchedulerClosed):
            sched.submit("m", np.array([4]))
        snapshot = sched.telemetry.snapshot()
        assert snapshot.submitted == 4
        assert (snapshot.completed, snapshot.shed_requests, snapshot.failed) == (
            2, 1, 1,
        )
        assert snapshot.in_flight == 0


class TestRowHandles:
    """A ``submit_many`` chunk's rows share one completion slot."""

    def test_cancels_racing_the_batch_worker_settle_each_row_once(self):
        """Eight threads cancel rows while the batch worker claims and
        serves them: each row ends cancelled or served, never both, its
        done callback fires once, and the books close."""
        sched, _ = make_scheduler(max_batch=16)
        n, n_threads = 2048, 8
        fired = [0] * n
        lock = threading.Lock()

        def count(handle):
            with lock:
                fired[handle.pos] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert sched.pause(timeout=5)
            handles = sched.submit_many("m", np.arange(n)[:, None])
            with pytest.raises(TimeoutError):
                handles[0].result(timeout=0.01)
            for handle in handles:
                handle.add_done_callback(count)
            start = threading.Barrier(n_threads + 1)

            def cancel(k):
                start.wait(timeout=10)
                for handle in handles[k::n_threads]:
                    handle.cancel()

            threads = [
                threading.Thread(target=cancel, args=(k,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=10)
            sched.resume()
            for thread in threads:
                thread.join(timeout=30)
            assert sched.drain(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert fired == [1] * n
        cancelled = [h.pos for h in handles if h.cancelled()]
        served = [h.pos for h in handles if not h.cancelled()]
        assert [handles[i].result(timeout=0).prediction for i in served] == (
            served
        )
        snapshot = sched.telemetry.snapshot()
        assert snapshot.submitted == n
        assert (snapshot.completed, snapshot.cancelled) == (
            len(served), len(cancelled),
        )

    def test_a_done_row_is_never_claimed_again(self):
        """Claiming or settling a finished row raises, as a finished
        Future refuses both, and leaves the row's outcome as it was."""
        slot = _Slot(4)
        handle = slot.handles()[1]
        assert slot.claim(0, 4) == []
        slot.settle(0, 2, ValueError("served once"))
        for again in (
            lambda: slot.claim(1, 3), lambda: slot.settle(1, 2, None)
        ):
            with pytest.raises(InvalidStateError):
                again()
            assert handle.done() and not handle.cancelled()
            assert isinstance(handle.exception(timeout=0), ValueError)


class TestOneAdmissionPath:
    """Every row enters through ``enqueue``: a chunk is admitted under
    one lock, into the scheduler's one queue."""

    @staticmethod
    def bounded(depth):
        """A depth-bounded scheduler whose worker is held inside its
        first batch, with a flight recorder on its telemetry."""
        engine = RecordingEngine(gated=True)
        sched = MicroBatchScheduler(
            lambda key: engine,
            BatchPolicy(max_batch=1),
            max_queue_depth=depth,
        )
        sched.telemetry.recorder = FlightRecorder()
        running = sched.submit("m", np.array([0, 0]))
        assert engine.started.wait(5)  # the worker is inside batch 1
        return sched, engine, running

    def test_higher_lane_chunk_displaces_newest_first_refuses_the_rest(self):
        sched, engine, running = self.bounded(depth=2)
        low, high = RecordingOwner(), RecordingOwner()
        queued = low.rows(2, lane=0)
        chunk = high.rows(4, lane=5)
        try:
            assert sched.enqueue("m", queued) is None
            refusal = sched.enqueue("m", chunk)
            assert isinstance(refusal, Overloaded) and refusal.lane == 5
            # Both lane-0 rows were displaced, newest first, unread.
            assert [(kind, rows) for kind, rows, _ in low.calls] == [
                ("failed", [queued[1]]), ("failed", [queued[0]]),
            ]
            for _, _, detail in low.calls:
                assert isinstance(detail["exc"], Overloaded)
                assert detail["ran"] is False
            # The two rows left over were refused in one call.
            (kind, rows, detail), = high.calls
            assert (kind, rows, detail["ran"]) == ("failed", chunk[2:], False)
            assert detail["exc"] is refusal
            kinds = [e.kind for e in sched.telemetry.recorder.events()]
            assert kinds.count("displacement") == 2
            assert kinds.count("shed") == 2
            engine.release.set()
            assert running.result(timeout=5)
            assert sched.drain(timeout=5)
            high.assert_settled_once(chunk[:2], "served", claimed=True)
            assert sched.telemetry.snapshot().lane_depth == {}
        finally:
            engine.release.set()
            sched.shutdown()

    def test_blocking_chunk_refuses_the_rows_still_out_at_its_timeout(self):
        sched, engine, running = self.bounded(depth=2)
        owner = RecordingOwner()
        chunk = owner.rows(4)
        try:
            refusal = sched.enqueue("m", chunk, block=True, timeout=0.05)
            assert isinstance(refusal, Overloaded)
            (kind, rows, detail), = owner.calls
            assert (kind, rows, detail["ran"]) == ("failed", chunk[2:], False)
            assert detail["exc"] is refusal
            events = sched.telemetry.recorder.events()
            assert [
                e.detail["reason"] for e in events if e.kind == "shed"
            ] == ["backpressure_timeout"] * 2
            assert [e.kind for e in events].count("backpressure_block") == 1
            engine.release.set()
            assert running.result(timeout=5)
            assert sched.drain(timeout=5)
            owner.assert_settled_once(chunk[:2], "served", claimed=True)
        finally:
            engine.release.set()
            sched.shutdown()

    def test_rows_of_two_keys_in_one_batch_are_read_as_two_groups(self):
        engines = {"a": RecordingEngine(), "b": RecordingEngine()}
        sched = MicroBatchScheduler(
            lambda key: engines[key], BatchPolicy(max_batch=8)
        )
        owner = RecordingOwner()
        rows_a, rows_b = owner.rows(2), owner.rows(3)
        try:
            assert sched.pause(timeout=5)
            sched.enqueue("a", rows_a)
            sched.enqueue("b", rows_b)
            sched.resume()
            assert sched.drain(timeout=5)
            # One batch, claimed once, read and settled per key.
            assert [(kind, rows) for kind, rows, _ in owner.calls] == [
                ("claim", rows_a + rows_b),
                ("served", rows_a),
                ("served", rows_b),
            ]
            assert [len(b) for b in engines["a"].batches] == [2]
            assert [len(b) for b in engines["b"].batches] == [3]
            models = [
                (result.model, result.batch_size)
                for kind, _, detail in owner.calls if kind == "served"
                for result in detail["results"]
            ]
            assert models == [("a", 2)] * 2 + [("b", 3)] * 3
            assert sched.telemetry.snapshot().batches == 2
        finally:
            sched.shutdown()
