"""Micro-batching request scheduler over the batched inference core.

PR 1 made the *offline* read path fast by amortising every layer over
dense batches; an online server receives single-sample requests that
would each pay the full per-call overhead again.  This module closes
the gap with the classic serving idiom: one thread-safe queue, a worker
that coalesces whatever is pending into one ``infer_batch`` call per
routing key and feature width, and per-request futures that resolve to
views into the shared batch report.

Coalescing policy (:class:`BatchPolicy`)
----------------------------------------

The queue is flushed as soon as either bound is hit:

* ``max_batch`` requests are waiting (the batch is full), or
* the *oldest* waiting request has aged ``max_wait_ms`` (latency bound).

Under heavy traffic the scheduler therefore runs full batches at the
offline throughput ceiling; under trickle traffic no request waits more
than ``max_wait_ms`` beyond its own service time.

Admission control
-----------------

Every row enters through one path, :meth:`MicroBatchScheduler.enqueue`,
which admits a chunk (rows of one owner and one lane; ``submit`` is a
one-row chunk) under one lock acquisition.  By default the queue is
unbounded.  With ``max_queue_depth`` set, the bound applies to the
scheduler's one queue, and a row that finds it full is resolved by
priority, in chunk order:

* with ``block=True`` the row waits for space (backpressure;
  ``timeout`` bounds the wait), or
* it displaces the newest queued request of a *lower* lane (that
  request fails with :class:`Overloaded` — a typed, fast rejection the
  caller can distinguish from a real failure), or
* it is refused with :class:`Overloaded` when nothing cheaper is
  queued (or the wait timed out), together with the rows after it.

Requests live in *priority lanes*: batches fill from the highest lane
first (FIFO within a lane), and sheds always take the newest request of
the lowest lane — a low-priority tenant degrades before a
high-priority one ever notices.  All-default traffic lands in lane 0
and behaves exactly as a plain FIFO.

Determinism
-----------

With the default (noise-free) variation model the crossbar read is a
pure function of the programmed state, so a served result is
bit-identical to calling ``infer_batch`` directly on the same engine —
regardless of which requests happened to share its micro-batch.  This
is enforced by ``tests/property/test_serving_equivalence.py``.  With
``sigma_read > 0`` the noise stream is consumed in batch order, so
per-request draws depend on traffic interleaving (exactly as a real
macro's thermal noise would).

Settlement
----------

The scheduler never resolves a row itself.  Every queued row carries
its *owner*, the hop that queued it, and the scheduler hands each run
of one owner's rows back through four calls (see :class:`_Request`):
``claim`` before the read, then exactly one of ``served``, ``failed``
or ``cancel``.  Counting a client request, finishing its trace and
resolving its future are the owner's.  The scheduler keeps only the
batch counters, the lane gauge and the spans it opens (admit, queue,
execute).
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.kernels.scratch import default_pool
from repro.reliability.observability import (
    margin_signal,
    report_currents,
    sample_margin,
)
from repro.serving.observability.trace import Span, Trace
from repro.serving.telemetry import Telemetry
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs for the micro-batch scheduler.

    Attributes
    ----------
    max_batch:
        Largest number of requests fused into one ``infer_batch`` call.
    max_wait_ms:
        Longest a request may sit in the queue waiting for company
        before its batch is launched anyway (milliseconds).
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch, "max_batch")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")


@dataclass(frozen=True)
class ServedResult:
    """One request's slice of the micro-batch it was served in.

    Holds a reference into the shared batch report instead of eagerly
    copying per-sample fields — resolving thousands of futures per
    second must not cost a per-request report materialisation.

    Attributes
    ----------
    model:
        Routing key the request was served under.
    batch_size:
        How many requests shared the micro-batch.
    queue_wait_s:
        Time spent queued before the batch launched (seconds).
    """

    model: str
    batch_size: int
    queue_wait_s: float
    _report: object
    _index: int

    @property
    def prediction(self) -> int:
        """The winning class label."""
        return self._report.predictions[self._index]

    @property
    def delay(self) -> float:
        """Worst-case circuit inference latency of this sample (s)."""
        return float(self._report.delay[self._index])

    @property
    def energy_total(self) -> float:
        """Total inference energy attributed to this sample (J)."""
        return float(self._report.energy.total[self._index])

    @property
    def margin(self) -> float:
        """Winner/runner-up read margin of this sample.

        Recovered from the currents the serving read already sensed
        (the per-row signature ``read_margin_batch`` probes), so
        weighting a mirror vote costs one partition over a handful of
        wordlines — never an extra array read.  NaN when the report
        carries no usable currents (degenerate geometry, wrapped
        engines).
        """
        try:
            return sample_margin(report_currents(self._report)[self._index])[0]
        except Exception:  # noqa: BLE001 — weighting must never fail a vote
            return float("nan")

    def report(self):
        """The full scalar per-sample report (flat or tiled flavour)."""
        return self._report.sample(self._index)


class SchedulerClosed(RuntimeError):
    """The refusal of a row that arrives after shutdown."""


class Overloaded(RuntimeError):
    """Typed admission rejection: the bounded queue is full.

    The refusal of a row that found the queue full (nothing
    lower-priority to shed, or a blocking enqueue timed out) — raised by
    :meth:`MicroBatchScheduler.submit` — and set on the future of a queued
    request that was shed to admit a higher-priority arrival.  A shed
    is *not* a failure — the request was never attempted — so the
    request plane's failover path retries it elsewhere without marking
    the overloaded replica down.
    """

    def __init__(
        self,
        message: str,
        key: Optional[Hashable] = None,
        depth: int = 0,
        lane: int = 0,
    ):
        super().__init__(message)
        self.key = key
        self.depth = depth
        self.lane = lane


class _Request:
    """One queued sample and the owner it settles through.

    ``owner`` is the hop that queued the row, and the only code that
    resolves it.  The scheduler hands each run of one owner's rows back
    through four calls:

    * ``claim(rows) -> rows`` before the read: a row its client already
      cancelled drops out, never read;
    * ``served(rows, results, finished)``: one :class:`ServedResult` per
      row, and ``finished``, the one clock read that ended the traced
      rows' ``execute`` span;
    * ``failed(rows, exc, ran)``: rows a batch failed (``ran=True``) or
      a full or closed queue refused or displaced (``ran=False``);
    * ``cancel(rows)``: rows a non-draining shutdown dropped.

    Three owners implement them: :class:`_ClientFutures`, whose rows
    each hold the ``future`` a client waits on (a direct submit, or the
    request plane's attempt), a mirror participant's vote seat
    (:mod:`repro.serving.plane`), and a worker process's request block
    (:mod:`repro.serving.worker`).  Rows of the last two hold no future.

    ``key`` is the routing key the row was last admitted under; the
    batch worker resolves the engine that reads it from that key.
    """

    __slots__ = (
        "levels", "enqueued_at", "lane", "owner", "future", "key",
        "trace", "queue_span",
    )

    def __init__(
        self,
        levels: np.ndarray,
        enqueued_at: float,
        lane: int,
        owner,
        future: "Optional[Future[ServedResult]]" = None,
    ):
        self.levels = levels
        self.enqueued_at = enqueued_at
        self.lane = lane
        self.owner = owner
        self.future = future
        self.key: Hashable = None
        # Tracing state: ``trace`` is the sampled Trace riding this
        # request (almost always None) and ``queue_span`` the
        # currently-open lane-wait span.  The scheduler closes the spans
        # it opens; the owner finishes the trace.
        self.trace: Optional[Trace] = None
        self.queue_span: Optional[Span] = None


_owner = operator.attrgetter("owner")


class _ClientFutures:
    """The owner of rows whose client holds a future per row.

    Counts each client request once, before any of the futures resolves
    (completed, failed, shed for an :class:`Overloaded` refusal, or
    cancelled), finishes its trace and resolves its future.  A direct
    submit's rows share their scheduler's instance; the request plane's
    attempt record extends it with failover.  ``claimed`` says the
    rows' futures are already running (a batch ran them and failed), so
    no client can cancel them and nobody claims them again.
    """

    __slots__ = ("telemetry", "claimed")

    def __init__(self, telemetry: Telemetry, claimed: bool = False):
        self.telemetry = telemetry
        self.claimed = claimed

    def claim(self, rows: List[_Request]) -> List[_Request]:
        # A claimed (running) future can no longer be cancelled under
        # us, so the set_result/set_exception that settle it later
        # cannot raise InvalidStateError and kill a batch worker.
        if self.claimed:
            return rows
        kept = []
        for row in rows:
            if row.future.set_running_or_notify_cancel():
                kept.append(row)
            elif row.trace is not None:
                if row.queue_span is not None:
                    row.queue_span.end(outcome="cancelled")
                row.trace.finish("cancelled")
        if len(kept) < len(rows):
            self.telemetry.record_cancelled(len(rows) - len(kept))
        return kept

    def served(self, rows: List[_Request], results: list,
               finished: float) -> None:
        self.telemetry.record_completed(
            results[0].model,
            len(rows),
            latencies_s=[finished - row.enqueued_at for row in rows],
        )
        for row, result in zip(rows, results):
            if row.trace is not None:
                row.trace.finish("served", finished)
            row.future.set_result(result)

    def failed(self, rows: List[_Request], exc: BaseException,
               ran: bool) -> None:
        """Resolve ``rows`` with ``exc``: shed when it is
        :class:`Overloaded`, failed otherwise (a row its client
        cancelled before anything claimed it counts cancelled)."""
        if not ran:
            rows = self.claim(rows)
        if not rows:
            return
        if isinstance(exc, Overloaded):
            outcome = "shed"
            self.telemetry.record_shed(len(rows))
        else:
            outcome = "failed"
            self.telemetry.record_failed(len(rows))
        for row in rows:
            if row.trace is not None:
                row.trace.finish(outcome)
            row.future.set_exception(exc)

    def cancel(self, rows: List[_Request]) -> None:
        self.telemetry.record_cancelled(len(rows))
        for row in rows:
            if row.trace is not None:
                row.trace.finish("cancelled")
            if self.claimed:
                # Running futures cannot be cancelled: the cancellation
                # arrives as their error.
                row.future.set_exception(CancelledError())
            else:
                row.future.cancel()


class _LaneQueue:
    """A scheduler's pending requests, split into priority lanes.

    Flush order is highest lane first, FIFO within a lane; sheds take
    the *newest* request of the *lowest* lane (it has waited least and
    matters least).  The common all-lane-0 case degenerates to a plain
    FIFO deque.
    """

    __slots__ = ("lanes", "size")

    def __init__(self):
        self.lanes: Dict[int, deque] = {}
        self.size = 0

    def extend(self, lane: int, requests: List[_Request]) -> None:
        """Append requests of one ``lane``, in order."""
        self.lanes.setdefault(lane, deque()).extend(requests)
        self.size += len(requests)

    def oldest_enqueued_at(self) -> float:
        """Earliest enqueue time across lanes (age-out deadline)."""
        return min(q[0].enqueued_at for q in self.lanes.values() if q)

    def pop_batch(self, n: int) -> List[_Request]:
        """Up to ``n`` requests, highest lane first, FIFO within."""
        popped: List[_Request] = []
        for lane in sorted(self.lanes, reverse=True):
            queue = self.lanes[lane]
            while queue and len(popped) < n:
                popped.append(queue.popleft())
            if not queue:
                del self.lanes[lane]
            if len(popped) == n:
                break
        self.size -= len(popped)
        return popped

    def shed_lowest(self, below_lane: int) -> Optional[_Request]:
        """Evict the newest request of the lowest lane strictly below
        ``below_lane``; ``None`` when nothing cheaper is queued."""
        for lane in sorted(self.lanes):
            if lane >= below_lane:
                return None
            queue = self.lanes[lane]
            if not queue:
                continue
            victim = queue.pop()
            if not queue:
                del self.lanes[lane]
            self.size -= 1
            return victim
        return None

    def drain_all(self) -> List[_Request]:
        """Remove and return everything (shutdown cancellation)."""
        drained = [r for q in self.lanes.values() for r in q]
        self.lanes.clear()
        self.size = 0
        return drained


class MicroBatchScheduler:
    """Coalesces single-sample requests into batched engine reads.

    Parameters
    ----------
    resolve_engine:
        Callable mapping a routing key to an engine-like object exposing
        ``infer_batch(levels) -> report`` with ``predictions``,
        ``delay`` and ``energy.total`` per-sample arrays (both
        :class:`~repro.core.engine.FeBiMEngine` and
        :class:`~repro.crossbar.tiling.TiledFeBiM` qualify).  Called on
        the worker thread once per key and feature width of a flushed
        batch; resolution errors fail that group's rows, not the
        scheduler.
    policy:
        Coalescing bounds; defaults to ``BatchPolicy()``.
    telemetry:
        Shared counters; a private instance is created when omitted.
    max_queue_depth:
        Bound on the scheduler's one queue, shared by every key it is
        fed (``None`` = unbounded).  Rows that find it full displace the
        cheapest queued request or are refused with :class:`Overloaded`
        — see the module docstring's admission-control contract.

    The scheduler owns one daemon worker thread.  Every row enters
    through :meth:`enqueue`, which never blocks on inference (unless the
    caller opts into backpressure with ``block=True``); :meth:`submit`
    and :meth:`submit_many` wrap it for clients that want futures.
    """

    def __init__(
        self,
        resolve_engine: Callable[[Hashable], object],
        policy: Optional[BatchPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        max_queue_depth: Optional[int] = None,
    ):
        self.policy = policy or BatchPolicy()
        self.resolve_engine = resolve_engine
        self.telemetry = telemetry or Telemetry(self.policy.max_batch)
        if max_queue_depth is not None:
            check_positive_int(max_queue_depth, "max_queue_depth")
        self.max_queue_depth = max_queue_depth
        # The owner of every direct submit's rows.
        self._direct = _ClientFutures(self.telemetry)
        self._scratch = default_pool()
        self._queue = _LaneQueue()
        self._lock = threading.Lock()
        # The batch worker waits on ``_wake``; drain, pause and
        # backpressured enqueues wait on ``_progress``, which the worker
        # notifies when a pop frees space or a batch finishes.
        self._wake = threading.Condition(self._lock)
        self._progress = threading.Condition(self._lock)
        self._inflight = 0
        self._paused = 0
        self._draining = False
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="febim-microbatch", daemon=True
        )
        self._worker.start()

    # ---------------------------------------------------------------- client
    def submit(
        self,
        key: Hashable,
        evidence_levels: np.ndarray,
        priority: int = 0,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> "Future[ServedResult]":
        """Enqueue one sample for ``key``; returns its result future.

        ``evidence_levels`` must be a single 1-D discretised sample.
        The future resolves to a :class:`ServedResult` (or raises the
        engine/resolution error that failed its batch).

        A one-row :meth:`enqueue` (``priority`` is its lane; ``block``
        and ``timeout`` as there) that raises the refusal: a refused
        request is counted first — shed (:class:`Overloaded`), or failed
        after shutdown (:class:`SchedulerClosed`).
        """
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 1:
            raise ValueError(
                f"submit takes one 1-D sample, got shape {levels.shape}"
            )
        request = _Request(
            levels, time.monotonic(), int(priority), self._direct, Future()
        )
        self.telemetry.record_submitted()
        refusal = self.enqueue(key, [request], block, timeout)
        if refusal is not None:
            raise refusal
        return request.future

    def submit_many(
        self, key: Hashable, evidence_levels: np.ndarray, priority: int = 0
    ) -> List["Future[ServedResult]"]:
        """Enqueue a stack of samples as one chunk of independent requests.

        Each sample gets its own future and may land in a different
        micro-batch.  On a bounded queue some may displace cheaper rows
        or be refused — a refused sample's future carries the
        :class:`Overloaded` instead of raising; after shutdown the call
        raises :class:`SchedulerClosed`.
        """
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 2:
            raise ValueError(
                f"submit_many takes (n, features) samples, got {levels.shape}"
            )
        now = time.monotonic()
        lane = int(priority)
        requests = [
            _Request(row, now, lane, self._direct, Future()) for row in levels
        ]
        self.telemetry.record_submitted(len(requests))
        refusal = self.enqueue(key, requests)
        if isinstance(refusal, SchedulerClosed):
            raise refusal
        return [r.future for r in requests]

    def enqueue(
        self,
        key: Hashable,
        requests: List[_Request],
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> Optional[BaseException]:
        """Queue a chunk — prebuilt rows of one owner and one lane — for
        ``key``; the only way a row enters the queue.

        The chunk is admitted under one lock acquisition (a blocked one
        releases the lock only while it waits): the lane gauge rises
        before any row is visible to the batch worker, which is woken
        only for a new age-out deadline or a batch that just filled.  On
        a bounded queue each row that finds it full, in order, waits for
        space (with ``block``, up to ``timeout`` seconds; one
        ``backpressure_block`` event per chunk that waited), displaces
        the newest request of a lower lane (without ``block``), or is
        refused together with the rows after it (one ``shed`` event
        each).  Nothing is raised: refused rows go back to their owner
        as failed (``ran=False``), displaced ones too, and the refusal —
        :class:`Overloaded`, or :class:`SchedulerClosed` after shutdown
        — is returned (``None`` when every row was queued).
        """
        if not requests:
            return None
        lane = requests[0].lane
        queue = self._queue
        bound = self.max_queue_depth
        max_batch = self.policy.max_batch
        deadline = None if timeout is None else time.monotonic() + timeout
        admitted = 0
        victims: List[_Request] = []
        refusal: Optional[BaseException] = None
        blocked_at: Optional[float] = None
        with self._lock:
            while True:
                if self._closed:
                    refusal = SchedulerClosed("scheduler is shut down")
                    break
                rows = requests[admitted:]
                if bound is not None:
                    room = bound - queue.size
                    while room < len(rows) and not block:
                        victim = queue.shed_lowest(lane)
                        if victim is None:
                            break
                        victims.append(victim)
                        room += 1
                    rows = rows[:room]
                if rows:
                    # The lane gauge rises before the rows are visible
                    # to the worker: a drain recorded first would clamp
                    # at zero and leave this rise behind as a phantom
                    # queued row.  The telemetry lock is a leaf, so
                    # nesting it here is safe.
                    self.telemetry.record_lane_queued(lane, len(rows))
                    for request in rows:
                        request.key = key
                        if request.trace is not None:
                            self._trace_admitted(key, request)
                    before = queue.size
                    queue.extend(lane, rows)
                    admitted += len(rows)
                    # Waking the worker for every row is a context-switch
                    # storm under load; it only needs to hear about a
                    # new age-out deadline or a batch that just filled.
                    if before == 0 or before < max_batch <= queue.size:
                        self._wake.notify()
                if admitted == len(requests):
                    break
                if not block:
                    refusal = Overloaded(
                        f"queue for {key!r} is full ({queue.size}/{bound}) "
                        f"and nothing below priority {lane} is queued",
                        key=key, depth=queue.size, lane=lane,
                    )
                    break
                if blocked_at is None:
                    blocked_at = time.monotonic()
                if not self._progress.wait_for(
                    lambda: self._closed or queue.size < bound,
                    None if deadline is None else deadline - time.monotonic(),
                ):
                    refusal = Overloaded(
                        f"queue for {key!r} still full after "
                        f"{timeout:.3g} s of backpressure",
                        key=key, depth=queue.size, lane=lane,
                    )
                    break
        # Owners settle outside the lock: a displaced or refused routed
        # row fails over, which takes other schedulers' locks.
        for victim in victims:
            self._displace(victim, lane)
        refused = requests[admitted:]
        if isinstance(refusal, Overloaded):
            now = time.monotonic()
            reason = "backpressure_timeout" if block else "door"
            for request in refused:
                if request.trace is not None:
                    request.trace.add_span(
                        "admit", request.enqueued_at, now, key=str(key),
                        lane=lane, outcome="shed", depth=refusal.depth,
                    )
                self.telemetry.emit(
                    "shed", key=str(key), lane=lane, depth=refusal.depth,
                    reason=reason,
                )
        if refused:
            refused[0].owner.failed(refused, refusal, ran=False)
        if blocked_at is not None:
            self.telemetry.emit(
                "backpressure_block", key=str(key), lane=lane,
                waited_ms=(time.monotonic() - blocked_at) * 1e3,
            )
        return refusal

    def _displace(self, victim: _Request, lane: int) -> None:
        """Hand a queued request shed to admit a priority-``lane``
        arrival back to its owner as failed with :class:`Overloaded`
        (a routed victim is busy, not broken: it spills to a sibling)."""
        if victim.queue_span is not None:
            victim.queue_span.end(outcome="shed")
        self.telemetry.emit(
            "displacement", key=str(victim.key), lane=lane,
            victim_lane=victim.lane, depth=self.max_queue_depth,
        )
        self.telemetry.record_lane_drained(victim.lane)
        victim.owner.failed([victim], Overloaded(
            f"shed from the queue for {victim.key!r} by a priority-{lane} "
            f"arrival",
            key=victim.key, depth=self.max_queue_depth, lane=victim.lane,
        ), ran=False)

    @staticmethod
    def _trace_admitted(key: Hashable, request: _Request) -> None:
        """Close the admit span and open the lane-wait span.

        Runs under the lock, before the request becomes visible to the
        worker — it may pop (and must close) the queue span the instant
        the lock drops.
        """
        t_admitted = time.monotonic()
        request.trace.add_span(
            "admit", request.enqueued_at, t_admitted,
            key=str(key), lane=request.lane,
        )
        request.queue_span = request.trace.span(
            "queue", start_s=t_admitted, lane=request.lane
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Flush the queue now and wait until all requests resolved.

        Returns ``True`` when the scheduler went idle within
        ``timeout`` seconds (``None`` = wait forever).
        """
        with self._lock:
            self._draining = True
            self._wake.notify()
            try:
                return self._progress.wait_for(
                    lambda: not self._queue.size and not self._inflight,
                    timeout,
                )
            finally:
                # Also on timeout: leaving the flag set would force
                # every future batch to flush immediately, silently
                # collapsing coalescing to per-request calls.
                self._draining = False

    def pause(self, timeout: Optional[float] = None) -> bool:
        """Stop launching batches and wait out the in-flight one.

        The quiesce primitive for engine maintenance (reprogramming a
        live array, swapping a cached engine): after ``pause`` returns
        ``True`` the worker is guaranteed not to be touching any engine
        until :meth:`resume`.  Requests keep queueing meanwhile — the
        pause is invisible to clients beyond added latency.  Nests:
        each ``pause`` needs a matching ``resume``.  Returns ``False``
        (and does not pause) if the in-flight batch fails to finish
        within ``timeout`` seconds.
        """
        with self._lock:
            self._paused += 1
            if self._progress.wait_for(lambda: not self._inflight, timeout):
                return True
            self._paused -= 1
            self._wake.notify()
            return False

    def resume(self) -> None:
        """Undo one :meth:`pause`; the worker picks the queue back up."""
        with self._lock:
            if self._paused == 0:
                raise RuntimeError("resume() without a matching pause()")
            self._paused -= 1
            if self._paused == 0:
                self._wake.notify()

    @contextmanager
    def quiesce(self, timeout: Optional[float] = None) -> Iterator[None]:
        """``with scheduler.quiesce(): ...`` — paused for the body.

        Raises ``TimeoutError`` if the in-flight batch does not clear
        within ``timeout``.
        """
        if not self.pause(timeout):
            raise TimeoutError("scheduler did not quiesce in time")
        try:
            yield
        finally:
            self.resume()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the worker; idempotent.

        With ``drain=True`` (the default) every queued request is served
        first — the graceful path.  With ``drain=False`` queued requests
        go back to their owners as cancelled (a client's future reports
        cancellation; a routed row queued here by a failover is already
        running, so its future raises
        :class:`~concurrent.futures.CancelledError` instead).
        """
        if drain:
            self.drain(timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            cancelled = self._queue.drain_all()
            self._wake.notify()
            # Backpressured enqueues must observe _closed and refuse
            # their rows instead of sleeping forever.
            self._progress.notify_all()
        self._drained(cancelled)
        for request in cancelled:
            if request.queue_span is not None:
                request.queue_span.end(outcome="cancelled")
        for owner, run in itertools.groupby(cancelled, _owner):
            owner.cancel(list(run))
        self._worker.join()

    @property
    def pending(self) -> int:
        """Requests queued but not yet launched in a batch.

        Read without the queue lock: the router's cost score reads it
        for every pick, and a count one request out of date is harmless
        there, while contending with the batch worker for the lock is
        not.
        """
        return self._queue.size

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))

    # ---------------------------------------------------------------- worker
    def _run(self) -> None:
        queue = self._queue
        max_batch = self.policy.max_batch
        max_wait = self.policy.max_wait_ms / 1e3
        while True:
            with self._lock:
                while True:
                    if self._closed:
                        return
                    wait = None
                    if queue.size and not self._paused:
                        if self._draining or queue.size >= max_batch:
                            break
                        wait = (
                            queue.oldest_enqueued_at() + max_wait
                            - time.monotonic()
                        )
                        if wait <= 0:
                            break
                    self._wake.wait(wait)
                popped = queue.pop_batch(max_batch)
                self._inflight += len(popped)
                if self.max_queue_depth is not None:
                    # Room just opened up for backpressured enqueues.
                    self._progress.notify_all()
            self._drained(popped)
            # Each owner claims its rows before the read: a row its
            # client already cancelled drops out here, unread.
            batch = []
            for owner, run in itertools.groupby(popped, _owner):
                batch += owner.claim(list(run))
            try:
                if batch:
                    self._execute(batch)
            finally:
                with self._lock:
                    self._inflight -= len(popped)
                    self._progress.notify_all()

    def _execute(self, batch: List[_Request]) -> None:
        started = time.monotonic()
        # Rows are read per routing key and feature width, so one key
        # whose engine fails to resolve, or one malformed request, can
        # only fail its own group, never the well-formed requests that
        # happened to share the coalescing window.
        groups: Dict[tuple, List[_Request]] = {}
        for request in batch:
            groups.setdefault(
                (request.key, request.levels.shape), []
            ).append(request)
        for (key, _), group in groups.items():
            try:
                engine = self.resolve_engine(key)
            except BaseException as exc:  # noqa: BLE001 — failures go to owners
                self._fail(group, started, exc)
                continue
            self._execute_group(key, engine, group, started)

    def _drained(self, requests: List[_Request]) -> None:
        """Lower the lane gauge for rows that left the queue."""
        by_lane: Dict[int, int] = {}
        for request in requests:
            by_lane[request.lane] = by_lane.get(request.lane, 0) + 1
        for lane, count in by_lane.items():
            self.telemetry.record_lane_drained(lane, count)

    @staticmethod
    def _fail(
        requests: List[_Request], started: float, exc: BaseException
    ) -> None:
        """Hand the requests of a batch whose engine resolve/read failed
        back to their owners, one call per owner run.

        Spans close first: a routed row's failover appends new spans to
        the same trace, and those must come after these.
        """
        now = time.monotonic()
        for request in requests:
            if request.trace is not None:
                if request.queue_span is not None:
                    request.queue_span.end(started)
                request.trace.add_span(
                    "execute", started, now, error=type(exc).__name__
                )
        for owner, run in itertools.groupby(requests, _owner):
            owner.failed(list(run), exc, ran=True)

    @staticmethod
    def _trace_attrs(report, rows: List[int], size: int) -> List[dict]:
        """``execute`` span attributes of a batch's traced ``rows``: the
        modeled device cost of each sample (all real engines report it)
        and its read margin, from one :func:`margin_signal` call over the
        currents the read already produced — sampled traces only, so the
        untraced hot path never touches them."""
        attrs = [{"batch": size} for _ in rows]
        try:
            for row_attrs, i in zip(attrs, rows):
                row_attrs["delay_s"] = float(report.delay[i])
                row_attrs["energy_j"] = float(report.energy.total[i])
        except Exception:  # noqa: BLE001 — tracing never fails a batch
            pass
        try:
            margins, signals = margin_signal(report_currents(report)[rows])
            for row_attrs, margin, signal in zip(
                attrs, margins.tolist(), signals.tolist()
            ):
                if margin == margin:  # NaN never leaks into dumps
                    row_attrs["margin"] = margin
                    row_attrs["signal"] = signal
        except Exception:  # noqa: BLE001 — tracing never fails a batch
            pass
        return attrs

    def _execute_group(
        self, key: Hashable, engine, group: List[_Request], started: float
    ) -> None:
        # Stack the batch's levels into a pooled buffer: the steady
        # state re-serves the same few micro-batch shapes, and the
        # engine only derives activation masks from the levels (it
        # retains no reference), so the row-stacking that fed every
        # infer_batch call stops allocating per batch.
        levels = self._scratch.take(
            (len(group), group[0].levels.shape[0]), dtype=int
        )
        for i, request in enumerate(group):
            levels[i] = request.levels
        try:
            report = engine.infer_batch(levels)
        except BaseException as exc:  # noqa: BLE001 — failures go to owners
            self._fail(group, started, exc)
            return
        finally:
            self._scratch.give(levels)
        size = len(group)
        model = str(key)
        traced = [
            i for i, request in enumerate(group) if request.trace is not None
        ]
        # The traced rows' span attributes are computed first, inside
        # ``execute``; then one clock read ends each traced row's span,
        # and its owner finishes the trace at that same reading, so no
        # per-row work (and no thread switch during it) opens a hole
        # between the two.
        attrs = self._trace_attrs(report, traced, size) if traced else ()
        finished = time.monotonic()
        for i, row_attrs in zip(traced, attrs):
            request = group[i]
            if request.queue_span is not None:
                request.queue_span.end(started)
            request.trace.add_span("execute", started, finished, **row_attrs)
        self.telemetry.record_executed(size, max_batch=self.policy.max_batch)
        results = [
            ServedResult(
                model=model,
                batch_size=size,
                queue_wait_s=started - request.enqueued_at,
                _report=report,
                _index=i,
            )
            for i, request in enumerate(group)
        ]
        # A chunk's rows sit together in the queue, so a batch usually
        # settles in one or two owner calls.
        lo = 0
        for owner, run in itertools.groupby(group, _owner):
            run = list(run)
            owner.served(run, results[lo:lo + len(run)], finished)
            lo += len(run)
