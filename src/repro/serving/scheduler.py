"""Micro-batching request scheduler over the batched inference core.

PR 1 made the *offline* read path fast by amortising every layer over
dense batches; an online server receives single-sample requests that
would each pay the full per-call overhead again.  This module closes
the gap with the classic serving idiom: one thread-safe queue, a worker
that coalesces whatever is pending into one ``infer_batch`` call per
routing key and feature width, and each row's result record built
once per served segment from the shared batch report.

The unit the queue holds is an *entry* (:class:`_Request`): an
``(n, cols)`` block of rows of one owner and one lane.  A ``submit`` is
a one-row entry with one real :class:`~concurrent.futures.Future`; a
``submit_many`` chunk is one entry whose rows share one completion
slot, read by light row handles (:class:`RowHandle`).  A flush takes
whole entries and splits the last one at the ``max_batch`` boundary by
slicing, so an entry that fills a batch is read with no restacking.

Coalescing rule (:class:`BatchPolicy`)
--------------------------------------

The batch worker is work-conserving: whenever it is idle and the queue
holds rows, it pops up to ``max_batch`` of them at once.  Rows that
arrive while a batch runs wait for the next pop, and form the next
batch together.  No row ever waits on a timer, so a lone request is
read as soon as it is queued, while under load the batches grow with
the arrival rate until they are full (``max_batch`` rows, the offline
throughput ceiling).  The busier the worker, the bigger its batches.

Admission control
-----------------

Every row enters through one path, :meth:`MicroBatchScheduler.enqueue`,
which admits entries of one owner and one lane under one lock
acquisition.  By default the queue is unbounded.  With
``max_queue_depth`` set, the bound counts the rows of the scheduler's
one queue, and rows that find it full are resolved by priority, in
order:

* with ``block=True`` they wait for space (backpressure; ``timeout``
  bounds the wait), or
* they displace the newest queued rows of a *lower* lane (an entry
  split at the boundary; the displaced rows fail with
  :class:`Overloaded` — a typed, fast rejection the caller can
  distinguish from a real failure), or
* they are refused with :class:`Overloaded` when nothing cheaper is
  queued (or the wait timed out), together with the rows after them.

Rows live in *priority lanes*: batches fill from the highest lane
first (FIFO within a lane), and sheds always take the newest rows of
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

The scheduler never resolves a row itself.  Every queued entry carries
its *owner*, the hop that queued it, and the scheduler hands each run
of one owner's entry segments back through four calls (see
:class:`_Request`): ``claim`` before the read, then exactly one of
``served``, ``failed`` or ``cancel`` — once per segment, never per row.
Counting client requests, finishing their traces and completing their
slots are the owner's.  The scheduler keeps only the batch counters,
the lane gauge and the spans it opens (admit, queue, execute).
"""

from __future__ import annotations

import itertools
import logging
import operator
import threading
import time
import warnings
from collections import deque
from concurrent.futures import CancelledError, Future, InvalidStateError
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from typing import (
    Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional,
)

import numpy as np

from repro.kernels.scratch import default_pool
from repro.reliability.observability import (
    margin_signal,
    report_currents,
    sample_margin,
)
from repro.serving.telemetry import Telemetry
from repro.utils.validation import check_positive_int

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchPolicy:
    """The coalescing bound of the micro-batch scheduler.

    Attributes
    ----------
    max_batch:
        Largest number of rows fused into one ``infer_batch`` call.  The
        batch worker pops up to this many whenever it is idle and the
        queue holds rows (the module docstring's coalescing rule).
    max_wait_ms:
        Deprecated and ignored, an init-only argument that is not kept:
        the worker no longer waits for company.  Passing any value warns
        :class:`DeprecationWarning`; a negative one still raises
        ``ValueError``.
    """

    max_batch: int = 64
    max_wait_ms: InitVar[Optional[float]] = None

    def __post_init__(self, max_wait_ms: Optional[float]) -> None:
        check_positive_int(self.max_batch, "max_batch")
        if max_wait_ms is None:
            return
        warnings.warn(
            "BatchPolicy(max_wait_ms=...) is deprecated and ignored: the "
            "batch worker flushes whenever it is idle",
            DeprecationWarning, stacklevel=3,
        )
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")


class ServedResult(NamedTuple):
    """One request's row of the micro-batch it was served in.

    A read-only record, built together with every other row of its
    segment in one pass over the batch report's columns
    (:meth:`ServedRows.results`), and stored in the row's completion
    slot, so reading a served row builds nothing.  Its values are plain
    Python scalars, as a row that crossed the wire carries them
    (:class:`~repro.serving.transport.protocol.RemoteServedResult`).
    ``margin`` and :meth:`report` are computed only when read, through
    ``segment`` (the :class:`ServedRows` that served the row) and
    ``row`` (the row's index in the shared batch report).  Equality is
    a tuple's: two records of the same row compare equal, and the
    segment compares by identity, never by its report's arrays.

    Attributes
    ----------
    model:
        Routing key the request was served under.
    prediction:
        The winning class label.
    delay:
        Worst-case circuit inference latency of this sample (s).
    energy_total:
        Total inference energy attributed to this sample (J).
    queue_wait_s:
        Time spent queued before the batch launched (seconds).
    batch_size:
        How many requests shared the micro-batch.
    """

    model: str
    prediction: object
    delay: float
    energy_total: float
    queue_wait_s: float
    batch_size: int
    segment: "ServedRows"
    row: int

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
            return sample_margin(
                report_currents(self.segment.report)[self.row]
            )[0]
        except Exception:  # noqa: BLE001 — weighting must never fail a vote
            return float("nan")

    def report(self):
        """The full scalar per-sample report (flat or tiled flavour)."""
        return self.segment.report.sample(self.row)


class ServedRows:
    """The results of one served entry segment: the row at slot
    position ``pos`` is row ``pos + shift`` of the batch ``report``.

    One object per segment, however many rows it holds.  An owner that
    completes client handles asks it for its rows' records once
    (:meth:`results`); the worker's request block reads slices of the
    report instead, and a mirror vote one row (:meth:`at`).
    """

    __slots__ = ("model", "batch_size", "queue_wait_s", "report", "shift")

    def __init__(self, model: str, batch_size: int, queue_wait_s: float,
                 report, shift: int):
        self.model = model
        self.batch_size = batch_size
        self.queue_wait_s = queue_wait_s
        self.report = report
        self.shift = shift

    def results(self, lo: int, hi: int) -> List[ServedResult]:
        """The :class:`ServedResult` of every row at slot positions
        ``lo..hi``, built in one pass over ``.tolist()`` slices of the
        report's columns."""
        a, b = lo + self.shift, hi + self.shift
        report, n = self.report, hi - lo
        return list(map(tuple.__new__, itertools.repeat(ServedResult, n), zip(
            itertools.repeat(self.model, n),
            np.asarray(report.predictions)[a:b].tolist(),
            np.asarray(report.delay)[a:b].tolist(),
            np.asarray(report.energy.total)[a:b].tolist(),
            itertools.repeat(self.queue_wait_s, n),
            itertools.repeat(self.batch_size, n),
            itertools.repeat(self, n),
            range(a, b),
        )))

    def at(self, pos: int) -> ServedResult:
        return self.results(pos, pos + 1)[0]


class SchedulerClosed(RuntimeError):
    """The refusal of a row that arrives after shutdown."""


class Overloaded(RuntimeError):
    """Typed admission rejection: the bounded queue is full.

    The refusal of rows that found the queue full (nothing
    lower-priority to shed, or a blocking enqueue timed out) — raised by
    :meth:`MicroBatchScheduler.submit` — and the outcome of queued rows
    that were shed to admit a higher-priority arrival.  A shed is *not*
    a failure — the request was never attempted — so the request
    plane's failover path retries it elsewhere without marking the
    overloaded replica down.
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
    """One queue entry: an ``(n, cols)`` block of rows, its lane, the
    owner it settles through, its sampled traces and its completion
    slot.

    ``owner`` is the hop that queued the entry, and the only code that
    resolves its rows.  The scheduler hands each run of one owner's
    entry segments back through four calls, once per segment:

    * ``claim(entries) -> entries`` before the read: rows their client
      already cancelled drop out, never read (the kept rows may come
      back as several segments);
    * ``served(entries, results, finished)``: one results object per
      segment (a local batch's :class:`ServedRows`, or the decoded reply
      of a worker), whose ``results(lo, hi)`` are the records of the
      rows at slot positions ``lo..hi`` and ``at(pos)`` one row's; and
      ``finished``, the one clock read that ended the traced rows'
      ``execute`` span;
    * ``failed(entries, exc, ran)``: segments a batch failed
      (``ran=True``) or a full or closed queue refused or displaced
      (``ran=False``);
    * ``cancel(entries)``: segments a non-draining shutdown dropped.

    Three owners implement them: :class:`_ClientFutures` (a direct
    submit, or the request plane's attempt), whose entries complete a
    client ``slot`` (a ``submit_many`` chunk's :class:`_Slot`, or a
    ``submit``'s one :class:`_FutureSlot`); a mirror participant's vote
    seat (:mod:`repro.serving.plane`); and a worker process's request
    block (:mod:`repro.serving.worker`).  Entries of the last two hold
    no slot.

    ``lo`` is the slot position of the entry's first row: a flush, a
    displacement or a claim that splits an entry (:meth:`split`) keeps
    every segment addressed in its chunk's coordinates.  ``key`` is the
    routing key the entry was last admitted under; the batch worker
    resolves the engine that reads it from that key.  ``traces`` is
    ``None`` or a list of ``[pos, trace, queue_span]`` for the sampled
    rows: the scheduler closes the spans it opens, the owner finishes
    the traces.
    """

    __slots__ = (
        "levels", "enqueued_at", "lane", "owner", "slot", "lo", "key",
        "traces",
    )

    def __init__(
        self,
        levels: np.ndarray,
        enqueued_at: float,
        lane: int,
        owner,
        slot=None,
        lo: int = 0,
    ):
        # A 1-D sample is a one-row entry.
        self.levels = levels if levels.ndim == 2 else levels.reshape(1, -1)
        self.enqueued_at = enqueued_at
        self.lane = lane
        self.owner = owner
        self.slot = slot
        self.lo = lo
        self.key: Hashable = None
        self.traces: Optional[list] = None

    def __len__(self) -> int:
        return len(self.levels)

    def piece(self, a: int, b: int) -> "_Request":
        """A new entry for slot positions ``a..b`` of this one."""
        entry = _Request(
            self.levels[a - self.lo:b - self.lo], self.enqueued_at,
            self.lane, self.owner, self.slot, a,
        )
        entry.key = self.key
        if self.traces:
            entry.traces = [t for t in self.traces if a <= t[0] < b] or None
        return entry

    def split(self, k: int) -> "_Request":
        """Keep the first ``k`` rows; return the rest as a new entry."""
        tail = self.piece(self.lo + k, self.lo + len(self))
        self.levels = self.levels[:k]
        if self.traces:
            cut = self.lo + k
            self.traces = [t for t in self.traces if t[0] < cut] or None
        return tail

    def cut(self, marks: list) -> list:
        """``(piece, mark)`` over this entry's rows, cut at ``marks``:
        sorted, disjoint ``(a, b, mark)`` slot-position ranges, with the
        rows between them marked ``None``; an entry no mark splits comes
        back whole."""
        end = self.lo + len(self)
        spans, pos = [], self.lo
        for a, b, mark in marks + [(end, end, None)]:
            if pos < a:
                spans.append((pos, a, None))
            if a < b:
                spans.append((a, b, mark))
            pos = b
        if len(spans) == 1:
            return [(self, spans[0][2])]
        return [(self.piece(a, b), mark) for a, b, mark in spans]

    def finish_traces(self, outcome: str, end_s: Optional[float] = None) -> None:
        for _, trace, _ in self.traces or ():
            trace.finish(outcome, end_s)


_owner = operator.attrgetter("owner")

# A slot row's state byte.
_PENDING, _RUNNING, _CANCELLED, _DONE = 0, 1, 2, 3


class _Slot:
    """The one completion slot of a ``submit_many`` chunk.

    One state byte and one outcome per row, under one lock and one
    condition; the chunk's row handles (:class:`RowHandle`) read it.  A
    row is pending, running (claimed for a read), cancelled (by its
    client, before any claim) or done.  A done row's outcome is its own
    result record (a :class:`ServedResult`, or a
    :class:`~repro.serving.transport.protocol.RemoteServedResult` on
    process placement) or the exception that failed it.  Settling
    writes a whole segment at once.
    """

    __slots__ = ("state", "outcomes", "lock", "changed", "callbacks")

    def __init__(self, n: int):
        self.state = bytearray(n)
        self.outcomes: list = [None] * n
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.callbacks: Dict[int, list] = {}

    def handles(self) -> List["RowHandle"]:
        n = len(self.state)
        return list(map(tuple.__new__, itertools.repeat(RowHandle, n),
                        zip(itertools.repeat(self, n), range(n))))

    def claim(self, lo: int, hi: int) -> List[int]:
        """Mark rows ``lo..hi`` running; returns the positions whose
        client cancelled them first (they stay cancelled).  A done row
        raises, as claiming a finished Future does."""
        with self.lock:
            state = self.state
            if state.find(_DONE, lo, hi) >= 0:
                raise InvalidStateError(f"rows {lo}..{hi} already done")
            if state.find(_CANCELLED, lo, hi) < 0:
                state[lo:hi] = bytes((_RUNNING,)) * (hi - lo)
                return []
            gone = []
            for pos in range(lo, hi):
                if state[pos] == _CANCELLED:
                    gone.append(pos)
                else:
                    state[pos] = _RUNNING
            return gone

    def settle(self, lo: int, hi: int, outcome) -> None:
        """Rows ``lo..hi`` are done with the one ``outcome`` (the
        exception that failed them)."""
        self._set(lo, hi, _DONE, [outcome] * (hi - lo))

    def serve(self, lo: int, hi: int, results: list) -> None:
        """Rows ``lo..hi`` are served: ``results`` holds each row's
        record, in order."""
        self._set(lo, hi, _DONE, results)

    def cancel(self, lo: int, hi: int) -> None:
        """A queue dropped unclaimed rows ``lo..hi``: they are cancelled."""
        self._set(lo, hi, _CANCELLED, [None] * (hi - lo))

    def cancel_row(self, pos: int) -> bool:
        """A client cancels one row: ``True`` unless it is already
        running or done."""
        return (
            self._set(pos, pos + 1, _CANCELLED, [None], only_pending=True)
            or self.state[pos] == _CANCELLED
        )

    def _set(self, lo: int, hi: int, state: int, outcomes: list,
             only_pending: bool = False) -> bool:
        with self.lock:
            if only_pending and self.state[lo] != _PENDING:
                return False
            if self.state.find(_DONE, lo, hi) >= 0:
                # As a Future refuses a second result: a row completes
                # exactly once.
                raise InvalidStateError(f"rows {lo}..{hi} already done")
            # The outcome first: a ``RowHandle`` reads a done row's
            # outcome without the lock once it sees the state byte.
            self.outcomes[lo:hi] = outcomes
            self.state[lo:hi] = bytes((state,)) * (hi - lo)
            self.changed.notify_all()
            fired = []
            if self.callbacks:
                for pos in range(lo, hi):
                    fired += self.callbacks.pop(pos, ())
        for handle, fn in fired:
            try:
                fn(handle)
            except Exception:  # noqa: BLE001 — as concurrent.futures does
                _log.exception("exception calling callback for %r", handle)
        return True


class RowHandle(tuple):
    """One row of a ``submit_many`` chunk: the
    :class:`~concurrent.futures.Future` reading surface (``result``,
    ``exception``, ``done``, ``cancelled``, ``cancel`` and
    ``add_done_callback``) over the chunk's one completion slot.

    A ``(slot, pos)`` pair and no lock of its own, so a chunk of rows
    costs one slot, not one future per row, and its handles are built
    in one C-level pass (:meth:`_Slot.handles`).  ``result`` returns the
    record the slot stores for the row (its owner built every row's
    record once per served segment) and builds nothing.  ``cancel``
    succeeds while the row is queued; the row then drops out when its
    batch is claimed, never read.
    """

    __slots__ = ()

    slot = property(operator.itemgetter(0))
    pos = property(operator.itemgetter(1))

    def done(self) -> bool:
        return self.slot.state[self.pos] >= _CANCELLED

    def cancelled(self) -> bool:
        return self.slot.state[self.pos] == _CANCELLED

    def cancel(self) -> bool:
        return self.slot.cancel_row(self.pos)

    def result(self, timeout: Optional[float] = None):
        slot, pos = self
        # A done row, the usual case by the time a client reads it, is
        # read in place; any other waits in ``_outcome``.
        outcome = (slot.outcomes[pos] if slot.state[pos] == _DONE
                   else self._outcome(timeout))
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def exception(self, timeout: Optional[float] = None):
        outcome = self._outcome(timeout)
        return outcome if isinstance(outcome, BaseException) else None

    def add_done_callback(self, fn) -> None:
        slot = self.slot
        with slot.lock:
            if slot.state[self.pos] < _CANCELLED:
                slot.callbacks.setdefault(self.pos, []).append((self, fn))
                return
        try:
            fn(self)
        except Exception:  # noqa: BLE001 — as concurrent.futures does
            _log.exception("exception calling callback for %r", self)

    def _outcome(self, timeout: Optional[float]):
        slot, pos = self
        state = slot.state[pos]
        if state < _CANCELLED:
            with slot.changed:
                if not slot.changed.wait_for(
                    lambda: slot.state[pos] >= _CANCELLED, timeout
                ):
                    raise TimeoutError()
            state = slot.state[pos]
        if state == _CANCELLED:
            raise CancelledError()
        return slot.outcomes[pos]


class _FutureSlot:
    """The completion slot of a one-row ``submit``: one real
    :class:`~concurrent.futures.Future`."""

    __slots__ = ("future",)

    def __init__(self):
        self.future: "Future[ServedResult]" = Future()

    def claim(self, lo: int, hi: int) -> List[int]:
        return [] if self.future.set_running_or_notify_cancel() else [lo]

    def settle(self, lo: int, hi: int, outcome) -> None:
        self.future.set_exception(outcome)

    def serve(self, lo: int, hi: int, results: list) -> None:
        self.future.set_result(results[0])

    def cancel(self, lo: int, hi: int) -> None:
        self.future.cancel()


class _ClientFutures:
    """The owner of entries whose rows a client waits on.

    Counts each client request once, before any of its rows completes
    (completed, failed, shed for an :class:`Overloaded` refusal, or
    cancelled), finishes its trace and completes the entry's slot, one
    call per segment.  A direct submit's entries share their
    scheduler's instance; the request plane's attempt record extends it
    with failover.  ``claimed`` says the rows are already running (a
    batch ran them and failed), so no client can cancel them and nobody
    claims them again.
    """

    __slots__ = ("telemetry", "claimed")

    def __init__(self, telemetry: Telemetry, claimed: bool = False):
        self.telemetry = telemetry
        self.claimed = claimed

    def claim(self, entries: List[_Request]) -> List[_Request]:
        # Claimed rows can no longer be cancelled under us, so the
        # settlement that completes them later cannot race a cancel.
        if self.claimed:
            return entries
        kept: List[_Request] = []
        dropped = 0
        for entry in entries:
            gone = entry.slot.claim(entry.lo, entry.lo + len(entry))
            if not gone:
                kept.append(entry)
                continue
            dropped += len(gone)
            marks = [(pos, pos + 1, True) for pos in gone]
            for piece, cancelled in entry.cut(marks):
                if not cancelled:
                    kept.append(piece)
                    continue
                for _, trace, queue_span in piece.traces or ():
                    if queue_span is not None:
                        queue_span.end(outcome="cancelled")
                    trace.finish("cancelled")
        if dropped:
            self.telemetry.record_cancelled(dropped)
        return kept

    def served(self, entries: List[_Request], results: list,
               finished: float, model: Optional[str] = None) -> None:
        """Complete served ``entries``, booked under ``model`` (default:
        the routing key the rows were read under)."""
        latencies: List[float] = []
        for entry in entries:
            latencies += [finished - entry.enqueued_at] * len(entry)
        self.telemetry.record_completed(
            model or results[0].model, len(latencies), latencies_s=latencies
        )
        for entry, result in zip(entries, results):
            entry.finish_traces("served", finished)
            lo = entry.lo
            hi = lo + len(entry)
            entry.slot.serve(lo, hi, result.results(lo, hi))

    def failed(self, entries: List[_Request], exc: BaseException,
               ran: bool) -> None:
        """Complete ``entries`` with ``exc``: shed when it is
        :class:`Overloaded`, failed otherwise (a row its client
        cancelled before anything claimed it counts cancelled)."""
        if not ran:
            entries = self.claim(entries)
        if not entries:
            return
        n = sum(map(len, entries))
        if isinstance(exc, Overloaded):
            outcome = "shed"
            self.telemetry.record_shed(n)
        else:
            outcome = "failed"
            self.telemetry.record_failed(n)
        for entry in entries:
            entry.finish_traces(outcome)
            entry.slot.settle(entry.lo, entry.lo + len(entry), exc)

    def cancel(self, entries: List[_Request]) -> None:
        self.telemetry.record_cancelled(sum(map(len, entries)))
        for entry in entries:
            entry.finish_traces("cancelled")
            if self.claimed:
                # Running rows cannot be cancelled: the cancellation
                # arrives as their error.
                entry.slot.settle(
                    entry.lo, entry.lo + len(entry), CancelledError()
                )
            else:
                entry.slot.cancel(entry.lo, entry.lo + len(entry))


class _LaneQueue:
    """A scheduler's pending entries, split into priority lanes.

    ``size`` counts rows.  Flush order is highest lane first, FIFO
    within a lane; sheds take the *newest* rows of the *lowest* lane
    (they have waited least and matter least).  Both split an entry at
    their boundary.  The common all-lane-0 case degenerates to a plain
    FIFO deque.
    """

    __slots__ = ("lanes", "size")

    def __init__(self):
        self.lanes: Dict[int, deque] = {}
        self.size = 0

    def extend(self, lane: int, entries: List[_Request], rows: int) -> None:
        """Append ``entries`` (``rows`` rows) of one ``lane``, in order."""
        self.lanes.setdefault(lane, deque()).extend(entries)
        self.size += rows

    def pop_batch(self, n: int) -> List[_Request]:
        """Up to ``n`` rows of entries, highest lane first, FIFO within;
        the entry at the boundary is split, its rest left at the head."""
        popped: List[_Request] = []
        room = n
        for lane in sorted(self.lanes, reverse=True):
            queue = self.lanes[lane]
            while queue and room:
                entry = queue[0]
                if len(entry) > room:
                    queue[0] = entry.split(room)
                    popped.append(entry)
                    room = 0
                else:
                    popped.append(queue.popleft())
                    room -= len(entry)
            if not queue:
                del self.lanes[lane]
            if not room:
                break
        self.size -= n - room
        return popped

    def shed_lowest(self, below_lane: int, n: int) -> List[_Request]:
        """Evict up to ``n`` of the newest rows of the lowest lanes
        strictly below ``below_lane``, newest first; empty when nothing
        cheaper is queued."""
        victims: List[_Request] = []
        for lane in sorted(self.lanes):
            if lane >= below_lane or not n:
                break
            queue = self.lanes[lane]
            while queue and n:
                entry = queue[-1]
                if len(entry) > n:
                    victims.append(entry.split(len(entry) - n))
                    self.size -= n
                    n = 0
                else:
                    victims.append(queue.pop())
                    self.size -= len(entry)
                    n -= len(entry)
            if not queue:
                del self.lanes[lane]
        return victims

    def drain_all(self) -> List[_Request]:
        """Remove and return everything (shutdown cancellation)."""
        drained = [r for q in self.lanes.values() for r in q]
        self.lanes.clear()
        self.size = 0
        return drained


class MicroBatchScheduler:
    """Coalesces queued rows into batched engine reads.

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
        Coalescing bound; defaults to ``BatchPolicy()``.
    telemetry:
        Shared counters; a private instance is created when omitted.
    max_queue_depth:
        Bound on the rows of the scheduler's one queue, shared by every
        key it is fed (``None`` = unbounded).  Rows that find it full
        displace the cheapest queued rows or are refused with
        :class:`Overloaded` — see the module docstring's
        admission-control contract.

    The scheduler owns one daemon worker thread.  Every row enters
    through :meth:`enqueue`, which never blocks on inference (unless the
    caller opts into backpressure with ``block=True``); :meth:`submit`
    and :meth:`submit_many` wrap it for clients that want results.
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
        slot = _FutureSlot()
        entry = _Request(
            levels, time.monotonic(), int(priority), self._direct, slot
        )
        self.telemetry.record_submitted()
        refusal = self.enqueue(key, [entry], block, timeout)
        if refusal is not None:
            raise refusal
        return slot.future

    def submit_many(
        self, key: Hashable, evidence_levels: np.ndarray, priority: int = 0
    ) -> List[RowHandle]:
        """Enqueue a stack of samples as one entry of independent rows.

        Returns one :class:`RowHandle` per row, over the entry's one
        completion slot; rows may land in different micro-batches.  On
        a bounded queue some may displace cheaper rows or be refused —
        a refused row's handle carries the :class:`Overloaded` instead
        of raising; after shutdown the call raises
        :class:`SchedulerClosed`.
        """
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 2:
            raise ValueError(
                f"submit_many takes (n, features) samples, got {levels.shape}"
            )
        if not len(levels):
            return []
        slot = _Slot(len(levels))
        entry = _Request(
            levels, time.monotonic(), int(priority), self._direct, slot
        )
        self.telemetry.record_submitted(len(levels))
        refusal = self.enqueue(key, [entry])
        if isinstance(refusal, SchedulerClosed):
            raise refusal
        return slot.handles()

    def enqueue(
        self,
        key: Hashable,
        requests: List[_Request],
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> Optional[BaseException]:
        """Queue entries of one owner and one lane for ``key``; the only
        way a row enters the queue.

        The entries are admitted under one lock acquisition (a blocked
        one releases the lock only while it waits): the lane gauge rises
        before any row is visible to the batch worker, which is woken
        only when the queue was empty (a busy worker finds the rows when
        its batch ends), so at most once per batch.  On
        a bounded queue the rows that find it full, in order, wait for
        space (with ``block``, up to ``timeout`` seconds; one
        ``backpressure_block`` event per call that waited), displace the
        newest rows of a lower lane (without ``block``), or are refused
        together with the rows after them (one ``shed`` event per
        refused segment); an entry is split wherever the room runs out.
        Nothing is raised: refused rows go back to their owner as failed
        (``ran=False``), displaced ones too, and the refusal —
        :class:`Overloaded`, or :class:`SchedulerClosed` after shutdown
        — is returned (``None`` when every row was queued).
        """
        if not requests:
            return None
        lane = requests[0].lane
        queue = self._queue
        bound = self.max_queue_depth
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = list(requests)
        victims: List[_Request] = []
        refusal: Optional[BaseException] = None
        blocked_at: Optional[float] = None
        with self._lock:
            while True:
                if self._closed:
                    refusal = SchedulerClosed("scheduler is shut down")
                    break
                if bound is None:
                    admit, pending = pending, []
                else:
                    room = bound - queue.size
                    want = sum(map(len, pending))
                    if room < want and not block:
                        victims += queue.shed_lowest(lane, want - room)
                        room = bound - queue.size
                    admit = []
                    while pending and room > 0:
                        entry = pending[0]
                        if len(entry) > room:
                            pending[0] = entry.split(room)
                        else:
                            pending.pop(0)
                        admit.append(entry)
                        room -= len(entry)
                if admit:
                    rows = sum(map(len, admit))
                    # The lane gauge rises before the rows are visible
                    # to the worker: a drain recorded first would clamp
                    # at zero and leave this rise behind as a phantom
                    # queued row.  The telemetry lock is a leaf, so
                    # nesting it here is safe.
                    self.telemetry.record_lane_queued(lane, rows)
                    for entry in admit:
                        entry.key = key
                        if entry.traces:
                            self._trace_admitted(key, entry)
                    # Only an idle worker sleeps on an empty queue: a
                    # busy one pops these rows when its batch ends, so
                    # waking it for every entry would be a
                    # context-switch storm under load.
                    if not queue.size:
                        self._wake.notify()
                    queue.extend(lane, admit, rows)
                if not pending:
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
        if isinstance(refusal, Overloaded):
            now = time.monotonic()
            reason = "backpressure_timeout" if block else "door"
            for entry in pending:
                for _, trace, _ in entry.traces or ():
                    trace.add_span(
                        "admit", max(entry.enqueued_at, trace.created_s),
                        now, key=str(key), lane=lane, outcome="shed",
                        depth=refusal.depth,
                    )
                self.telemetry.emit(
                    "shed", key=str(key), lane=lane, depth=refusal.depth,
                    reason=reason, rows=len(entry),
                )
        if pending:
            pending[0].owner.failed(pending, refusal, ran=False)
        if blocked_at is not None:
            self.telemetry.emit(
                "backpressure_block", key=str(key), lane=lane,
                waited_ms=(time.monotonic() - blocked_at) * 1e3,
            )
        return refusal

    def _displace(self, victim: _Request, lane: int) -> None:
        """Hand queued rows shed to admit a priority-``lane`` arrival
        back to their owner as failed with :class:`Overloaded` (a routed
        victim is busy, not broken: it spills to a sibling)."""
        for _, _, queue_span in victim.traces or ():
            if queue_span is not None:
                queue_span.end(outcome="shed")
        self.telemetry.emit(
            "displacement", key=str(victim.key), lane=lane,
            victim_lane=victim.lane, depth=self.max_queue_depth,
            rows=len(victim),
        )
        self.telemetry.record_lane_drained(victim.lane, len(victim))
        victim.owner.failed([victim], Overloaded(
            f"shed from the queue for {victim.key!r} by a priority-{lane} "
            f"arrival",
            key=victim.key, depth=self.max_queue_depth, lane=victim.lane,
        ), ran=False)

    @staticmethod
    def _trace_admitted(key: Hashable, entry: _Request) -> None:
        """Close the sampled rows' admit spans and open their lane-wait
        spans.

        Runs under the lock, before the entry becomes visible to the
        worker — it may pop (and must close) the queue spans the
        instant the lock drops.  An admit span starts when its trace
        did, or at the failover that re-queued the row.
        """
        t_admitted = time.monotonic()
        for traced in entry.traces:
            trace = traced[1]
            trace.add_span(
                "admit", max(entry.enqueued_at, trace.created_s), t_admitted,
                key=str(key), lane=entry.lane,
            )
            traced[2] = trace.span("queue", start_s=t_admitted, lane=entry.lane)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued row has been read and settled.

        Returns ``True`` when the scheduler went idle within
        ``timeout`` seconds (``None`` = wait forever).
        """
        with self._lock:
            return self._progress.wait_for(
                lambda: not self._queue.size and not self._inflight, timeout
            )

    def pause(self, timeout: Optional[float] = None) -> bool:
        """Stop launching batches and wait out the in-flight one.

        The quiesce primitive for engine maintenance (reprogramming a
        live array, swapping in a new one): after ``pause`` returns
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
        first — the graceful path.  With ``drain=False`` queued rows go
        back to their owners as cancelled (a client's row reports
        cancellation; a routed row queued here by a failover is already
        running, so it raises
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
        for entry in cancelled:
            for _, _, queue_span in entry.traces or ():
                if queue_span is not None:
                    queue_span.end(outcome="cancelled")
        for owner, run in itertools.groupby(cancelled, _owner):
            owner.cancel(list(run))
        self._worker.join()

    @property
    def pending(self) -> int:
        """Rows queued but not yet launched in a batch.

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
        while True:
            with self._lock:
                # Work-conserving: an idle worker pops whatever is
                # queued, up to a full batch; it sleeps only on an empty
                # queue or a pause.
                while True:
                    if self._closed:
                        return
                    if queue.size and not self._paused:
                        break
                    self._wake.wait()
                popped = queue.pop_batch(max_batch)
                self._inflight += len(popped)
                if self.max_queue_depth is not None:
                    # Room just opened up for backpressured enqueues.
                    self._progress.notify_all()
            self._drained(popped)
            # Each owner claims its entries before the read: rows their
            # client already cancelled drop out here, unread.
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
        # happened to share the batch.
        groups: Dict[tuple, List[_Request]] = {}
        for entry in batch:
            groups.setdefault(
                (entry.key, entry.levels.shape[1:]), []
            ).append(entry)
        for (key, _), group in groups.items():
            try:
                engine = self.resolve_engine(key)
            except BaseException as exc:  # noqa: BLE001 — failures go to owners
                self._fail(group, started, exc)
                continue
            self._execute_group(key, engine, group, started)

    def _drained(self, entries: List[_Request]) -> None:
        """Lower the lane gauge for rows that left the queue."""
        by_lane: Dict[int, int] = {}
        for entry in entries:
            by_lane[entry.lane] = by_lane.get(entry.lane, 0) + len(entry)
        for lane, count in by_lane.items():
            self.telemetry.record_lane_drained(lane, count)

    @staticmethod
    def _fail(
        entries: List[_Request], started: float, exc: BaseException
    ) -> None:
        """Hand the entries of a batch whose engine resolve/read failed
        back to their owners, one call per owner run.

        Spans close first: a routed row's failover appends new spans to
        the same trace, and those must come after these.
        """
        now = time.monotonic()
        for entry in entries:
            for _, trace, queue_span in entry.traces or ():
                if queue_span is not None:
                    queue_span.end(started)
                trace.add_span(
                    "execute", started, now, error=type(exc).__name__
                )
        for owner, run in itertools.groupby(entries, _owner):
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
        # An entry that fills the batch is read as it is.  Several are
        # concatenated into a pooled buffer: the steady state re-serves
        # the same few micro-batch shapes, and the engine only derives
        # activation masks from the levels (it retains no reference).
        pooled = None
        if len(group) == 1:
            levels = group[0].levels
        else:
            pooled = levels = self._scratch.take(
                (sum(map(len, group)), group[0].levels.shape[1]), dtype=int
            )
            np.concatenate([entry.levels for entry in group], out=levels)
        try:
            report = engine.infer_batch(levels)
        except BaseException as exc:  # noqa: BLE001 — failures go to owners
            self._fail(group, started, exc)
            return
        finally:
            if pooled is not None:
                self._scratch.give(pooled)
        size = len(levels)
        model = str(key)
        results = []
        traced = []
        first = 0
        for entry in group:
            shift = first - entry.lo
            results.append(ServedRows(
                model, size, started - entry.enqueued_at, report, shift
            ))
            for row in entry.traces or ():
                traced.append((row[0] + shift, row))
            first += len(entry)
        # The traced rows' span attributes are computed first, inside
        # ``execute``; then one clock read ends each traced row's span,
        # and its owner finishes the trace at that same reading, so no
        # per-row work (and no thread switch during it) opens a hole
        # between the two.
        attrs = (
            self._trace_attrs(report, [i for i, _ in traced], size)
            if traced else ()
        )
        finished = time.monotonic()
        for (_, (_, trace, queue_span)), row_attrs in zip(traced, attrs):
            if queue_span is not None:
                queue_span.end(started)
            trace.add_span("execute", started, finished, **row_attrs)
        self.telemetry.record_executed(size, max_batch=self.policy.max_batch)
        # A chunk's entries sit together in the queue, so a batch usually
        # settles in one or two owner calls.
        lo = 0
        for owner, run in itertools.groupby(group, _owner):
            run = list(run)
            owner.served(run, results[lo:lo + len(run)], finished)
            lo += len(run)
