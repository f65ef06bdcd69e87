"""The request plane: a routed request's path, written once for both placements.

:class:`RequestPlane`, held by the :class:`~repro.serving.router.Router`
that owns every replica, owns shape checks and ``max_batch`` chunking,
the policy pick (:mod:`repro.serving.policy`), the immutable
:class:`_Attempt` record, failover against the *live* deployment,
rejection counted once per client request, stale-guarded mark-down,
and mirror fan-out with one vote resolution.

A routed chunk is one queue entry
(:class:`~repro.serving.scheduler._Request`): its ``(n, cols)`` rows,
its lane, its hop and one completion slot, which the client's row
handles (``submit_many``) or one real future (``submit``) read.  Only
where each replica's engine and queue live depends on its placement:
the plane calls one method of a replica's *host*,
``enqueue(entries, block)``, with the entries of one hop, and each
entry's ``owner`` is that hop.  A local replica's host queues the entry
on its micro-batch scheduler (:class:`~repro.serving.host.ReplicaHost`);
a worker-hosted one ships it to its worker as one ``request`` frame.
Either way the rows come back through the scheduler's owner protocol,
once per entry segment — ``claim`` before the read (rows their clients
cancelled drop out), then ``served``, ``failed`` or ``cancel`` — made
by the local scheduler after each batch, or by the remote host when
the worker's reply or loss settles the frame.

An :class:`_Attempt` is a client owner
(:class:`~repro.serving.scheduler._ClientFutures`, which counts each
client request once, finishes its trace and completes its slot) that
also books the replica that served, marks down the replicas that failed
rows this one then served, and fails failed rows over.  A mirror
participant's row is owned by its :class:`_Seat`, whose settlement is
its vote, so no queue counts a participant as a client request: the
mirrored request completes, once, when its vote resolves.

Every ``place()`` of a replica's host starts a new placement — the
first one, the heal ladder's replace rung, a re-placement on another
worker — and each hop records the placement its replica was on
(``placed``).  A failure seen on an older placement says nothing about
the array now serving, so it never marks the replica down.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.serving import policy as routing_policy
from repro.serving.policy import DOWN, DRAINING, HEALTHY
from repro.serving.scheduler import (
    Overloaded,
    RowHandle,
    _ClientFutures,
    _FutureSlot,
    _Request,
    _Slot,
)


@dataclass(frozen=True)
class MirroredResult:
    """A mirrored request's majority vote across replicas.

    Quacks like :class:`~repro.serving.scheduler.ServedResult` where it
    matters (``prediction`` / ``delay`` / ``energy_total`` /
    ``queue_wait_s`` / ``batch_size``), with the vote detail on top:
    ``votes`` maps each participating replica label to its prediction
    (``None`` for a replica whose attempt failed — it abstains, is
    marked down, and counts *against* ``agreement``, which is the
    winner's share of all participants, not of the respondents).

    Delay is the slowest participant (mirrors run in parallel), energy
    the sum over participants — the price of the redundancy.
    """

    model: str
    prediction: int
    votes: Tuple[Tuple[str, Optional[int]], ...]
    agreement: float
    delay: float
    energy_total: float
    queue_wait_s: float
    batch_size: int

    @property
    def unanimous(self) -> bool:
        return self.agreement == 1.0


class _Attempt(_ClientFutures):
    """One routing hop of a routed chunk, and the owner its entry
    segments settle through.

    Where the rows were sent (``replica``, and the token ``placed`` of
    the placement it was on), every replica they have tried
    (``attempted``) and the earlier hops that failed them
    (``failed_chain``, marked down once another replica serves the
    rows).  Never mutated: a failover hands the failed rows a new record
    one hop further on.
    """

    __slots__ = ("plane", "dep", "replica", "placed", "attempted",
                 "failed_chain")

    def __init__(self, plane, dep, replica, attempted: set,
                 failed_chain: tuple = (), claimed: bool = False):
        super().__init__(plane.telemetry, claimed)
        self.plane = plane
        self.dep = dep
        self.replica = replica
        self.placed = replica.host.placed
        self.attempted = attempted
        self.failed_chain = failed_chain

    def served(self, entries: List[_Request], results: list,
               finished: float) -> None:
        n = sum(map(len, entries))
        telemetry = self.telemetry
        telemetry.record_replica_served(self.replica.label, n)
        # One failover per earlier attempt of each row: a request that
        # fails on *every* replica is an error, not N-1 rescues.
        telemetry.record_failover((len(self.attempted) - 1) * n)
        # A replica that failed rows this one then served is confirmed
        # bad (the rows were fine).
        for bad in self.failed_chain:
            self.plane._mark_down(bad)
        # Booked per deployment route (``name@vN``), as a mirror vote
        # is, not per replica: ``per_replica`` already counts those.
        super().served(entries, results, finished, self.dep.route)

    def failed(self, entries: List[_Request], exc: BaseException,
               ran: bool) -> None:
        """Re-enqueue entries that failed this hop on the next untried
        replica of the live deployment, or reject them.

        When no untried replica is left the rows failed everywhere — a
        request problem (or, for :class:`Overloaded`, a saturated
        deployment), not a replica problem, so nobody is marked down
        and the last error reaches the clients.
        """
        plane = self.plane
        dep = plane._live(self.dep) or self.dep
        fallback = next(
            (r for r in routing_policy.serviceable(dep.replicas)
             if r not in self.attempted),
            None,
        )
        if fallback is None:
            super().failed(entries, exc, ran)
            return
        # Overloaded means *busy*, not broken: the rows were shed
        # unattempted, so they spill without putting this replica on
        # the mark-down chain.
        chain = self.failed_chain
        if not isinstance(exc, Overloaded):
            chain = chain + (self,)
        hop = _Attempt(plane, dep, fallback, self.attempted | {fallback},
                       chain, self.claimed or ran)
        now = time.monotonic()
        reason = type(exc).__name__
        for entry in entries:
            entry.owner = hop
            entry.enqueued_at = now
            for _, trace, _ in entry.traces or ():
                # Zero-width marker: the hop takes no request time, but
                # the trace shows where routing bounced and why.
                trace.add_span(
                    "failover", now, now,
                    to_replica=fallback.label, reason=reason,
                )
        self.telemetry.emit(
            "failover",
            model=dep.name,
            to_replica=fallback.label,
            reason=reason,
            attempts=len(hop.attempted),
            rows=sum(map(len, entries)),
        )
        try:
            fallback.host.enqueue(entries)
        except Exception as resubmit_exc:  # noqa: BLE001
            # The client's rows must always complete, never hang.
            _ClientFutures.failed(hop, entries, resubmit_exc, ran)


class _Vote:
    """One mirrored client request: its future and one seat per
    participating replica."""

    __slots__ = ("plane", "dep", "future", "seats", "remaining", "lock", "t0")

    def __init__(self, plane, dep, replicas, future):
        self.plane = plane
        self.dep = dep
        self.future = future
        self.seats = [_Seat(self, replica) for replica in replicas]
        self.remaining = len(self.seats)
        self.lock = threading.Lock()
        self.t0 = time.monotonic()

    def cast(self, seat: "_Seat", outcome) -> None:
        """Record one seat's answer or abstention; the last resolves."""
        with self.lock:
            if seat.outcome is not None:
                return  # a seat votes once
            seat.outcome = outcome
            self.remaining -= 1
            if self.remaining:
                return
        self.plane._resolve_vote(self)


class _Seat:
    """One mirror participant: the owner of one row on one replica,
    whose settlement is its vote.

    It never fails over (a failed participant abstains), and its row is
    no client request, so it books only the replica's served row.
    """

    __slots__ = ("vote", "replica", "placed", "outcome")

    def __init__(self, vote: _Vote, replica):
        self.vote = vote
        self.replica = replica
        self.placed = replica.host.placed
        self.outcome = None

    def claim(self, entries: List[_Request]) -> List[_Request]:
        return entries  # only the client's own future can be cancelled

    def served(self, entries: List[_Request], results: list,
               finished: float) -> None:
        self.vote.plane.telemetry.record_replica_served(self.replica.label)
        self.vote.cast(self, results[0].at(entries[0].lo))

    def failed(self, entries: List[_Request], exc: BaseException,
               ran: bool) -> None:
        self.vote.cast(self, exc)

    def cancel(self, entries: List[_Request]) -> None:
        # A queue shutting down abstains the participant.
        self.vote.cast(self, CancelledError())


class RequestPlane:
    """Pick, attempt, mark-down and mirror vote (failover and rejection
    are the :class:`_Attempt`'s).

    ``telemetry`` is the owner's counters and event bus, ``max_batch``
    the rows per ``submit_many`` chunk, ``lock`` the owner's
    replica-state lock, ``live(dep)`` the owner's deployment now serving
    in ``dep``'s place, or ``None`` (so rows routed under a deployment
    replaced mid-flight fail over onto the replacement's replicas).
    Deployments expose ``name`` / ``version`` / ``route`` / ``spec`` /
    ``replicas`` / ``rr_counter``; replicas the policy core's candidate
    surface plus ``label`` and ``host``.  :attr:`tracer` (``None`` =
    off) samples traces that
    follow a routed row across every failover hop; mirror fan-out is not
    traced (parallel reads would break the span-sum invariant).
    """

    def __init__(self, telemetry, max_batch: int, lock,
                 live: Callable[[object], object]):
        self.telemetry = telemetry
        self.max_batch = max_batch
        self._lock = lock
        self._live = live
        self.tracer = None

    @staticmethod
    def _candidates(dep) -> list:
        candidates = routing_policy.serviceable(dep.replicas)
        if not candidates:
            raise RuntimeError(
                f"deployment {dep.name!r} v{dep.version} has no serviceable "
                f"replicas (all evicted)"
            )
        return candidates

    def pick(self, dep, client: Optional[object] = None):
        """The replica the deployment's policy routes ``client`` to."""
        kind = dep.spec.policy.kind
        return routing_policy.pick_replica(
            kind,
            self._candidates(dep),
            client,
            rr_tick=next(dep.rr_counter) if kind == "round_robin" else 0,
            draining=(
                [r for r in dep.replicas if r.state == DRAINING]
                if kind == "sticky" else ()
            ),
        )

    # ------------------------------------------------------------------ submit
    def submit(self, dep, evidence_levels, client: Optional[object] = None):
        """Route one sample; returns a future resolving to a
        :class:`~repro.serving.scheduler.ServedResult` (or a
        :class:`MirroredResult` under the mirror policy).  Replica
        failures fail over transparently; the future errors only when
        every serviceable replica failed the request."""
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 1:
            raise ValueError(
                f"submit takes one 1-D sample, got shape {levels.shape}"
            )
        if dep.spec.policy.kind == "mirror":
            return self._mirror(dep, levels)
        slot = _FutureSlot()
        self._route(dep, levels, client, slot)
        return slot.future

    def submit_many(self, dep, evidence_levels,
                    client: Optional[object] = None) -> List[RowHandle]:
        """Route a stack of samples; one row handle per row.

        The rows go in ``max_batch`` chunks, each with one policy pick
        and queued as one entry with one completion slot, which its
        rows' handles (:class:`~repro.serving.scheduler.RowHandle`) read
        (``cost`` re-scores every chunk against the queue depth the
        chunks before it left, and ``round_robin`` alternates per
        chunk).  Mirror fan-out is per row, one real future each.
        """
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 2:
            raise ValueError(
                f"submit_many takes (n, features) samples, got {levels.shape}"
            )
        if dep.spec.policy.kind == "mirror":
            return [self._mirror(dep, row) for row in levels]
        step = self.max_batch
        handles: List[RowHandle] = []
        for lo in range(0, len(levels), step):
            chunk = levels[lo:lo + step]
            slot = _Slot(len(chunk))
            self._route(dep, chunk, client, slot)
            handles += slot.handles()
        return handles

    def _route(self, dep, levels: np.ndarray, client: Optional[object],
               slot) -> None:
        """Queue ``levels`` on one picked replica as one entry, whose
        rows complete ``slot``."""
        label = None if client is None else str(client)
        slo = dep.spec.slo
        priority = 0 if slo is None else slo.priority_for(label)
        replica = self.pick(dep, client)
        entry = _Request(
            levels, time.monotonic(), priority,
            _Attempt(self, dep, replica, {replica}), slot,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            sampled = [tracer.sample(dep.route, client=label)
                       for _ in range(len(entry))]
            entry.traces = [
                [pos, trace, None] for pos, trace in enumerate(sampled)
                if trace is not None
            ] or None
        # Counted once here: a failover hop never counts a row again.
        self.telemetry.record_submitted(len(entry))
        # Backpressure may only block the *first* attempt, which runs on
        # the client's own thread.  Failover attempts run on queue
        # worker threads — two workers blocking into each other's full
        # queues would deadlock the data plane.
        replica.host.enqueue(
            [entry], block=slo is not None and bool(slo.backpressure)
        )

    def _mark_down(self, hop) -> None:
        """Mark the replica of ``hop`` (an attempt or a mirror seat) down
        — unless the evidence is stale (the replica has been placed
        again since the hop saw it)."""
        replica = hop.replica
        with self._lock:
            flipped = (
                replica.host.placed is hop.placed and replica.state == HEALTHY
            )
            if flipped:
                replica.state = DOWN
        if flipped:
            self.telemetry.emit("replica_down", replica=replica.label)

    # ------------------------------------------------------------------ mirror
    def _mirror(self, dep, levels: np.ndarray) -> Future:
        vote = _Vote(
            self, dep,
            routing_policy.mirror_candidates(
                self._candidates(dep), dep.spec.policy.mirror_fanout
            ),
            Future(),
        )
        self.telemetry.record_submitted()
        now = time.monotonic()
        for seat in vote.seats:
            seat.replica.host.enqueue([_Request(levels, now, 0, seat)])
        return vote.future

    def _resolve_vote(self, vote: _Vote) -> None:
        telemetry = self.telemetry
        future = vote.future
        if not future.set_running_or_notify_cancel():
            telemetry.record_cancelled(1)
            return
        seats = vote.seats
        results = [
            seat.outcome for seat in seats
            if not isinstance(seat.outcome, BaseException)
        ]
        if not results:
            if all(isinstance(seat.outcome, CancelledError) for seat in seats):
                # Every seat was cancelled (a non-draining close): so
                # is the request.
                telemetry.record_cancelled(1)
                future.set_exception(CancelledError())
                return
            telemetry.record_failed(1)
            future.set_exception(RuntimeError(
                f"mirror vote failed: no replica of {vote.dep.name!r} "
                f"answered"
            ))
            return
        # A participant that failed a request its peers served is
        # confirmed bad, exactly as on the failover path; an
        # *overloaded* abstention is busy, not broken.
        for seat in seats:
            if isinstance(seat.outcome, BaseException) and not isinstance(
                seat.outcome, Overloaded
            ):
                self._mark_down(seat)
        # Majority, optionally weighted by each answer's read margin;
        # deterministic tie-break on the lower class label either way.
        weighted = vote.dep.spec.policy.mirror_weighted
        winner, _ = routing_policy.resolve_votes(
            [(int(r.prediction), r.margin if weighted else 1.0)
             for r in results],
            weighted=weighted,
        )
        # Agreement is a head count over the *participants*, not the
        # respondents: a 2-way mirror with one corpse reads 0.5.
        agreement = sum(
            1 for r in results if int(r.prediction) == winner
        ) / len(seats)
        telemetry.record_mirror_vote(unanimous=agreement == 1.0)
        telemetry.record_completed(
            vote.dep.route, latencies_s=[time.monotonic() - vote.t0]
        )
        future.set_result(MirroredResult(
            model=vote.dep.route,
            prediction=winner,
            votes=tuple(
                (
                    seat.replica.label,
                    None if isinstance(seat.outcome, BaseException)
                    else int(seat.outcome.prediction),
                )
                for seat in seats
            ),
            agreement=agreement,
            delay=max(r.delay for r in results),
            energy_total=sum(r.energy_total for r in results),
            queue_wait_s=max(r.queue_wait_s for r in results),
            batch_size=max(r.batch_size for r in results),
        ))
