"""The request plane: a routed request's path, written once for both placements.

:class:`RequestPlane`, held by the :class:`~repro.serving.router.Router`
that owns every replica, owns shape checks and ``max_batch`` chunking,
the policy pick (:mod:`repro.serving.policy`), the immutable
:class:`_Attempt` record, failover against the *live* deployment,
rejection counted once per client request, stale-guarded mark-down,
and mirror fan-out with one vote resolution.

Only where each replica's engine and queue live depends on its
placement: the plane calls one method of a replica's *host*,
``enqueue(requests, block) -> (refused, refusal)``, taking the
:class:`~repro.serving.scheduler._Request` rows of one attempt and
reporting back through their attempt record — ``served(n)`` before any
of their futures resolves (returning how many of the ``n`` rows are
client requests), ``failed(rows, exc, ran)`` for rows a batch failed or
the queue lost (``ran``: their futures were already set running).  A
local replica's host queues them on its micro-batch scheduler
(:class:`~repro.serving.host.ReplicaHost`); a worker-hosted one ships
them to its worker as one ``request`` frame.  A replica gets a fresh
host each time it is placed, and that object is the stale-evidence
token: a failure seen through a host the replica no longer uses says
nothing about its new home.

Mirror participants ride the same queues as one-row attempts whose
future is a vote slot (:class:`_Seat`), so no queue counts a
participant as a client request: the mirrored request completes, once,
when its vote resolves.
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
from repro.serving.scheduler import Overloaded, _Request


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


class _Attempt:
    """One routing hop, shared by every row of a routed chunk.

    Where the rows were sent (``replica`` and the ``host`` it had then),
    every replica they have tried (``attempted``) and the earlier hops
    that failed them (``failed_chain``, marked down once another replica
    serves the rows).  Never mutated: a failover hands the failed rows
    a new record one hop further on.
    """

    __slots__ = (
        "plane", "dep", "replica", "host", "attempted", "failed_chain",
        "claimed",
    )

    def __init__(self, plane, dep, replica, attempted: set,
                 failed_chain: tuple = (), claimed: bool = False):
        self.plane = plane
        self.dep = dep
        self.replica = replica
        self.host = replica.host
        self.attempted = attempted
        self.failed_chain = failed_chain
        # Whether the rows' futures are already running: set once a
        # batch has executed (and failed) them, after which no client
        # can cancel them and no scheduler may claim them again.
        self.claimed = claimed

    def served(self, n: int) -> int:
        telemetry = self.plane.telemetry
        telemetry.record_replica_served(self.replica.label, n)
        # One failover per earlier attempt of each row: a request that
        # fails on *every* replica is an error, not N-1 rescues.
        telemetry.record_failover((len(self.attempted) - 1) * n)
        # A replica that failed rows this one then served is confirmed
        # bad (the rows were fine).
        for bad in self.failed_chain:
            self.plane._mark_down(bad)
        return n

    def failed(self, requests: List[_Request], exc: BaseException,
               ran: bool) -> None:
        self.plane._failover(self, requests, exc, ran)


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
    """One mirror participant: a one-row attempt on one replica, and the
    future-like vote slot of that row.

    As an attempt it never fails over (a failed participant abstains)
    and its row is no client request, so :meth:`served` reports none.
    As the row's future it casts whatever the queue resolves it with.
    """

    __slots__ = ("vote", "replica", "host", "outcome")

    claimed = False

    def __init__(self, vote: _Vote, replica):
        self.vote = vote
        self.replica = replica
        self.host = replica.host
        self.outcome = None

    def served(self, n: int) -> int:
        self.vote.plane.telemetry.record_replica_served(self.replica.label, n)
        return 0

    def failed(self, requests, exc: BaseException, ran: bool) -> None:
        self.vote.cast(self, exc)

    def set_running_or_notify_cancel(self) -> bool:
        return True  # only the client's own future can be cancelled

    def set_result(self, result) -> None:
        self.vote.cast(self, result)

    def set_exception(self, exc: BaseException) -> None:
        self.vote.cast(self, exc)

    def cancel(self) -> bool:
        # A queue shutting down abstains the participant.  False: no
        # client request was cancelled here — the vote accounts for it.
        self.vote.cast(self, CancelledError())
        return False


class RequestPlane:
    """Pick, attempt, failover, reject, mark-down and mirror vote.

    ``telemetry`` is the owner's counters and event bus, ``max_batch``
    the rows per ``submit_many`` chunk, ``lock`` the owner's
    replica-state lock, ``live(dep)`` the owner's deployment now serving
    in ``dep``'s place, or ``None`` (so rows routed under a deployment
    replaced mid-flight fail over onto the replacement's replicas);
    :attr:`future` is the class client futures are built from.  Deployments
    expose ``name`` / ``version`` / ``route`` / ``spec`` / ``replicas``
    / ``rr_counter``;
    replicas the policy core's candidate surface plus ``label`` and
    ``host``.  :attr:`tracer` (``None`` = off) samples traces that
    follow a routed row across every failover hop; mirror fan-out is not
    traced (parallel reads would break the span-sum invariant).
    """

    def __init__(self, telemetry, max_batch: int, lock,
                 live: Callable[[object], object]):
        self.telemetry = telemetry
        self.max_batch = max_batch
        self._lock = lock
        self._live = live
        self.future = Future
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
        return self._route(dep, (levels,), client)[0]

    def submit_many(self, dep, evidence_levels,
                    client: Optional[object] = None) -> List[Future]:
        """Route a stack of samples; one future per row.

        The rows go in ``max_batch`` chunks, each with one policy pick
        and queued as one attempt (``cost`` re-scores every chunk
        against the queue depth the chunks before it left, and
        ``round_robin`` alternates per chunk).  Mirror fan-out is per
        row.
        """
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 2:
            raise ValueError(
                f"submit_many takes (n, features) samples, got {levels.shape}"
            )
        if dep.spec.policy.kind == "mirror":
            return [self._mirror(dep, row) for row in levels]
        step = self.max_batch
        futures: List[Future] = []
        for lo in range(0, len(levels), step):
            futures += self._route(dep, levels[lo:lo + step], client)
        return futures

    def _route(self, dep, rows, client: Optional[object]) -> List[Future]:
        """Queue ``rows`` on one picked replica as one attempt."""
        label = None if client is None else str(client)
        slo = dep.spec.slo
        priority = 0 if slo is None else slo.priority_for(label)
        replica = self.pick(dep, client)
        attempt = _Attempt(self, dep, replica, {replica})
        now = time.monotonic()
        new = self.future
        requests = [_Request(row, now, priority, attempt, new()) for row in rows]
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # The admit span starts when the trace does.
            for request in requests:
                request.trace = tracer.sample(dep.route, client=label)
                if request.trace is not None:
                    request.enqueued_at = request.trace.created_s
        # Counted once here: a failover hop never counts a row again.
        self.telemetry.record_submitted(len(requests))
        # Backpressure may only block the *first* attempt, which runs on
        # the client's own thread.  Failover attempts run on queue
        # worker threads — two workers blocking into each other's full
        # queues would deadlock the data plane.
        self._enqueue(
            attempt, requests, block=slo is not None and bool(slo.backpressure)
        )
        return [request.future for request in requests]

    def _enqueue(self, attempt: _Attempt, requests: List[_Request],
                 block: bool = False) -> None:
        refused, refusal = attempt.host.enqueue(requests, block)
        if refused:
            # A full or closed queue, or a lost worker: spill onward.
            self._failover(attempt, refused, refusal, ran=False)

    # ---------------------------------------------------------------- failover
    def _failover(self, attempt: _Attempt, requests: List[_Request],
                  exc: BaseException, ran: bool) -> None:
        """Re-enqueue rows that failed ``attempt`` on the next untried
        replica of the live deployment, or reject them.

        When no untried replica is left the rows failed everywhere — a
        request problem (or, for :class:`Overloaded`, a saturated
        deployment), not a replica problem, so nobody is marked down
        and the last error reaches the clients.
        """
        claimed = attempt.claimed or ran
        dep = self._live(attempt.dep) or attempt.dep
        fallback = next(
            (r for r in routing_policy.serviceable(dep.replicas)
             if r not in attempt.attempted),
            None,
        )
        if fallback is None:
            self._reject(requests, exc, claimed)
            return
        # Overloaded means *busy*, not broken: the rows were shed
        # unattempted, so they spill without putting this replica on
        # the mark-down chain.
        chain = attempt.failed_chain
        if not isinstance(exc, Overloaded):
            chain = chain + (attempt,)
        hop = _Attempt(
            self, dep, fallback, attempt.attempted | {fallback}, chain, claimed
        )
        now = time.monotonic()
        reason = type(exc).__name__
        for request in requests:
            request.attempt = hop
            request.enqueued_at = now
            if request.trace is not None:
                # Zero-width marker: the hop takes no request time, but
                # the trace shows where routing bounced and why.
                request.trace.add_span(
                    "failover", now, now,
                    to_replica=fallback.label, reason=reason,
                )
        self.telemetry.emit(
            "failover",
            model=dep.name,
            to_replica=fallback.label,
            reason=reason,
            attempts=len(hop.attempted),
            rows=len(requests),
        )
        try:
            self._enqueue(hop, requests)
        except Exception as resubmit_exc:  # noqa: BLE001
            # The client futures must always resolve, never hang.
            self._reject(requests, resubmit_exc, claimed)

    def _reject(self, requests: List[_Request], exc: BaseException,
                claimed: bool) -> None:
        """Resolve rows no replica could serve with ``exc``, counted once
        per client request before any future resolves: shed when every
        replica was full, failed otherwise, cancelled when the client
        cancelled the row before anything claimed it."""
        outcome = "shed" if isinstance(exc, Overloaded) else "failed"
        doomed = []
        for request in requests:
            if claimed or request.future.set_running_or_notify_cancel():
                doomed.append(request)
            elif request.trace is not None:
                request.trace.finish("cancelled")
        telemetry = self.telemetry
        if doomed and outcome == "shed":
            telemetry.record_shed(len(doomed))
        elif doomed:
            telemetry.record_failed(len(doomed))
        if len(doomed) < len(requests):
            telemetry.record_cancelled(len(requests) - len(doomed))
        for request in doomed:
            if request.trace is not None:
                request.trace.finish(outcome)
            request.future.set_exception(exc)

    def _mark_down(self, hop) -> None:
        """Mark the replica of ``hop`` (an attempt or a mirror seat) down
        — unless the evidence is stale (the replica has been placed
        again, on a new host)."""
        replica = hop.replica
        with self._lock:
            flipped = replica.host is hop.host and replica.state == HEALTHY
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
            self.future(),
        )
        self.telemetry.record_submitted()
        now = time.monotonic()
        for seat in vote.seats:
            refused, refusal = seat.host.enqueue(
                [_Request(levels, now, 0, seat, seat)], False
            )
            if refused:
                seat.failed(refused, refusal, ran=False)
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
            vote.dep.name, latencies_s=[time.monotonic() - vote.t0]
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
