"""Serving telemetry: counters, batch occupancy and latency percentiles.

The online layer (:mod:`repro.serving.scheduler` /
:mod:`repro.serving.server`) records every request and every executed
micro-batch here.  Counters are plain integers behind one lock —
recording must stay cheap because it sits on the per-request hot path —
and latency percentiles come from a bounded ring buffer of recent
end-to-end latencies (a full history would grow without bound under the
sustained traffic the server is built for).

Two accounting subtleties worth naming:

* **Occupancy is aggregated per batch, not globally.**  Each replica
  runs its own scheduler, and deployments may mix ``max_batch`` values;
  dividing a global average fill by one global ``max_batch`` would
  report >100% or diluted occupancy.  ``record_batch`` therefore folds
  each batch's *own* ``size / max_batch`` into a running sum, and the
  snapshot reports the mean of those per-batch fractions.
* **Shed requests balance the in-flight ledger.**  An admission-control
  shed (:class:`~repro.serving.scheduler.Overloaded`) counts as
  ``shed`` — neither completed nor failed — and ``in_flight`` subtracts
  it, so a load-shedding server still reports zero in-flight once
  drained.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.utils.validation import check_positive_int

#: Default number of recent latency samples kept for percentile queries.
LATENCY_WINDOW = 8192


@dataclass(frozen=True)
class TelemetrySnapshot:
    """A consistent point-in-time view of the serving counters.

    Attributes
    ----------
    submitted:
        Client requests accepted: one per direct scheduler submit (a
        refused one too, then counted shed or failed), one per routed
        row however many replicas it visits.
    completed:
        Requests whose future resolved with a result.
    failed:
        Requests whose future resolved with an exception (a routed row
        only when its error reached the client, never a failed-over
        attempt).
    cancelled:
        Requests cancelled by a non-draining shutdown.
    batches:
        Micro-batches executed.
    avg_batch:
        Mean samples per executed batch (0.0 before the first batch).
    occupancy:
        ``avg_batch / max_batch`` — how full the coalescing window ran.
    p50_latency_s / p95_latency_s:
        Median / tail end-to-end latency (submit -> result) over the
        recent window, in seconds (``nan`` before the first completion).
    per_model:
        Completed-request count per routing key.
    health_checks / canary_failures:
        Heal-ladder passes, one per replica per
        :meth:`~repro.serving.router.Router.check_replica` (however
        many rungs it climbs), and the canary predictions each pass
        *found* disagreeing with the replica's baseline (all of them
        when the replica could not be read).
    refreshes / replacements:
        Automatic repairs the heal ladder triggered: in-place
        reprograms and full engine re-materialisations.
    maintenance_sweeps:
        Background sweeps completed by the server's maintenance
        thread (each sweep runs the heal ladder over every replica).
    per_replica:
        Completed-request count per deployment replica (keys like
        ``"iris@v1#r0[ideal]"``; an undeployed model's implicit replica
        reads ``"iris@v1[fefet]"``) — the counter the routing-policy
        acceptance gates assert against.
    failovers:
        Requests transparently resubmitted to another replica after
        their first replica failed (the client saw no error).
    replica_evictions:
        Replicas the router's heal ladder gave up on and removed from
        the routing set (refresh and replace both failed).
    mirror_votes / mirror_disagreements:
        Mirrored requests resolved by majority vote, and how many of
        those had at least one replica disagreeing with the majority.
    shed_requests:
        Requests rejected or evicted by admission control (typed
        :class:`~repro.serving.scheduler.Overloaded`) — deliberate
        load-shed, not failures.  A routed row counts only when every
        replica refused it; a shed that spilled to a sibling does not.
    scale_ups / scale_downs:
        Replicas added / retired by the autoscale controller.
    lane_depth:
        Currently queued requests per priority lane, across schedulers
        (lanes that drained back to zero are pruned).
    workers_started / workers_lost / worker_respawns:
        Cluster-plane supervision counters (process placement only):
        worker processes that came up, were declared dead, and were
        respawned by the :class:`~repro.serving.cluster.ClusterServer`.
    """

    submitted: int
    completed: int
    failed: int
    cancelled: int
    batches: int
    max_batch: int
    avg_batch: float
    occupancy: float
    p50_latency_s: float
    p95_latency_s: float
    per_model: Dict[str, int] = field(default_factory=dict)
    health_checks: int = 0
    canary_failures: int = 0
    refreshes: int = 0
    replacements: int = 0
    maintenance_sweeps: int = 0
    per_replica: Dict[str, int] = field(default_factory=dict)
    failovers: int = 0
    replica_evictions: int = 0
    mirror_votes: int = 0
    mirror_disagreements: int = 0
    shed_requests: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    lane_depth: Dict[int, int] = field(default_factory=dict)
    workers_started: int = 0
    workers_lost: int = 0
    worker_respawns: int = 0

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet resolved either way."""
        return (
            self.submitted
            - self.completed
            - self.failed
            - self.cancelled
            - self.shed_requests
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (for ``febim serve --json``).

        Latency percentiles are NaN before the first completion;
        ``json.dumps`` would happily emit the non-standard ``NaN``
        token, which strict parsers reject — serialise as ``null``.
        """

        def _ms(seconds: float) -> Optional[float]:
            return None if seconds != seconds else seconds * 1e3

        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "avg_batch": self.avg_batch,
            "occupancy": self.occupancy,
            "p50_latency_ms": _ms(self.p50_latency_s),
            "p95_latency_ms": _ms(self.p95_latency_s),
            "per_model": dict(self.per_model),
            "health_checks": self.health_checks,
            "canary_failures": self.canary_failures,
            "refreshes": self.refreshes,
            "replacements": self.replacements,
            "maintenance_sweeps": self.maintenance_sweeps,
            "per_replica": dict(self.per_replica),
            "failovers": self.failovers,
            "replica_evictions": self.replica_evictions,
            "mirror_votes": self.mirror_votes,
            "mirror_disagreements": self.mirror_disagreements,
            "shed_requests": self.shed_requests,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "lane_depth": {str(k): v for k, v in sorted(self.lane_depth.items())},
            "workers_started": self.workers_started,
            "workers_lost": self.workers_lost,
            "worker_respawns": self.worker_respawns,
        }

    def format_lines(self) -> str:
        """Human-readable report block (for ``febim serve --report``)."""
        lines = [
            f"requests   submitted {self.submitted}  completed {self.completed}"
            f"  failed {self.failed}  cancelled {self.cancelled}",
            f"batches    {self.batches}  avg fill {self.avg_batch:.1f}/"
            f"{self.max_batch} ({self.occupancy * 100:.0f}% occupancy)",
            f"latency    p50 {self.p50_latency_s * 1e3:.2f} ms   "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms",
        ]
        if self.health_checks:
            lines.append(
                f"health     {self.health_checks} checks  "
                f"{self.canary_failures} canary failures  "
                f"{self.refreshes} refreshes  "
                f"{self.replacements} replacements  "
                f"{self.maintenance_sweeps} sweeps"
            )
        if self.failovers or self.replica_evictions or self.mirror_votes:
            lines.append(
                f"routing    {self.failovers} failovers  "
                f"{self.replica_evictions} evictions  "
                f"{self.mirror_votes} mirror votes "
                f"({self.mirror_disagreements} split)"
            )
        if self.shed_requests or self.scale_ups or self.scale_downs:
            lines.append(
                f"slo        {self.shed_requests} shed  "
                f"{self.scale_ups} scale-ups  "
                f"{self.scale_downs} scale-downs"
            )
        if self.workers_started or self.workers_lost or self.worker_respawns:
            lines.append(
                f"cluster    {self.workers_started} workers started  "
                f"{self.workers_lost} lost  "
                f"{self.worker_respawns} respawned"
            )
        for lane in sorted(self.lane_depth):
            lines.append(
                f"  lane {lane:2d} depth {self.lane_depth[lane]}"
            )
        for name in sorted(self.per_model):
            lines.append(f"  model {name:20s} {self.per_model[name]} served")
        for replica in sorted(self.per_replica):
            lines.append(
                f"  replica {replica:20s} {self.per_replica[replica]} served"
            )
        return "\n".join(lines)


class Telemetry:
    """Thread-safe serving counters shared by scheduler and server.

    Parameters
    ----------
    max_batch:
        The scheduler's coalescing limit, used for occupancy.

    Latency percentiles read the last :data:`LATENCY_WINDOW` completions.
    """

    def __init__(self, max_batch: int):
        self.max_batch = check_positive_int(max_batch, "max_batch")
        #: Optional :class:`~repro.serving.observability.FlightRecorder`.
        #: Left ``None`` until observability is armed, so :meth:`emit`
        #: is a single attribute check on the hot path.
        self.recorder = None
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._batches = 0
        self._batched_samples = 0
        self._occupancy_sum = 0.0
        self._per_model: Dict[str, int] = {}
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._health_checks = 0
        self._canary_failures = 0
        self._refreshes = 0
        self._replacements = 0
        self._maintenance_sweeps = 0
        self._per_replica: Dict[str, int] = {}
        self._failovers = 0
        self._replica_evictions = 0
        self._mirror_votes = 0
        self._mirror_disagreements = 0
        self._shed = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._lane_depth: Dict[int, int] = {}
        self._workers_started = 0
        self._workers_lost = 0
        self._worker_respawns = 0

    # ------------------------------------------------------------- recording
    def emit(self, kind: str, **detail) -> None:
        """Forward one typed event to the attached flight recorder.

        Telemetry is the object every layer (scheduler, router and its
        heal ladder, autoscale controller) already holds, so it doubles as
        the event bus: call sites ``emit`` next to their ``record_*``
        call and pass the detail only they know (victim lane, replica
        label, triggering snapshot).  With no recorder attached this is
        one ``None`` check — the disabled path stays allocation-free.
        """
        recorder = self.recorder
        if recorder is not None:
            recorder.record(kind, **detail)

    def record_submitted(self, n: int = 1) -> None:
        """``n`` client requests accepted."""
        with self._lock:
            self._submitted += n

    def record_shed(self, n: int = 1) -> None:
        """``n`` client requests rejected by admission control."""
        with self._lock:
            self._shed += n

    def record_lane_queued(self, lane: int, n: int = 1) -> None:
        """``n`` rows entered a scheduler's ``lane``: the per-lane depth
        gauge rises until :meth:`record_lane_drained` takes them back
        out.  A failover re-enqueue raises it again, never ``submitted``."""
        with self._lock:
            self._lane_depth[lane] = self._lane_depth.get(lane, 0) + n

    def record_lane_drained(self, lane: int, n: int = 1) -> None:
        """``n`` queued rows left ``lane`` (batched, shed or cancelled)."""
        with self._lock:
            depth = self._lane_depth.get(lane, 0) - n
            if depth > 0:
                self._lane_depth[lane] = depth
            else:
                self._lane_depth.pop(lane, None)

    def record_scale_up(self) -> None:
        """One replica added by the autoscale controller."""
        with self._lock:
            self._scale_ups += 1

    def record_scale_down(self) -> None:
        """One replica retired by the autoscale controller."""
        with self._lock:
            self._scale_downs += 1

    def record_batch(
        self,
        model: str,
        size: int,
        latencies_s: Optional[np.ndarray] = None,
        max_batch: Optional[int] = None,
    ) -> None:
        """One executed micro-batch of ``size`` completed requests:
        :meth:`record_executed` plus :meth:`record_completed`."""
        self.record_executed(size, max_batch)
        self.record_completed(model, size, latencies_s)

    def record_executed(self, size: int, max_batch: Optional[int] = None) -> None:
        """One executed micro-batch of ``size`` rows, for the batch and
        occupancy counters only.

        ``max_batch`` is the *executing scheduler's* coalescing limit;
        occupancy is accumulated against it (falling back to this
        telemetry's own ``max_batch``) so mixed-``max_batch``
        deployments aggregate correctly.
        """
        with self._lock:
            self._batches += 1
            self._batched_samples += size
            self._occupancy_sum += size / (max_batch or self.max_batch)

    def record_completed(
        self,
        model: str,
        n: int = 1,
        latencies_s: Optional[np.ndarray] = None,
    ) -> None:
        """``n`` client requests completed, with their end-to-end
        latencies.

        Separate from :meth:`record_executed` because the two need not
        match: a mirror participant's row runs in a batch but its
        client request completes when the vote resolves, and a cluster
        front end completes rows whose batch ran in a worker process
        (counted in the worker's own telemetry).
        """
        with self._lock:
            self._completed += n
            self._per_model[model] = self._per_model.get(model, 0) + n
            if latencies_s is not None:
                self._latencies.extend(latencies_s)

    def record_failed(self, n: int) -> None:
        with self._lock:
            self._failed += n

    def record_cancelled(self, n: int) -> None:
        with self._lock:
            self._cancelled += n

    def record_health_check(self, failed_canaries: int = 0) -> None:
        """One heal-ladder pass that found ``failed_canaries`` baseline
        mismatches."""
        with self._lock:
            self._health_checks += 1
            self._canary_failures += failed_canaries

    def record_refresh(self) -> None:
        """One automatic in-place reprogram triggered by the heal ladder."""
        with self._lock:
            self._refreshes += 1

    def record_replacement(self) -> None:
        """One automatic engine re-materialisation (fresh hardware)."""
        with self._lock:
            self._replacements += 1

    def record_maintenance_sweep(self) -> None:
        """One completed background maintenance sweep."""
        with self._lock:
            self._maintenance_sweeps += 1

    def record_replica_served(self, replica: str, n: int = 1) -> None:
        """``n`` requests answered by deployment replica ``replica``."""
        with self._lock:
            self._per_replica[replica] = self._per_replica.get(replica, 0) + n

    def record_failover(self, n: int = 1) -> None:
        """``n`` replica attempts whose transparent resubmission served
        the client (requests that failed everywhere are errors, not
        failovers)."""
        if n <= 0:
            return
        with self._lock:
            self._failovers += n

    def record_replica_eviction(self) -> None:
        """One replica removed from routing by the heal ladder."""
        with self._lock:
            self._replica_evictions += 1

    def record_mirror_vote(self, unanimous: bool) -> None:
        """One mirrored request resolved by majority vote."""
        with self._lock:
            self._mirror_votes += 1
            if not unanimous:
                self._mirror_disagreements += 1

    def record_worker_started(self) -> None:
        """One cluster worker process connected and said hello."""
        with self._lock:
            self._workers_started += 1

    def record_worker_lost(self) -> None:
        """One cluster worker declared dead by the supervisor."""
        with self._lock:
            self._workers_lost += 1

    def record_worker_respawn(self) -> None:
        """One lost worker's replacement process came up."""
        with self._lock:
            self._worker_respawns += 1

    # --------------------------------------------------------------- reading
    def snapshot(self) -> TelemetrySnapshot:
        """Consistent snapshot of every counter."""
        with self._lock:
            avg = self._batched_samples / self._batches if self._batches else 0.0
            if self._latencies:
                lat = np.fromiter(self._latencies, dtype=float)
                p50, p95 = np.percentile(lat, [50.0, 95.0])
            else:
                p50 = p95 = float("nan")
            return TelemetrySnapshot(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                batches=self._batches,
                max_batch=self.max_batch,
                avg_batch=avg,
                occupancy=(
                    self._occupancy_sum / self._batches if self._batches else 0.0
                ),
                p50_latency_s=float(p50),
                p95_latency_s=float(p95),
                per_model=dict(self._per_model),
                health_checks=self._health_checks,
                canary_failures=self._canary_failures,
                refreshes=self._refreshes,
                replacements=self._replacements,
                maintenance_sweeps=self._maintenance_sweeps,
                per_replica=dict(self._per_replica),
                failovers=self._failovers,
                replica_evictions=self._replica_evictions,
                mirror_votes=self._mirror_votes,
                mirror_disagreements=self._mirror_disagreements,
                shed_requests=self._shed,
                scale_ups=self._scale_ups,
                scale_downs=self._scale_downs,
                lane_depth=dict(self._lane_depth),
                workers_started=self._workers_started,
                workers_lost=self._workers_lost,
                worker_respawns=self._worker_respawns,
            )
