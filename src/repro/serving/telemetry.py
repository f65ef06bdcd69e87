"""Serving telemetry: counters, batch occupancy and latency percentiles.

The online layer (:mod:`repro.serving.scheduler` /
:mod:`repro.serving.server`) records every request and every executed
micro-batch here.  Counters are plain integers behind one lock —
recording must stay cheap because it sits on the per-request hot path —
and latency percentiles come from a bounded ring buffer of recent
end-to-end latencies (a full history would grow without bound under the
sustained traffic the server is built for).

Every scalar counter is declared once, in :data:`COUNTERS`: its
:class:`TelemetrySnapshot` attribute, its report group, its export
stem and, for an incident the flight recorder names, the event kind
that counts it.  :class:`Telemetry` keeps one count per entry, and the
snapshot, its ``to_dict`` and ``format_lines``, the metrics-ring deltas
and the Prometheus export all iterate the table, so a counter declared
there reaches every reader.  An incident is counted where it is
reported: :meth:`Telemetry.emit` of a counted kind (a heal-ladder
``refresh``, a ``scale_up``, a ``worker_lost``, ...) bumps its counter
whether or not a flight recorder is armed.

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
from itertools import groupby
from operator import attrgetter
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.utils.validation import check_positive_int

#: Default number of recent latency samples kept for percentile queries.
LATENCY_WINDOW = 8192


class CounterSpec(NamedTuple):
    """One scalar counter of :class:`TelemetrySnapshot`.

    ``name`` is the snapshot attribute and ``to_dict`` key; ``group``
    the :meth:`TelemetrySnapshot.format_lines` line that reports it;
    ``event`` the flight-event kind each :meth:`Telemetry.emit` of
    which counts one (``None``: a ``record_*`` call counts it);
    ``export`` the export stem, where it differs from ``name``.
    """

    name: str
    group: str
    event: Optional[str] = None
    export: Optional[str] = None

    @property
    def stem(self) -> str:
        """The Prometheus series ``febim_<stem>_total`` and the
        :class:`~repro.serving.observability.MetricsPoint` delta."""
        return self.export or self.name


#: Every scalar counter, declared once, in report order (the snapshot's
#: docstring is each one's help text).
COUNTERS = (
    CounterSpec("submitted", "requests"),
    CounterSpec("completed", "requests"),
    CounterSpec("failed", "requests"),
    CounterSpec("cancelled", "requests"),
    CounterSpec("batches", "requests"),
    CounterSpec("health_checks", "health"),
    CounterSpec("canary_failures", "health"),
    CounterSpec("refreshes", "health", event="refresh"),
    CounterSpec("replacements", "health", event="replace"),
    CounterSpec("maintenance_sweeps", "health"),
    CounterSpec("failovers", "routing"),
    CounterSpec("replica_evictions", "routing", event="evict"),
    CounterSpec("mirror_votes", "routing"),
    CounterSpec("mirror_disagreements", "routing"),
    CounterSpec("shed_requests", "slo", export="shed"),
    CounterSpec("scale_ups", "slo", event="scale_up"),
    CounterSpec("scale_downs", "slo", event="scale_down"),
    CounterSpec("workers_started", "cluster", event="worker_start"),
    CounterSpec("workers_lost", "cluster", event="worker_lost"),
    CounterSpec("worker_respawns", "cluster", event="worker_respawn"),
)

#: Event kind -> the counter each of its emits bumps.
_COUNTED_BY = {c.event: c.name for c in COUNTERS if c.event}


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
        Requests cancelled, by the client or by a non-draining shutdown.
    batches:
        Micro-batches executed.
    avg_batch:
        Mean samples per executed batch (0.0 before the first batch).
    occupancy:
        ``avg_batch / max_batch`` — how full the batches ran.
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
        reprograms and full engine re-materialisations (a worker
        pool's ``relocate`` of a lost worker's replica is neither).
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
            **{c.name: getattr(self, c.name) for c in COUNTERS},
            "max_batch": self.max_batch,
            "avg_batch": self.avg_batch,
            "occupancy": self.occupancy,
            "p50_latency_ms": _ms(self.p50_latency_s),
            "p95_latency_ms": _ms(self.p95_latency_s),
            "per_model": dict(self.per_model),
            "per_replica": dict(self.per_replica),
            "lane_depth": {str(k): v for k, v in sorted(self.lane_depth.items())},
        }

    def format_lines(self) -> str:
        """Human-readable report block (for ``febim serve --report``):
        one line per counter group — the request counters always, the
        others once they counted anything — then lanes, models and
        replicas."""
        lines = []
        for group, counters in groupby(COUNTERS, attrgetter("group")):
            counts = [(c.name, getattr(self, c.name)) for c in counters]
            if not lines or any(n for _, n in counts):
                lines.append(f"{group:10s} " + "  ".join(
                    f"{name.replace('_', ' ')} {n}" for name, n in counts
                ))
        # Batching and latency gauges report under the request counters.
        lines[1:1] = [
            f"occupancy  avg fill {self.avg_batch:.1f}/{self.max_batch} "
            f"({self.occupancy * 100:.0f}%)",
            f"latency    p50 {self.p50_latency_s * 1e3:.2f} ms   "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms",
        ]
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
        # One count per :data:`COUNTERS` entry, by snapshot attribute.
        self._counts = dict.fromkeys((c.name for c in COUNTERS), 0)
        self._batched_samples = 0
        self._occupancy_sum = 0.0
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._per_model: Dict[str, int] = {}
        self._per_replica: Dict[str, int] = {}
        self._lane_depth: Dict[int, int] = {}

    # ------------------------------------------------------------- recording
    def emit(self, kind: str, **detail) -> None:
        """Count one incident of ``kind`` and forward it, as a typed
        event, to the attached flight recorder.

        Telemetry is the object every layer (scheduler, router and its
        heal ladder, autoscale controller, worker pool) already holds,
        so it doubles as the event bus.  A kind that a :data:`COUNTERS`
        entry names (a heal-ladder ``replace``, a ``scale_up``, a
        ``worker_lost``, ...) bumps that counter, armed or not: the
        call site reports the incident once, with the detail only it
        knows (victim lane, replica label, triggering snapshot).  Any
        other kind with no recorder attached costs one dict lookup and
        one ``None`` check — the disabled path stays allocation-free.
        """
        counter = _COUNTED_BY.get(kind)
        if counter is not None:
            with self._lock:
                self._counts[counter] += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.record(kind, **detail)

    def record_submitted(self, n: int = 1) -> None:
        """``n`` client requests accepted."""
        with self._lock:
            self._counts["submitted"] += n

    def record_shed(self, n: int = 1) -> None:
        """``n`` client requests rejected by admission control."""
        with self._lock:
            self._counts["shed_requests"] += n

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
            self._counts["batches"] += 1
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
            self._counts["completed"] += n
            self._per_model[model] = self._per_model.get(model, 0) + n
            if latencies_s is not None:
                self._latencies.extend(latencies_s)

    def record_failed(self, n: int) -> None:
        with self._lock:
            self._counts["failed"] += n

    def record_cancelled(self, n: int) -> None:
        with self._lock:
            self._counts["cancelled"] += n

    def record_health_check(self, failed_canaries: int = 0) -> None:
        """One heal-ladder pass that found ``failed_canaries`` baseline
        mismatches."""
        with self._lock:
            self._counts["health_checks"] += 1
            self._counts["canary_failures"] += failed_canaries

    def record_maintenance_sweep(self) -> None:
        """One completed background maintenance sweep."""
        with self._lock:
            self._counts["maintenance_sweeps"] += 1

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
            self._counts["failovers"] += n

    def record_mirror_vote(self, unanimous: bool) -> None:
        """One mirrored request resolved by majority vote."""
        with self._lock:
            self._counts["mirror_votes"] += 1
            if not unanimous:
                self._counts["mirror_disagreements"] += 1

    # --------------------------------------------------------------- reading
    def snapshot(self) -> TelemetrySnapshot:
        """Consistent snapshot of every counter."""
        with self._lock:
            batches = self._counts["batches"]
            if self._latencies:
                lat = np.fromiter(self._latencies, dtype=float)
                p50, p95 = np.percentile(lat, [50.0, 95.0])
            else:
                p50 = p95 = float("nan")
            return TelemetrySnapshot(
                max_batch=self.max_batch,
                avg_batch=self._batched_samples / batches if batches else 0.0,
                occupancy=self._occupancy_sum / batches if batches else 0.0,
                p50_latency_s=float(p50),
                p95_latency_s=float(p95),
                per_model=dict(self._per_model),
                per_replica=dict(self._per_replica),
                lane_depth=dict(self._lane_depth),
                **self._counts,
            )
