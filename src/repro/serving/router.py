"""Cost- and health-aware request routing across deployment replicas.

:class:`Router` is the serving layer's arbitration engine: it owns the
applied :class:`~repro.serving.deployment.Deployment` specs, one
programmed engine *and one micro-batch scheduler per replica* — a slow
``memristor`` replica coalesces on its own worker and can never
head-of-line-block an ``ideal`` one — and decides which replica
answers each request (each ``max_batch`` chunk of a ``submit_many``):

* ``cost`` — cheapest healthy replica: the backend's own
  ``inference_cost_batch`` unit delay (probed once at apply time),
  scaled by live queue occupancy and divided by the replica weight;
* ``round_robin`` — healthy replicas in turn;
* ``sticky`` — per-tenant affinity: the request's ``client`` identity
  maps to a stable replica by rendezvous (highest-random-weight)
  hashing, so losing one replica remaps only *its* clients (~1/N of
  traffic), never reshuffles the survivors' tenants;
* ``mirror`` — fan out to N healthy replicas and majority-vote the
  predictions (:class:`MirroredResult`), the reliability mode.

Failures route around automatically on two timescales.  Per request,
a replica attempt that errors is transparently resubmitted to another
replica (the client future never sees the internal failure; telemetry
records a *failover*), and a replica that failed a request another
replica then served is marked down — its queue drains through the same
failover path while new traffic skips it.  Per sweep,
:meth:`Router.check_replica` runs the canary heal ladder one rung
deeper than the single-engine
:class:`~repro.serving.health.HealthMonitor`: **refresh** (reprogram in
place), **replace** (fresh hardware, same stream seed), and finally
**evict** — the replica is removed from the routing set for good and
the deployment keeps serving on the survivors.

Deployments carrying an :class:`~repro.serving.deployment.SLOPolicy`
get two more behaviours.  Admission control: each replica's scheduler
queue is bounded, a busy replica's :class:`Overloaded` rejection fails
over to its siblings *without* marking anyone down (busy is not
broken), and the client sees ``Overloaded`` only when every
serviceable replica is full.  Elasticity: :meth:`add_replica` /
:meth:`retire_replica` let the autoscale controller grow and shrink
the replica set at runtime through the same validate → materialise →
probe pipeline ``apply`` uses, with per-replica wear ledgers
(:class:`~repro.reliability.faults.WearState` in crossbar-less ledger
mode) so placement can prefer the least-worn hardware.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import zlib
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.backends.base import Capability
from repro.reliability.faults import AgeClock, WearState
from repro.reliability.mitigation import refresh_engine, spare_row_repair
from repro.reliability.observability import (
    DeviceHealthSample,
    MarginProbe,
    MarginReading,
    sample_margin,
)
from repro.serving.deployment import (
    Deployment,
    DeploymentError,
    ReplicaSpec,
    validate_replica_spec,
)
from repro.serving.health import (
    _report_currents,
    agreement_from_predictions,
)
from repro.serving import policy as routing_policy
from repro.serving.policy import (
    DOWN,
    DRAINING,
    EVICTED,
    HEALTHY,
    RETIRED,
)
from repro.serving.scheduler import (
    MicroBatchScheduler,
    Overloaded,
    ServedResult,
    _Request,
)

#: Canary-set size probed per replica at apply time.
N_CANARIES = 8


class ReplicaKey(NamedTuple):
    """Scheduler routing key for one replica's queue."""

    name: str
    version: int
    replica: int

    def __str__(self) -> str:
        return f"{self.name}@v{self.version}#r{self.replica}"


@dataclass(frozen=True)
class ReplicaStatus:
    """Public point-in-time view of one replica (``Router.status``)."""

    replica: str
    backend: str
    state: str
    weight: float
    unit_delay_s: float
    pending: int
    index: int = -1
    wear_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "backend": self.backend,
            "state": self.state,
            "weight": self.weight,
            "unit_delay_s": self.unit_delay_s,
            "pending": self.pending,
            "index": self.index,
            "wear_fraction": self.wear_fraction,
        }


@dataclass(frozen=True)
class ReplicaHealthReport:
    """Outcome of one replica heal-ladder pass (``check_replica``).

    ``signal_ratio`` / ``margin`` are the replica's read-margin stats
    from the *last* canary read of the pass (post-repair when the
    ladder ran) — NaN when the replica could not be read at all.
    """

    replica: str
    state: str
    agreement: float
    action: str  # "ok" | "refresh" | "spare_repair" | "replace" | "evict"
    healed: bool
    signal_ratio: float = float("nan")
    margin: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "state": self.state,
            "agreement": self.agreement,
            "action": self.action,
            "healed": self.healed,
            "signal_ratio": (
                None if self.signal_ratio != self.signal_ratio
                else self.signal_ratio
            ),
            "margin": None if self.margin != self.margin else self.margin,
        }


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


class KilledReplicaError(RuntimeError):
    """Raised when a batch resolves an engine on a killed replica."""


class _Replica:
    """One applied replica: spec, engine, scheduler, live state."""

    def __init__(
        self,
        index: int,
        spec: ReplicaSpec,
        key: ReplicaKey,
        wear: Optional[WearState] = None,
    ):
        self.index = index
        self.spec = spec
        self.key = key
        self.scheduler: Optional[MicroBatchScheduler] = None
        self.state = HEALTHY
        self.killed = False
        self.recoverable = True
        # Gradual-drain progress (state == DRAINING only): sticky
        # client cohorts below ``drain_step`` have been remapped; the
        # replica finalises when the step reaches ``drain_steps``.
        self.drain_step = 0
        self.drain_steps = 0
        self.engine = None
        self.unit_delay = float("inf")
        self.baseline: Optional[np.ndarray] = None
        # Pure bookkeeping ledgers (crossbar=None): programming cycles
        # and in-service age are counted without ever rewriting the
        # live template — serving stays bit-identical.
        self.wear = wear if wear is not None else WearState()
        self.age = AgeClock()
        # Margin probe against the apply-time pristine read; the latest
        # reading is refreshed by every canary sweep and hardware
        # sample — no extra array reads, ever.
        self.probe: Optional[MarginProbe] = None
        self.margin_reading: Optional[MarginReading] = None
        self._hw_t: Optional[float] = None  # last hardware-sample clock

    @property
    def label(self) -> str:
        return f"{self.key}[{self.spec.backend}]"

    # Duck-typed view attributes the pure policy core arbitrates on
    # (shared with the cluster front end's replica handles).
    @property
    def weight(self) -> float:
        return self.spec.weight

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def resolve(self):
        """The engine serving this replica; raises when killed."""
        if self.killed or self.engine is None:
            raise KilledReplicaError(f"replica {self.label} is dead")
        return self.engine


class _AppliedDeployment:
    """A validated deployment bound to programmed replicas."""

    def __init__(
        self,
        spec: Deployment,
        version: int,
        replicas: List[_Replica],
        canaries: np.ndarray,
    ):
        self.spec = spec
        self.name = spec.model
        self.version = version
        # Never mutated in place: add/retire swap in a fresh list so
        # lock-free readers of the reference stay consistent.
        self.replicas = replicas
        self.canaries = canaries
        self.rr_counter = itertools.count()
        # Monotonic index source for replicas added at runtime —
        # retiring r1 must never let a later scale-up mint a second
        # "r1" with a different engine.
        self.next_index = len(replicas)

    @property
    def route(self) -> str:
        return f"{self.name}@v{self.version}"


class _Attempt:
    """One routing hop, shared by every row of a routed chunk.

    It records where the rows were sent (``replica``), every replica
    they have tried (``attempted``), the replicas that failed them
    (``failed_chain``, marked down once another replica serves the
    rows) and their priority lane.  The rows' scheduler reports back
    once per batch: :meth:`served` for the rows that ran,
    :meth:`failed` for rows a batch failed or a full or closed queue
    refused.  A record is never mutated: a failover hands the failed
    rows a new record one hop further on, so rows of one chunk that
    fail in different batches each fail over from the same state.
    """

    __slots__ = (
        "router", "dep", "replica", "attempted", "failed_chain",
        "priority", "claimed",
    )

    def __init__(
        self,
        router: "Router",
        dep: _AppliedDeployment,
        replica: "_Replica",
        attempted: set,
        failed_chain: Tuple["_Replica", ...] = (),
        priority: int = 0,
        claimed: bool = False,
    ):
        self.router = router
        self.dep = dep
        self.replica = replica
        self.attempted = attempted
        self.failed_chain = failed_chain
        self.priority = priority
        # Whether the rows' futures are already running: set once a
        # batch has executed (and failed) them, after which no client
        # can cancel them and no scheduler may claim them again.
        self.claimed = claimed

    def served(self, n: int) -> None:
        """``n`` rows of this hop were served by :attr:`replica`."""
        telemetry = self.router.server.telemetry
        telemetry.record_replica_served(self.replica.label, n)
        # Failovers count only here, where the resubmission actually
        # saved the client (one per earlier attempt of each row): a
        # request that fails on *every* replica is an error, not N-1
        # transparent rescues.
        telemetry.record_failover((len(self.attempted) - 1) * n)
        # A replica that failed rows this replica then served is
        # confirmed bad (the rows were fine): mark it down so new
        # traffic routes around while its queue drains through the
        # same failover path.
        for bad in self.failed_chain:
            self.router._mark_down(bad)

    def failed(
        self, requests: List[_Request], exc: BaseException, ran: bool
    ) -> None:
        """Rows of this hop failed in a batch (``ran``) or were refused
        by a full or closed queue: fail them over."""
        self.router._failover(self, requests, exc, ran)


def replica_stream_seed(
    base_seed: Optional[int], name: str, version: int, replica: int
) -> Optional[int]:
    """Deterministic per-replica engine seed.

    Replica 0 uses the unmodified per-tenant stream
    (:func:`~repro.serving.server.model_stream_seed`) so a
    single-replica deployment materialises the bit-identical engine the
    legacy path serves; higher replicas extend the entropy tuple with
    their index for statistically independent streams.
    """
    from repro.serving.server import model_stream_seed

    if replica == 0:
        return model_stream_seed(base_seed, name, version)
    if base_seed is None:
        return None
    entropy = (
        int(base_seed),
        zlib.crc32(name.encode("utf-8")),
        int(version),
        int(replica),
    )
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def result_margin(result: ServedResult) -> float:
    """One served sample's winner/runner-up read margin.

    Recovered from the currents the serving read already sensed (the
    same per-row signature ``read_margin_batch`` probes), so weighting
    a mirror vote costs one partition over a handful of wordlines —
    never an extra array read.  NaN when the report carries no usable
    currents (degenerate geometry, wrapped engines).
    """
    try:
        row = _report_currents(result._report)[result._index]
        margin, _ = sample_margin(row)
        return margin
    except Exception:  # noqa: BLE001 — weighting must never fail a vote
        return float("nan")


class Router:
    """Deployment owner and per-request replica arbiter.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.FeBiMServer` whose registry,
        batch policy, telemetry and seed the router shares.  Engines
        materialise through the registry (per-replica backend
        overrides), so a single-replica deployment on the registry's
        own backend shares the legacy path's cache entry — and its
        programmed engine object — bit for bit.

    Thread safety: deployment application/removal and replica state
    transitions take the router lock; the submit hot path reads the
    replica list without copying (replica lists are never mutated in
    place — eviction flips a state flag).
    """

    def __init__(self, server):
        self.server = server
        self._lock = threading.Lock()
        self._deployments: Dict[str, _AppliedDeployment] = {}
        # Test/benchmark hook: wraps every materialised replica engine
        # (e.g. a pacing proxy that models slower hardware).  Leave
        # ``None`` in production.
        self.engine_wrapper = None
        # Optional request tracer (set by ``server.enable_observability``).
        # The router owns any trace it samples: one trace follows a
        # request across every failover hop, and only the router knows
        # when routing has finally resolved.  Mirror fan-out is not
        # traced — parallel replica reads would overlap in time and
        # break the span-sum-equals-duration invariant.
        self.tracer = None
        # Optional device-health ledger (set by
        # ``server.enable_observability``): every ``hardware_status``
        # sample is recorded into it.  ``None`` costs nothing.
        self.ledger = None
        # Margin floor for the heal ladder: a replica whose canary
        # signal ratio (vs its apply-time pristine baseline) falls
        # below this enters the ladder *before* any prediction flips.
        # 0.0 = observe-only (margins are still measured and exported,
        # but never trigger repairs).
        self.min_signal_ratio = 0.0

    # ------------------------------------------------------------ deployment
    def deployments(self) -> Dict[str, Deployment]:
        """Applied specs by model name."""
        with self._lock:
            return {name: dep.spec for name, dep in self._deployments.items()}

    def deployment_for(
        self, name: str, version: Optional[int] = None
    ) -> Optional[_AppliedDeployment]:
        """The applied deployment serving ``name`` at ``version``.

        ``None`` when the model is undeployed *or* the caller pinned a
        version other than the one the deployment resolved at apply
        time — pinned lookups of historical versions keep working
        through the legacy path.
        """
        with self._lock:
            dep = self._deployments.get(name)
        if dep is None:
            return None
        if version is not None and int(version) != dep.version:
            return None
        return dep

    def apply(
        self,
        deployment: Deployment,
        indices: Optional[List[int]] = None,
    ) -> _AppliedDeployment:
        """Validate, program and install a deployment (replacing any
        previous deployment of the same model).

        Every replica is materialised, probed for its unit cost and
        canary baseline *before* the deployment goes live — a spec that
        cannot serve fails here, not mid-traffic.  The resolved model
        version is pinned: re-apply to roll a deployment forward after
        registering a new version.

        ``indices`` assigns explicit global replica indices (one per
        spec replica, in order) instead of ``0..n-1``.  This is the
        cluster worker's hosting hook: a worker applying the slice of a
        deployment it owns must mint the *cluster-wide* indices, because
        the per-replica stream seed — and therefore the engine's bits —
        derives from them.
        """
        deployment.validate()
        if indices is not None:
            indices = [int(i) for i in indices]
            if len(indices) != len(deployment.replicas):
                raise DeploymentError(
                    f"apply got {len(indices)} indices for "
                    f"{len(deployment.replicas)} replicas"
                )
            if len(set(indices)) != len(indices) or min(indices) < 0:
                raise DeploymentError(
                    f"replica indices must be unique and >= 0, got {indices}"
                )
        registry = self.server.registry
        version = registry.resolve_version(deployment.model, deployment.version)
        canaries = self._canary_levels(deployment, version)

        replicas: List[_Replica] = []
        for i, spec in enumerate(deployment.replicas):
            index = i if indices is None else indices[i]
            key = ReplicaKey(deployment.model, version, index)
            replica = _Replica(index, spec, key)
            replica.scheduler = self._make_scheduler(replica, deployment)
            try:
                self._probe(deployment.model, version, replica, canaries)
            except Exception as exc:
                replica.scheduler.shutdown(drain=False)
                for built in replicas:
                    built.scheduler.shutdown(drain=False)
                raise DeploymentError(
                    f"replica {i} ({spec.backend}) failed to materialise "
                    f"for {deployment.model!r} v{version}: {exc}"
                ) from exc
            replicas.append(replica)

        applied = _AppliedDeployment(deployment, version, replicas, canaries)
        if indices is not None:
            applied.next_index = max(indices) + 1
        with self._lock:
            previous = self._deployments.get(deployment.model)
            self._deployments[deployment.model] = applied
        if previous is not None:
            self._shutdown_deployment(previous)
        return applied

    def remove(self, name: str, timeout: Optional[float] = None) -> bool:
        """Undeploy ``name`` (drain its replica queues); False if absent."""
        with self._lock:
            dep = self._deployments.pop(name, None)
        if dep is None:
            return False
        self._shutdown_deployment(dep, timeout=timeout)
        return True

    def _shutdown_deployment(
        self, dep: _AppliedDeployment, timeout: Optional[float] = None
    ) -> None:
        for replica in dep.replicas:
            replica.scheduler.shutdown(drain=True, timeout=timeout)

    def _canary_levels(self, deployment: Deployment, version: int) -> np.ndarray:
        """A small deterministic probe set over the model's level widths."""
        model, _ = self.server.registry.load(
            deployment.model, version, backend=deployment.replicas[0].backend
        )
        widths = [t.shape[1] for t in model.likelihood_levels]
        levels = np.empty((N_CANARIES, len(widths)), dtype=int)
        for f, width in enumerate(widths):
            levels[:, f] = (np.arange(N_CANARIES) * (f + 1)) % width
        return levels

    def _materialise(
        self, name: str, version: int, replica: _Replica, fresh: bool = False
    ):
        """Program (or fetch from cache) one replica's engine.

        ``fresh=True`` forces a new materialisation that takes over the
        cache slot (the replace rung) without touching the model's
        other cached engines.
        """
        registry = self.server.registry
        spec = replica.spec
        # A replica on the registry's own technology with no options of
        # its own inherits the registry's serving configuration — and
        # therefore the legacy path's cache key (single-replica
        # bit-identity, enforced by tests/serving/test_router.py).
        backend = None if spec.backend == registry.backend else spec.backend
        options = spec.backend_options or (None if backend is None else {})
        seed = replica_stream_seed(self.server.seed, name, version, replica.index)
        if seed is None and replica.index > 0:
            # A seedless server draws fresh entropy per engine, but the
            # registry caches seed=None configurations under one key —
            # which would collapse same-backend replicas into a single
            # shared engine (no real redundancy, and a data race on
            # stateful readers).  A Generator seed keeps the fresh
            # entropy while bypassing the cache; replica 0 stays on the
            # cached entry the legacy path shares.
            seed = np.random.default_rng()
        engine = registry.get_engine(
            name,
            version,
            max_rows=self.server.max_rows,
            seed=seed,
            backend=backend,
            backend_options=options,
            fresh=fresh,
        )
        if self.engine_wrapper is not None:
            engine = self.engine_wrapper(engine, replica)
        return engine

    def _make_scheduler(
        self, replica: _Replica, deployment: Deployment
    ) -> MicroBatchScheduler:
        """One scheduler per replica, bounded when the spec carries an SLO.

        The scheduler resolves its replica directly (not through the
        live deployment table): requests queued on a deployment that is
        later replaced drain on the engines they were routed to, never
        on the replacement's replicas.
        """
        slo = deployment.slo
        return MicroBatchScheduler(
            lambda _key, r=replica: r.resolve(),
            policy=self.server.policy,
            telemetry=self.server.telemetry,
            max_queue_depth=None if slo is None else slo.max_queue_depth,
        )

    def _probe(
        self,
        name: str,
        version: int,
        replica: _Replica,
        canaries: np.ndarray,
    ) -> None:
        """Materialise + canary-probe one replica (unit cost, baseline).

        Shared by :meth:`apply` and :meth:`add_replica`; raises the
        materialisation/probe error for the caller to wrap.
        """
        replica.engine = self._materialise(name, version, replica)
        replica.wear.add_cycles(1)  # one programming pass
        report = replica.engine.infer_batch(canaries)
        replica.baseline = np.asarray(report.predictions).copy()
        replica.unit_delay = float(np.mean(report.delay))
        # The same probe read seeds the margin baseline: deploy-time
        # pristine currents against which every later sweep's signal
        # ratio is scored.
        currents = _report_currents(report)
        replica.probe = MarginProbe(currents)
        replica.margin_reading = replica.probe.observe(currents)

    @contextmanager
    def quiesce_model(
        self, name: str, timeout: Optional[float] = None
    ) -> Iterator[None]:
        """Pause every replica queue of ``name``'s deployment (no-op
        when undeployed) for the body.

        Engine repairs outside the router — the single-engine
        :class:`~repro.serving.health.HealthMonitor` ladder — must hold
        this alongside the legacy scheduler's quiesce: replica 0 of a
        deployment on the registry backend *shares* the legacy path's
        cached engine object, so a reprogram under only one scheduler's
        quiesce would race the other's live batches.
        """
        dep = self.deployment_for(name)
        with contextlib.ExitStack() as stack:
            if dep is not None:
                for replica in dep.replicas:
                    stack.enter_context(replica.scheduler.quiesce(timeout))
            yield

    # ------------------------------------------------------------- arbitration
    def _candidates(self, dep: _AppliedDeployment) -> List[_Replica]:
        candidates = routing_policy.serviceable(dep.replicas)
        if not candidates:
            raise RuntimeError(
                f"deployment {dep.name!r} v{dep.version} has no serviceable "
                f"replicas (all evicted)"
            )
        return candidates

    def _score(self, replica: _Replica) -> float:
        """Cost-policy score: lower is better (see
        :func:`repro.serving.policy.cost_score`)."""
        return routing_policy.cost_score(replica)

    def _pick(
        self, dep: _AppliedDeployment, client: Optional[object]
    ) -> _Replica:
        """Policy arbitration, delegated to the pure core
        (:mod:`repro.serving.policy`) over the live replica objects —
        the identical decision function the cluster front end runs over
        worker-reported replica views."""
        candidates = self._candidates(dep)
        kind = dep.spec.policy.kind
        if kind == "sticky":
            draining = [r for r in dep.replicas if r.state == DRAINING]
            return routing_policy.pick_sticky(candidates, client, draining)
        return routing_policy.pick_replica(
            kind, candidates,
            rr_tick=next(dep.rr_counter) if kind == "round_robin" else 0,
        )

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        dep: _AppliedDeployment,
        evidence_levels: np.ndarray,
        client: Optional[object] = None,
    ) -> "Future":
        """Route one sample through the deployment's policy.

        Returns a future resolving to a
        :class:`~repro.serving.scheduler.ServedResult` (or a
        :class:`MirroredResult` under the mirror policy).  Internal
        replica failures fail over transparently; the client future
        errors only when every serviceable replica failed the request.
        """
        if dep.spec.policy.kind == "mirror":
            return self._submit_mirror(dep, evidence_levels)
        return self._route(dep, (evidence_levels,), client)[0]

    def submit_many(
        self,
        dep: _AppliedDeployment,
        evidence_levels: np.ndarray,
        client: Optional[object] = None,
    ) -> List["Future"]:
        """Route a stack of samples; one future per row.

        The rows go in chunks of the batch policy's ``max_batch``, each
        with one policy pick and queued under one scheduler lock:
        ``cost`` re-scores every chunk against the queue depth the
        chunks before it left, and ``round_robin`` alternates per
        chunk.  Mirror fan-out stays per row.
        """
        if dep.spec.policy.kind == "mirror":
            return [self._submit_mirror(dep, row) for row in evidence_levels]
        step = self.server.policy.max_batch
        futures: List["Future"] = []
        for lo in range(0, len(evidence_levels), step):
            futures += self._route(dep, evidence_levels[lo:lo + step], client)
        return futures

    def _route(
        self,
        dep: _AppliedDeployment,
        rows,
        client: Optional[object],
    ) -> List["Future"]:
        """Pick one replica for ``rows``, queue them there as one
        attempt, and return their futures."""
        label = None if client is None else str(client)
        slo = dep.spec.slo
        priority = 0 if slo is None else slo.priority_for(label)
        replica = self._pick(dep, client)
        attempt = _Attempt(self, dep, replica, {replica}, priority=priority)
        now = time.monotonic()
        requests = [_Request(row, now, priority, attempt) for row in rows]
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # One trace follows a row across every failover hop; the
            # admit span starts when the trace does.
            for request in requests:
                request.trace = tracer.sample(dep.route, client=label)
                if request.trace is not None:
                    request.enqueued_at = request.trace.created_s
        # Counted once here: a failover hop never counts a row again.
        self.server.telemetry.record_submitted(len(requests))
        # Backpressure may only block the *first* attempt, which runs on
        # the client's own thread.  Failover attempts run on scheduler
        # worker threads — two workers blocking into each other's full
        # queues would deadlock the data plane.
        self._enqueue(
            attempt, requests, block=slo is not None and bool(slo.backpressure)
        )
        return [request.future for request in requests]

    def _enqueue(
        self,
        attempt: _Attempt,
        requests: List[_Request],
        block: bool = False,
    ) -> None:
        replica = attempt.replica
        refused, refusal = replica.scheduler.enqueue(
            replica.key, requests, block=block
        )
        if refused:
            # A full queue (Overloaded) or a redeploy/undeploy racing
            # the submit (SchedulerClosed); the failover contract still
            # holds — spill to a sibling.
            self._failover(attempt, refused, refusal, ran=False)

    def _next_fallback(
        self, dep: _AppliedDeployment, attempted: set
    ) -> Tuple[_AppliedDeployment, Optional[_Replica]]:
        """The next serviceable replica no attempt has visited.

        Resolved against the *live* deployment for the model: if the
        one the request was routed under has been replaced mid-flight,
        failover hops onto the replacement's (fresh, untried) replicas
        instead of dying with the old schedulers.
        """
        current = self.deployment_for(dep.name) or dep
        try:
            candidates = self._candidates(current)
        except RuntimeError:
            return current, None
        return current, next((r for r in candidates if r not in attempted), None)

    def _failover(
        self,
        attempt: _Attempt,
        requests: List[_Request],
        exc: BaseException,
        ran: bool,
    ) -> None:
        """Re-enqueue rows that failed ``attempt`` on the next untried
        replica, or surface the error.

        ``ran`` says a batch executed (and so claimed) the rows.  When
        no untried replica is left the rows failed everywhere — a
        request problem (or, for :class:`Overloaded`, a saturated
        deployment), not a replica problem, so nobody is marked down
        and the last error reaches the clients.
        """
        claimed = attempt.claimed or ran
        current, fallback = self._next_fallback(attempt.dep, attempt.attempted)
        if fallback is None:
            self._reject(requests, exc, claimed)
            return
        # Overloaded means *busy*, not broken: the rows were shed
        # unattempted, so they spill to a sibling without ever putting
        # this replica on the mark-down chain.
        chain = attempt.failed_chain
        if not isinstance(exc, Overloaded):
            chain = chain + (attempt.replica,)
        hop = _Attempt(
            self, current, fallback, attempt.attempted | {fallback},
            chain, attempt.priority, claimed,
        )
        now = time.monotonic()
        reason = type(exc).__name__
        for request in requests:
            request.attempt = hop
            request.enqueued_at = now
            if request.trace is not None:
                # Zero-width marker: the hop itself takes no request
                # time (the next admit span starts immediately), but
                # the trace shows where routing bounced and why.
                request.trace.add_span(
                    "failover", now, now,
                    to_replica=fallback.label, reason=reason,
                )
        self.server.telemetry.emit(
            "failover",
            model=current.name,
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

    def _reject(
        self, requests: List[_Request], exc: BaseException, claimed: bool
    ) -> None:
        """Resolve rows no replica could serve with ``exc``.

        Counted once per client request: as shed when every replica was
        full, as failed otherwise, and as cancelled when the client
        cancelled the row before any batch claimed it.
        """
        outcome = "shed" if isinstance(exc, Overloaded) else "failed"
        resolved = 0
        for request in requests:
            if claimed or request.future.set_running_or_notify_cancel():
                if request.trace is not None:
                    request.trace.finish(outcome)
                request.future.set_exception(exc)
                resolved += 1
            elif request.trace is not None:
                request.trace.finish("cancelled")
        telemetry = self.server.telemetry
        if resolved and outcome == "shed":
            telemetry.record_shed(resolved)
        elif resolved:
            telemetry.record_failed(resolved)
        if resolved < len(requests):
            telemetry.record_cancelled(len(requests) - resolved)

    def _mark_down(self, replica: _Replica) -> None:
        with self._lock:
            flipped = replica.state == HEALTHY
            if flipped:
                replica.state = DOWN
        if flipped:
            self.server.telemetry.emit("replica_down", replica=replica.label)

    def _shares_legacy_engine(self, replica: _Replica) -> bool:
        """Whether this replica's engine is the legacy path's cache
        entry (replica 0 on the registry's backend with inherited
        options — the configurations collapse to one cache key)."""
        return (
            replica.index == 0
            and replica.spec.backend == self.server.registry.backend
            and not replica.spec.backend_options
        )

    # ---------------------------------------------------------------- mirror
    def _submit_mirror(
        self, dep: _AppliedDeployment, levels: np.ndarray
    ) -> "Future[MirroredResult]":
        policy = dep.spec.policy
        candidates = routing_policy.mirror_candidates(
            self._candidates(dep), policy.mirror_fanout
        )
        client_future: "Future[MirroredResult]" = Future()
        votes: Dict[int, Optional[ServedResult]] = {}
        overloaded: set = set()
        remaining = [len(candidates)]
        vote_lock = threading.Lock()

        def record_vote(index: int, result: Optional[ServedResult]) -> None:
            with vote_lock:
                votes[index] = result
                remaining[0] -= 1
                if remaining[0]:
                    return
            self._resolve_vote(dep, candidates, votes, client_future, overloaded)

        def voted(index: int, f: "Future") -> None:
            result = None
            if not f.cancelled() and f.exception() is None:
                result = f.result()
            elif not f.cancelled() and isinstance(f.exception(), Overloaded):
                overloaded.add(index)
            record_vote(index, result)

        for replica in candidates:
            try:
                inner = replica.scheduler.submit(replica.key, levels)
            except BaseException as exc:  # noqa: BLE001 — abstain, don't hang the vote
                if isinstance(exc, Overloaded):
                    overloaded.add(replica.index)
                record_vote(replica.index, None)
                continue
            inner.add_done_callback(
                lambda f, i=replica.index: voted(i, f)
            )
        return client_future

    def _resolve_vote(
        self,
        dep: _AppliedDeployment,
        candidates: List[_Replica],
        votes: Dict[int, Optional[ServedResult]],
        client_future: "Future[MirroredResult]",
        overloaded: Optional[set] = None,
    ) -> None:
        if not client_future.set_running_or_notify_cancel():
            return
        succeeded = [
            (replica, votes[replica.index])
            for replica in candidates
            if votes.get(replica.index) is not None
        ]
        if not succeeded:
            client_future.set_exception(
                RuntimeError(
                    f"mirror vote failed: no replica of {dep.name!r} "
                    f"answered"
                )
            )
            return
        # A participant that failed a request its peers served is
        # confirmed bad, exactly as on the failover path: mark it down
        # so the next mirrored request stops wasting fan-out on it.
        # An *overloaded* abstention is busy, not broken — skipped.
        for replica in candidates:
            if votes.get(replica.index) is None and (
                overloaded is None or replica.index not in overloaded
            ):
                self._mark_down(replica)
        # Majority (optionally weighted by each answer's read margin —
        # see RoutingPolicy.mirror_weighted); deterministic tie-break
        # on the lower class label either way.
        weighted = dep.spec.policy.mirror_weighted
        winner, _ = routing_policy.resolve_votes(
            [
                (
                    int(result.prediction),
                    result_margin(result) if weighted else 1.0,
                )
                for _, result in succeeded
            ],
            weighted=weighted,
        )
        # Agreement is over the *participants*, not the respondents (a
        # dead replica is a lost vote, and a 2-way mirror with one
        # corpse must read 0.5, never a unanimous vote of one) — and it
        # stays a head count under weighting: the margin decides the
        # winner, not how united the replicas looked.
        agreed = sum(
            1 for _, result in succeeded if int(result.prediction) == winner
        )
        agreement = agreed / len(candidates)
        for replica, _ in succeeded:
            self.server.telemetry.record_replica_served(replica.label)
        self.server.telemetry.record_mirror_vote(unanimous=agreement == 1.0)
        client_future.set_result(
            MirroredResult(
                model=dep.route,
                prediction=winner,
                votes=tuple(
                    (
                        replica.label,
                        None
                        if votes.get(replica.index) is None
                        else int(votes[replica.index].prediction),
                    )
                    for replica in candidates
                ),
                agreement=agreement,
                delay=max(r.delay for _, r in succeeded),
                energy_total=sum(r.energy_total for _, r in succeeded),
                queue_wait_s=max(r.queue_wait_s for _, r in succeeded),
                batch_size=max(r.batch_size for _, r in succeeded),
            )
        )

    # ------------------------------------------------------------- elasticity
    @staticmethod
    def _replica_by_index(dep: _AppliedDeployment, index: int) -> _Replica:
        """Index-matched lookup: replica indices are identities, not
        list positions (retirement leaves holes)."""
        for replica in dep.replicas:
            if replica.index == index:
                return replica
        raise KeyError(
            f"deployment {dep.name!r} has no replica with index {index}"
        )

    def add_replica(
        self,
        name: str,
        spec: ReplicaSpec,
        wear: Optional[WearState] = None,
        index: Optional[int] = None,
    ) -> ReplicaStatus:
        """Grow ``name``'s deployment by one replica at runtime.

        The autoscaler's scale-up primitive: the spec passes the same
        static validation as one written in the deployment, the engine
        is materialised and canary-probed *before* the replica joins
        the routing set, and an optional ``wear`` ledger (e.g. a
        :class:`~repro.serving.autoscale.HardwareSlot`'s) seeds the
        replica's lifetime accounting.  Returns the new replica's
        status.

        An explicit ``index`` re-hosts a specific global replica
        identity (the cluster failover path moving a dead worker's
        replica onto a survivor: same index + same stream seed = the
        bit-identical engine).  Indices are never reused — a collision
        with a live replica is an error.
        """
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        with self._lock:
            if index is None:
                index = dep.next_index
                dep.next_index += 1
            else:
                index = int(index)
                if any(r.index == index for r in dep.replicas):
                    raise DeploymentError(
                        f"deployment {name!r} already has a replica "
                        f"with index {index}"
                    )
                dep.next_index = max(dep.next_index, index + 1)
        validate_replica_spec(spec, index, dep.spec.policy.min_agreement)
        key = ReplicaKey(dep.name, dep.version, index)
        replica = _Replica(index, spec, key, wear=wear)
        replica.scheduler = self._make_scheduler(replica, dep.spec)
        try:
            self._probe(dep.name, dep.version, replica, dep.canaries)
        except Exception as exc:
            replica.scheduler.shutdown(drain=False)
            raise DeploymentError(
                f"replica {index} ({spec.backend}) failed to materialise "
                f"for {dep.name!r} v{dep.version}: {exc}"
            ) from exc
        with self._lock:
            dep.replicas = dep.replicas + [replica]
        return self._status_of(replica)

    def retire_replica(
        self,
        name: str,
        index: int,
        timeout: Optional[float] = None,
        drain_steps: int = 1,
    ) -> ReplicaStatus:
        """Shrink ``name``'s deployment: drain and remove one replica.

        The autoscaler's scale-down primitive — the graceful opposite
        of eviction: the replica leaves the routing set first (no new
        traffic), its queue then drains on its own engine, and only
        then does its scheduler shut down.  Refuses to retire the last
        serviceable replica.

        ``drain_steps > 1`` (sticky policy only) retires *gradually*:
        the replica enters the ``draining`` state and keeps serving its
        HRW clients, who are remapped in ``drain_steps`` deterministic
        cohorts — one per maintenance sweep (:meth:`advance_drains`) —
        so a scale-down never steps every tenant's affinity at once.  A
        ``retire`` flight event marks each step; the final step drains
        the queue and removes the replica exactly as an immediate
        retire would.
        """
        drain_steps = int(drain_steps)
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        if drain_steps > 1 and dep.spec.policy.kind != "sticky":
            raise DeploymentError(
                f"drain_steps={drain_steps} is only meaningful under the "
                f"sticky policy ({dep.spec.policy.kind!r} has no client "
                f"affinity to remap gradually)"
            )
        with self._lock:
            replica = self._replica_by_index(dep, index)
            survivors = [
                r
                for r in dep.replicas
                if r.index != index and r.state in (HEALTHY, DOWN)
            ]
            if not survivors:
                raise DeploymentError(
                    f"cannot retire replica {index}: it is the last "
                    f"serviceable replica of {dep.name!r}"
                )
            if drain_steps > 1:
                replica.state = DRAINING
                replica.drain_step = 0
                replica.drain_steps = drain_steps
            else:
                replica.state = RETIRED
                dep.replicas = [r for r in dep.replicas if r.index != index]
        if drain_steps > 1:
            self.server.telemetry.emit(
                "retire",
                model=name, replica=replica.label,
                step=0, drain_steps=drain_steps,
            )
            return self._status_of(replica)
        self.server.telemetry.emit(
            "retire", model=name, replica=replica.label
        )
        replica.scheduler.shutdown(drain=True, timeout=timeout)
        return self._status_of(replica)

    def advance_drains(self) -> List[ReplicaStatus]:
        """Step every draining replica one cohort forward.

        Runs at the top of each maintenance sweep (:meth:`check_all`):
        each call remaps one more deterministic cohort of a draining
        replica's sticky clients onto their next-best survivor
        (:func:`repro.serving.policy.drain_moved`), emitting a
        per-step ``retire`` event; a replica whose last cohort has
        moved drains its queue and leaves the deployment.  Returns the
        statuses of replicas that finalised this sweep.
        """
        finalised: List[_Replica] = []
        with self._lock:
            deployed = list(self._deployments.values())
        for dep in deployed:
            for replica in list(dep.replicas):
                if replica.state != DRAINING:
                    continue
                with self._lock:
                    if replica.state != DRAINING:
                        continue
                    replica.drain_step += 1
                    done = replica.drain_step >= replica.drain_steps
                    if done:
                        replica.state = RETIRED
                        dep.replicas = [
                            r for r in dep.replicas if r.index != replica.index
                        ]
                self.server.telemetry.emit(
                    "retire",
                    model=dep.name, replica=replica.label,
                    step=replica.drain_step,
                    drain_steps=replica.drain_steps,
                )
                if done:
                    finalised.append(replica)
        for replica in finalised:
            replica.scheduler.shutdown(drain=True)
        return [self._status_of(r) for r in finalised]

    # ----------------------------------------------------------------- health
    def _status_of(self, replica: _Replica) -> ReplicaStatus:
        return ReplicaStatus(
            replica=replica.label,
            backend=replica.spec.backend,
            state=replica.state,
            weight=replica.spec.weight,
            unit_delay_s=replica.unit_delay,
            pending=replica.scheduler.pending,
            index=replica.index,
            wear_fraction=replica.wear.fraction_used,
        )

    def status(self, name: str) -> List[ReplicaStatus]:
        """Live per-replica view of one deployment."""
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        return [self._status_of(replica) for replica in dep.replicas]

    def kill_replica(self, name: str, index: int, recoverable: bool = False) -> None:
        """Chaos hook: hard-fail a replica without any health signal.

        The replica's engine resolution is poisoned — queued and future
        batches on it raise — but its routing state is left untouched,
        exactly like a crashed array that has not been probed yet: the
        per-request failover path discovers the loss, reroutes every
        affected request and marks the replica down.  ``check_replica``
        then escalates through the ladder: a ``recoverable`` kill (a
        transient crash) is healed by the *replace* rung on fresh
        hardware; the default unrecoverable kill (the array slot is
        gone) ends in eviction.
        """
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        replica = self._replica_by_index(dep, index)
        replica.killed = True
        replica.recoverable = bool(recoverable)
        replica.engine = None

    def check_replica(self, name: str, index: int) -> ReplicaHealthReport:
        """One canary sweep over a replica, healing up the full ladder.

        Rungs: **refresh** (reprogram in place — clears drift, cannot
        fix stuck hardware), **spare repair** (remap BIST-flagged rows
        onto manufactured spares, when the backend has any — fixes
        stuck hardware without burning a fresh array), **replace**
        (drop the cached engine and re-materialise on fresh hardware,
        same stream seed), **evict** (remove the replica from routing
        permanently; the deployment keeps serving on the survivors).
        The ladder is entered on canary disagreement *or* — when
        :attr:`min_signal_ratio` is raised above its observe-only
        default of 0 — on read-margin collapse while every prediction
        is still correct (a ``margin_warning`` flight event marks that
        early-warning entry).  Repairs run under the replica's own
        scheduler quiesce so live traffic never reads a
        half-reprogrammed array.
        """
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        replica = self._replica_by_index(dep, index)
        if replica.state == EVICTED:
            return ReplicaHealthReport(
                replica.label, EVICTED, 0.0, action="evict", healed=False
            )
        if replica.state == DRAINING:
            # A draining replica is already leaving: running the heal
            # ladder on it would waste repairs — or worse, flip it back
            # to HEALTHY and resurrect a retirement in progress.
            return ReplicaHealthReport(
                replica.label, DRAINING, 1.0, action="ok", healed=True
            )
        min_agreement = dep.spec.policy.min_agreement
        telemetry = self.server.telemetry

        def measure() -> float:
            report = replica.resolve().infer_batch(dep.canaries)
            failed, agreement = agreement_from_predictions(
                report.predictions, replica.baseline
            )
            telemetry.record_health_check(failed)
            if replica.probe is not None:
                replica.margin_reading = replica.probe.observe(
                    _report_currents(report)
                )
            return agreement

        def ratio_now() -> float:
            reading = replica.margin_reading
            return float("nan") if reading is None else reading.signal_ratio

        def margin_now() -> float:
            reading = replica.margin_reading
            return float("nan") if reading is None else reading.margin_p50

        def healthy(agreement: float) -> bool:
            # NaN ratio (dead replica, degenerate geometry) never fails
            # the margin channel — agreement already covers dead.
            return agreement >= min_agreement and not (
                ratio_now() < self.min_signal_ratio
            )

        # The whole check runs quiesced, the initial probe included: a
        # canary read must never interleave with live batches on
        # stateful readers (an ``advance_streams`` replica's LFSR
        # draws), and a failing probe escalates straight into repairs.
        # When the replica shares its engine object with the legacy
        # path (same registry cache entry), the legacy scheduler pauses
        # too — mirroring the dual quiesce HealthMonitor holds — but
        # unrelated tenants are not stalled for replicas that cannot
        # share.
        with contextlib.ExitStack() as quiesced:
            if self._shares_legacy_engine(replica):
                quiesced.enter_context(
                    self.server.scheduler.quiesce(timeout=30.0)
                )
            quiesced.enter_context(replica.scheduler.quiesce(timeout=30.0))
            try:
                agreement = measure()
            except Exception:
                agreement = 0.0
            if healthy(agreement):
                with self._lock:
                    if replica.state == DOWN:
                        replica.state = HEALTHY
                return ReplicaHealthReport(
                    replica.label, replica.state, agreement,
                    action="ok", healed=True,
                    signal_ratio=ratio_now(), margin=margin_now(),
                )
            if agreement >= min_agreement:
                # Predictions intact, margin collapsed: the early
                # warning armed the ladder before accuracy could flip.
                telemetry.emit(
                    "margin_warning",
                    model=dep.name, replica=replica.label,
                    signal_ratio=ratio_now(), margin_p50=margin_now(),
                )
            else:
                telemetry.emit(
                    "canary_failure",
                    model=dep.name, replica=replica.label,
                    agreement=agreement,
                )
            # Rung 1: refresh — reprogram in place.
            try:
                refresh_engine(replica.resolve())
                replica.wear.add_cycles(1)
                telemetry.record_refresh()
                telemetry.emit(
                    "refresh", model=dep.name, replica=replica.label
                )
                agreement = measure()
            except Exception:
                agreement = 0.0
            if healthy(agreement):
                action = "refresh"
            else:
                # Rung 2: spare repair — remap BIST-flagged rows onto
                # manufactured spares.  Fixes stuck hardware a refresh
                # cannot, without discarding the array; skipped
                # silently when the backend has no (free) spares.
                action = ""
                if self._try_spare_repair(dep, replica):
                    try:
                        agreement = measure()
                    except Exception:
                        agreement = 0.0
                    if healthy(agreement):
                        action = "spare_repair"
            if not action:
                # Rung 3: replace — fresh hardware, same stream seed.
                # An unrecoverably killed replica has no slot to put
                # fresh hardware into; fall through to eviction.
                action = "replace"
                try:
                    if replica.killed and not replica.recoverable:
                        raise KilledReplicaError(
                            f"replica {replica.label} is unrecoverable"
                        )
                    replica.killed = False
                    replica.engine = self._materialise(
                        dep.name, dep.version, replica, fresh=True
                    )
                    replica.wear.add_cycles(1)
                    telemetry.record_replacement()
                    telemetry.emit(
                        "replace", model=dep.name, replica=replica.label
                    )
                    agreement = measure()
                except Exception:
                    agreement = 0.0
            if not healthy(agreement):
                # Rung 4: evict — out of the routing set for good.
                with self._lock:
                    replica.state = EVICTED
                replica.killed = True
                replica.engine = None
                telemetry.record_replica_eviction()
                telemetry.emit(
                    "evict",
                    model=dep.name, replica=replica.label,
                    agreement=agreement,
                )
                return ReplicaHealthReport(
                    replica.label, EVICTED, agreement,
                    action="evict", healed=False,
                )
        with self._lock:
            replica.state = HEALTHY
        return ReplicaHealthReport(
            replica.label, HEALTHY, agreement, action=action, healed=True,
            signal_ratio=ratio_now(), margin=margin_now(),
        )

    def _try_spare_repair(self, dep, replica: _Replica) -> int:
        """The spare-repair rung: remap flagged rows onto spares.

        Returns rows repaired; 0 means the rung was skipped (dead
        replica, no spare-capable array, dry pool, or a clean scan) and
        the ladder escalates straight to replace.  Emits one
        ``spare_repair`` flight event per repaired array.
        """
        try:
            engine = replica.resolve()
        except KilledReplicaError:
            return 0
        repaired = 0
        for tile in getattr(engine, "tiles", None) or [engine]:
            backend = getattr(tile, "backend", None)
            if backend is None or not backend.supports(Capability.SPARE_ROWS):
                continue
            if backend.spare_rows_free <= 0:
                continue
            try:
                rows = spare_row_repair(tile)
            except Exception:
                continue
            if not rows:
                continue
            repaired += len(rows)
            self.server.telemetry.emit(
                "spare_repair",
                model=dep.name, replica=replica.label,
                rows=[int(r) for r in rows],
                spares_free=int(backend.spare_rows_free),
            )
        return repaired

    def check_all(self) -> List[ReplicaHealthReport]:
        """Heal-ladder sweep over every replica of every deployment.

        Gradual drains advance first: a draining replica steps one
        client cohort per sweep, and one that finalises here is gone
        before the ladder below would have probed it.
        """
        self.advance_drains()
        reports = []
        with self._lock:
            deployed = list(self._deployments.values())
        for dep in deployed:
            for replica in list(dep.replicas):
                try:
                    reports.append(self.check_replica(dep.name, replica.index))
                except KeyError:
                    # Retired between the snapshot and the check — an
                    # autoscaler scale-down racing the sweep, not an
                    # error.
                    continue
        return reports

    # ----------------------------------------------------- hardware telemetry
    def _hardware_sample(
        self, dep: _AppliedDeployment, replica: _Replica
    ) -> DeviceHealthSample:
        """One device-health ledger row for ``replica``, recorded into
        :attr:`ledger` when one is attached.

        Read-only against the hardware: wear/age come from the
        replica's bookkeeping ledgers, margins from the *last* canary
        read (no fresh array access), and the spare-row / BIST
        inventory from capability-gated verify reads that never mutate
        state — so the sampler runs safely against live traffic,
        without a quiesce.  A ``bist_scan`` flight event fires when the
        scan finds faulty cells.
        """
        now = time.monotonic()
        if replica._hw_t is not None:
            # Wall time since the last sample accrues as in-service age
            # (ledger mode: bookkeeping only, the live array is never
            # rewritten here).
            replica.age.advance(max(now - replica._hw_t, 0.0))
        replica._hw_t = now
        spares: Optional[int] = None
        faults: Optional[int] = None
        try:
            engine = replica.resolve()
        except KilledReplicaError:
            engine = None
        if engine is not None:
            for tile in getattr(engine, "tiles", None) or [engine]:
                backend = getattr(tile, "backend", None)
                if backend is None:
                    continue
                if backend.supports(Capability.SPARE_ROWS):
                    free = int(backend.spare_rows_free)
                    spares = free if spares is None else spares + free
                try:
                    flagged = int(np.count_nonzero(backend.bist_scan()))
                except Exception:
                    continue
                faults = flagged if faults is None else faults + flagged
            if faults:
                self.server.telemetry.emit(
                    "bist_scan",
                    model=dep.name, replica=replica.label,
                    faulty_cells=faults,
                )
        reading = replica.margin_reading
        nan = float("nan")
        sample = DeviceHealthSample(
            t_s=now,  # monotonic, same base as flight-event timestamps
            replica=replica.label,
            state=replica.state,
            wear_fraction=replica.wear.fraction_used,
            age_s=replica.age.age_s,
            spares_free=spares,
            faulty_cells=faults,
            margin_p5=nan if reading is None else reading.margin_p5,
            margin_p50=nan if reading is None else reading.margin_p50,
            signal_ratio=nan if reading is None else reading.signal_ratio,
        )
        if self.ledger is not None:
            self.ledger.record(sample)
        return sample

    def hardware_status(self, name: str) -> List[DeviceHealthSample]:
        """Device-health snapshot of every replica of ``name``'s
        deployment: wear, in-service age, spare inventory, BIST fault
        count and the latest margin reading — one
        :class:`~repro.reliability.observability.DeviceHealthSample`
        per replica, recorded into the attached ledger."""
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        return [
            self._hardware_sample(dep, replica) for replica in dep.replicas
        ]

    # -------------------------------------------------------------- lifecycle
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain every replica queue; False when any timed out.

        ``timeout`` bounds the whole sweep (one shared deadline), not
        each queue.  The sweep runs twice: a failover can resubmit onto
        a queue the first pass already found empty, and the second pass
        (a fast no-op when nothing moved) catches exactly those
        stragglers.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            deployed = list(self._deployments.values())
        schedulers = [r.scheduler for d in deployed for r in d.replicas]
        ok = True
        for _ in range(2):
            for scheduler in schedulers:
                remaining = (
                    None
                    if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                ok = scheduler.drain(remaining) and ok
        return ok

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut every replica scheduler down; idempotent.

        A graceful close drains every queue *before* any scheduler
        shuts, so a failover from a late-draining replica cannot land
        on an already-closed sibling.
        """
        if drain:
            self.drain(timeout)
        with self._lock:
            deployed = list(self._deployments.values())
        for dep in deployed:
            for replica in dep.replicas:
                replica.scheduler.shutdown(drain=drain, timeout=timeout)

    def __repr__(self) -> str:
        with self._lock:
            total = sum(len(d.replicas) for d in self._deployments.values())
            return (
                f"Router({len(self._deployments)} deployments, "
                f"{total} replicas)"
            )
