"""Cost- and health-aware request routing across deployment replicas.

:class:`Router` is the serving layer's arbitration engine and the one
owner of every replica: it holds the applied
:class:`~repro.serving.deployment.Deployment` specs, one replica record
per replica — routing state, canary baseline, wear and age ledgers —
and the :class:`~repro.serving.plane.RequestPlane` that decides which
replica answers each request (each ``max_batch`` chunk of a
``submit_many``).  A replica's programmed engine and its micro-batch
scheduler live in its *host* (:class:`~repro.serving.host.ReplicaHost`):
in process, or — when the router has a worker pool, on a
:class:`~repro.serving.cluster.ClusterServer` — in a worker process
reached through per-replica control frames.  Placement decides only
where the host lives; a slow ``memristor`` replica coalesces on its own
queue and can never head-of-line-block an ``ideal`` one either way.
The policies:

* ``cost`` — cheapest healthy replica: the backend's own
  ``inference_cost_batch`` unit delay (probed once at placement),
  scaled by live queue occupancy and divided by the replica weight;
* ``round_robin`` — healthy replicas in turn;
* ``sticky`` — per-tenant affinity: the request's ``client`` identity
  maps to a stable replica by rendezvous (highest-random-weight)
  hashing, so losing one replica remaps only *its* clients (~1/N of
  traffic), never reshuffles the survivors' tenants;
* ``mirror`` — fan out to N healthy replicas and majority-vote the
  predictions (:class:`~repro.serving.plane.MirroredResult`), the
  reliability mode.

A model nobody deployed is served all the same: :meth:`Router.serving`
builds it an *implicit* one-replica ``cost`` deployment on the
registry's backend on first use, kept per ``(name, version)`` until the
registry invalidates the model, the sweep evicts its replica, or more
than ``registry.engine_cache_size`` routes are live (the least recently
served one drains and shuts); its replica keeps the ``name@vN``
routing key.  So every request takes the routed path and every replica
is swept by one heal ladder.

Failures route around automatically on two timescales.  Per request,
the plane resubmits a replica attempt that errors to another replica
(the client future never sees the internal failure; telemetry records
a *failover*), and marks down a replica that failed a request another
replica then served — its queue drains through the same failover path
while new traffic skips it.  Per sweep, :meth:`Router.check_replica`
runs the canary heal ladder: **refresh** (reprogram in place),
**spare repair**, **replace** (fresh hardware, same stream seed), and
finally **evict** — the replica is removed from the routing set for
good and the deployment keeps serving on the survivors.

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

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.reliability.faults import AgeClock, WearState
from repro.reliability.observability import (
    DeviceHealthSample,
    MarginProbe,
    MarginReading,
    _or_none,
)
from repro.serving.deployment import (
    Deployment,
    DeploymentError,
    ReplicaSpec,
    single_replica_deployment,
    validate_replica_spec,
)
from repro.serving.host import (
    CanaryRead,
    KilledReplicaError,
    ReplicaHost,
    WorkerLost,
)
from repro.serving.plane import RequestPlane
from repro.serving.policy import (
    DOWN,
    DRAINING,
    EVICTED,
    HEALTHY,
    RETIRED,
    UNPLACED,
)
from repro.serving.scheduler import SchedulerClosed

#: Canary-set size probed per replica at apply time.
N_CANARIES = 8


class ReplicaKey(NamedTuple):
    """Scheduler routing key for one replica's queue."""

    name: str
    version: int
    replica: int

    def __str__(self) -> str:
        return f"{self.name}@v{self.version}#r{self.replica}"


class RouteKey(NamedTuple):
    """A resolved routing identity, model name plus pinned version: the
    key of an implicit deployment's one replica, so its results and
    counters read ``name@vN``."""

    name: str
    version: int

    def __str__(self) -> str:
        return f"{self.name}@v{self.version}"


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
class HealthReport:
    """One replica's heal-ladder pass (:meth:`Router.check_replica`).

    ``accuracy`` (canary agreement with the replica's baseline),
    ``current_shift`` (mean relative wordline-current shift from the
    baseline read), ``signal_ratio`` and ``margin`` describe the state
    the sweep *found*: its first canary read, before any repair (NaN
    when the replica could not be read).  ``action`` is the deepest rung
    taken (``"ok"``, ``"refresh"``, ``"spare_repair"``, ``"replace"`` or
    ``"evict"``; ``"wait"`` for a worker-hosted replica between workers,
    which no rung touches), ``healed`` whether the replica left the pass
    reading clean canaries, and ``state`` its routing state afterwards.
    """

    replica: str
    state: str
    accuracy: float
    action: str
    healed: bool
    current_shift: float = float("nan")
    signal_ratio: float = float("nan")
    margin: float = float("nan")

    @property
    def ok(self) -> bool:
        """True when the replica passed without needing repair."""
        return self.action == "ok"

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "state": self.state,
            "accuracy": self.accuracy,
            "current_shift": _or_none(self.current_shift),
            "signal_ratio": _or_none(self.signal_ratio),
            "margin": _or_none(self.margin),
            "action": self.action,
            "healed": self.healed,
            "ok": self.ok,
        }


class _Replica:
    """One replica as the router owns it: spec, routing state, canary
    baseline and ledgers — and its host, where its engine and queue
    live (:class:`~repro.serving.host.ReplicaHost` in process, or a
    worker's, reached over the wire)."""

    def __init__(
        self,
        index: int,
        spec: ReplicaSpec,
        key: NamedTuple,
        wear: Optional[WearState] = None,
    ):
        self.index = index
        self.spec = spec
        self.key = key
        self.host = None
        self.state = HEALTHY
        self.killed = False
        self.recoverable = True
        # Gradual-drain progress (state == DRAINING only): sticky
        # client cohorts below ``drain_step`` have been remapped; the
        # replica finalises when the step reaches ``drain_steps``.
        self.drain_step = 0
        self.drain_steps = 0
        self.unit_delay = float("inf")
        # Canary baseline: predictions and wordline currents of the
        # deployment's canaries on this replica while it was pristine.
        self.baseline: Optional[np.ndarray] = None
        self.currents: Optional[np.ndarray] = None
        # Pure bookkeeping ledgers (crossbar=None): programming cycles
        # and in-service age are counted without ever rewriting the
        # live template — serving stays bit-identical.
        self.wear = wear if wear is not None else WearState()
        self.age = AgeClock()
        # Margin probe against the placement-time pristine read; the
        # latest reading is refreshed by every canary sweep and hardware
        # sample — no extra array reads, ever.
        self.probe: Optional[MarginProbe] = None
        self.margin_reading: Optional[MarginReading] = None
        self._hw_t: Optional[float] = None  # last hardware-sample clock

    @property
    def label(self) -> str:
        return f"{self.key}[{self.spec.backend}]"

    # Duck-typed view attributes the policy core and the request plane
    # arbitrate on.
    @property
    def weight(self) -> float:
        return self.spec.weight

    @property
    def pending(self) -> int:
        return self.host.pending

    # An in-process host's engine and scheduler, for tests and tools
    # that reach into a local replica.
    @property
    def engine(self):
        return self.host.engine

    @property
    def scheduler(self):
        return self.host.scheduler

    def resolve(self):
        """The engine serving this replica; raises when killed."""
        return self.host.resolve()


class _AppliedDeployment:
    """A validated deployment bound to programmed replicas."""

    def __init__(
        self,
        spec: Deployment,
        version: int,
        replicas: List[_Replica],
        canaries: np.ndarray,
        implicit: bool = False,
    ):
        self.spec = spec
        self.name = spec.model
        self.version = version
        # Built by Router.serving for an undeployed route, not applied;
        # rebuilt once the registry's generation of the model moves.
        self.implicit = implicit
        self.generation = None
        # Stamp of the last request routed here (implicit deployments:
        # the least recently served one is shut first).
        self.served_at = 0
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


class Router:
    """Owner of every replica, and of the request plane over them.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.FeBiMServer` whose registry,
        batch policy, telemetry and seed the router shares.  Engines
        materialise through the registry (per-replica backend
        overrides), so a single-replica deployment on the registry's
        own backend is bit for bit the implicit deployment of the same
        route.

    :attr:`pool` (``None`` = in process) is the
    :class:`~repro.serving.cluster.WorkerPool` a ``ClusterServer``
    places every replica's host with; its supervision sweep runs first
    in :meth:`check_all`.

    Thread safety: deployment application/removal and replica state
    transitions take the router lock; the submit hot path reads the
    replica list without copying (replica lists are never mutated in
    place — eviction flips a state flag).  Heal-ladder passes and
    canary installs run one at a time.

    :attr:`plane` routes every request; :attr:`tracer` is its request
    tracer.
    """

    def __init__(self, server):
        self.server = server
        self._lock = threading.Lock()
        self._deployments: Dict[str, _AppliedDeployment] = {}
        # Implicit one-replica deployments by (name, version), and the
        # canary sets callers installed on them (a rebuild keeps them).
        self._implicit: Dict[Tuple[str, int], _AppliedDeployment] = {}
        self._installed: Dict[Tuple[str, int], np.ndarray] = {}
        self._build_lock = threading.Lock()
        self._heal_lock = threading.Lock()
        self._served = itertools.count(1)
        self._closed = False
        self.pool = None
        # Test/benchmark hook: wraps every materialised replica engine
        # (e.g. a pacing proxy that models slower hardware).  Leave
        # ``None`` in production.
        self.engine_wrapper = None
        self.plane = RequestPlane(
            server.telemetry, server.policy.max_batch, self._lock,
            self._live,
        )
        # Optional device-health ledger (set by
        # ``server.enable_observability``): every ``hardware_status``
        # sample is recorded into it.  ``None`` costs nothing.
        self.ledger = None
        # Margin floor for the heal ladder: a replica whose canary
        # signal ratio (vs its pristine baseline) falls below this
        # enters the ladder *before* any prediction flips.  0.0 =
        # observe-only (margins are still measured and exported, but
        # never trigger repairs).
        self.min_signal_ratio = 0.0
        self.max_current_shift = float("inf")

    @property
    def max_current_shift(self) -> float:
        """Current-shift ceiling for the heal ladder: a replica whose
        canary wordline currents moved (mean relative shift from its
        baseline) by more than this enters the ladder with every
        prediction intact — FeBiM decisions are robust, so stuck
        columns and drift show in the analog read long before they flip
        a decision.  Off (infinite) by default."""
        return self._max_current_shift

    @max_current_shift.setter
    def max_current_shift(self, value: float) -> None:
        if value < 0:
            raise ValueError("max_current_shift must be >= 0")
        self._max_current_shift = float(value)

    @property
    def tracer(self):
        """Optional request tracer (set by
        ``server.enable_observability``); see :class:`RequestPlane`."""
        return self.plane.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self.plane.tracer = tracer

    # --------------------------------------------------------------- lookup
    def serving(self, name: str, version: Optional[int] = None):
        """The deployment that serves ``name`` at ``version``.

        The applied deployment when its pinned version matches;
        otherwise the route's implicit one-replica ``cost`` deployment
        on the registry's backend, built (programmed and probed) on
        first use and kept per ``(name, version)``.  ``version=None``
        follows the latest registered version.  Once the registry
        invalidates the model (a re-register, an unregister) or the
        sweep evicts the replica, the next request rebuilds the route —
        same stream seed, same canaries — and drains the model's stale
        implicit deployments.  At most ``registry.engine_cache_size``
        implicit deployments live at once: a build beyond that drains
        and shuts the least recently served one, which rebuilds the
        same way on its next request.  Raises ``KeyError`` for an
        unknown model and :class:`SchedulerClosed` after :meth:`close`.
        """
        dep = self.deployment_for(name, version)
        if dep is not None:
            return dep
        registry = self.server.registry
        version = registry.resolve_version(name, version)
        dep = self._implicit.get((name, version))
        if dep is None or not self._current(dep):
            dep = self._build_implicit(name, version)
        if dep.implicit:
            dep.served_at = next(self._served)
        return dep

    def _build_implicit(self, name: str, version: int):
        """Build, publish and return the route's implicit deployment
        (or the applied one, when an ``apply`` races the build)."""
        registry = self.server.registry
        with self._build_lock:
            dep = self._implicit.get((name, version))
            if dep is not None and self._current(dep):
                return dep
            if self._closed:
                raise SchedulerClosed("router is shut down")
            generation = registry.generation(name)
            dep = self._build(
                single_replica_deployment(name, registry.backend, version=version),
                version,
                implicit=True,
                canaries=self._installed.get((name, version)),
            )
            dep.generation = generation
            dep.served_at = next(self._served)
            with self._lock:
                stale = self._pop_stale(name)
                applied = self._deployments.get(name)
                if applied is not None and applied.version == version:
                    # apply() won the race and serves this version now.
                    stale.append(dep)
                    dep = applied
                else:
                    self._implicit[(name, version)] = dep
                    stale += self._pop_least_served()
        for gone in stale:
            self._shutdown_deployment(gone)
        return dep

    def _current(self, dep: _AppliedDeployment) -> bool:
        """Whether an implicit deployment may keep serving its route:
        built at the registry's current generation of the model, with a
        replica the sweep has not evicted."""
        return dep.generation == self.server.registry.generation(
            dep.name
        ) and any(r.state != EVICTED for r in dep.replicas)

    def _pop_stale(self, name: Optional[str] = None) -> List[_AppliedDeployment]:
        """Unlink the implicit deployments (of ``name``, or every
        model's) that are no longer :meth:`_current`; the caller holds
        the lock and drain-shuts them after releasing it."""
        keys = [
            key for key, dep in self._implicit.items()
            if (name is None or key[0] == name) and not self._current(dep)
        ]
        return [self._implicit.pop(key) for key in keys]

    def _pop_least_served(self) -> List[_AppliedDeployment]:
        """Unlink the least recently served implicit deployments beyond
        ``registry.engine_cache_size``; the caller holds the lock and
        drain-shuts them after releasing it."""
        keys = sorted(self._implicit, key=lambda k: self._implicit[k].served_at)
        excess = len(keys) - self.server.registry.engine_cache_size
        return [self._implicit.pop(key) for key in keys[:max(excess, 0)]]

    def deployments(self) -> Dict[str, Deployment]:
        """Applied specs by model name."""
        with self._lock:
            return {name: dep.spec for name, dep in self._deployments.items()}

    def deployment_for(self, name: str, version: Optional[int] = None):
        """The applied deployment serving ``name`` at ``version``.

        ``None`` when the model is undeployed *or* the caller pinned a
        version other than the one the deployment resolved at apply
        time (such pins are served by an implicit deployment).
        """
        with self._lock:
            dep = self._deployments.get(name)
        if dep is None or (version is not None and int(version) != dep.version):
            return None
        return dep

    def _deployment(self, name: str, version: Optional[int] = None):
        """The deployment serving ``name`` — applied, or implicit and
        already built (a control call never builds one)."""
        dep = self.deployment_for(name, version) or self._implicit.get(
            (name, self.server.registry.resolve_version(name, version))
        )
        if dep is None:
            raise KeyError(
                f"no deployment for model {name!r}"
                + ("" if version is None else f" at version {version}")
            )
        return dep

    def _live(self, dep) -> Optional[_AppliedDeployment]:
        """Where rows routed under ``dep`` fail over: the model's
        applied deployment — for an implicit deployment, one at its own
        version, else the route's rebuilt implicit deployment."""
        if not dep.implicit:
            return self.deployment_for(dep.name)
        return self.deployment_for(dep.name, dep.version) or self._implicit.get(
            (dep.name, dep.version)
        )

    def _all(self) -> List[_AppliedDeployment]:
        with self._lock:
            return list(self._deployments.values()) + list(
                self._implicit.values()
            )

    # ------------------------------------------------------------ deployment
    def apply(self, deployment: Deployment) -> _AppliedDeployment:
        """Validate, program and install a deployment (replacing any
        previous deployment of the same model).

        Every replica is placed, materialised and probed for its unit
        cost and canary baseline *before* the deployment goes live — a
        spec that cannot serve fails here, not mid-traffic.  The
        resolved model version is pinned: re-apply to roll a deployment
        forward after registering a new version.

        The deployment supersedes its route's implicit deployment, if
        one was built: that one drains and shuts down.
        """
        deployment.validate()
        version = self.server.registry.resolve_version(
            deployment.model, deployment.version
        )
        applied = self._build(deployment, version)
        with self._lock:
            previous = self._deployments.get(deployment.model)
            self._deployments[deployment.model] = applied
            superseded = self._implicit.pop((deployment.model, version), None)
        for old in (previous, superseded):
            if old is not None:
                self._shutdown_deployment(old)
        return applied

    def _build(
        self,
        deployment: Deployment,
        version: int,
        implicit: bool = False,
        canaries: Optional[np.ndarray] = None,
    ) -> _AppliedDeployment:
        """Place, program and probe every replica of ``deployment`` (on
        the default canary set unless ``canaries`` is given).  Raises
        ``KeyError`` for an unregistered version."""
        default = self._canary_levels(deployment, version)
        canaries = default if canaries is None else canaries
        replicas: List[_Replica] = []
        for index, spec in enumerate(deployment.replicas):
            key = (
                RouteKey(deployment.model, version) if implicit
                else ReplicaKey(deployment.model, version, index)
            )
            replica = _Replica(index, spec, key)
            try:
                self._probe(deployment, version, replica, canaries)
            except Exception as exc:
                for built in replicas + [replica]:
                    if built.host is not None:
                        built.host.retire(drain=False)
                raise DeploymentError(
                    f"replica {index} ({spec.backend}) failed to "
                    f"materialise for {deployment.model!r} v{version}: {exc}"
                ) from exc
            replicas.append(replica)
        return _AppliedDeployment(
            deployment, version, replicas, canaries, implicit
        )

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
            replica.host.retire(drain=True, timeout=timeout)

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

    def _probe(
        self,
        deployment: Deployment,
        version: int,
        replica: _Replica,
        canaries: np.ndarray,
    ) -> None:
        """Host, materialise and canary-probe one replica (unit cost,
        baseline).

        The host is placed on a worker when the router has a pool, and
        lives in process otherwise (each materialised engine wrapped by
        :attr:`engine_wrapper`, read at materialisation time); its
        scheduler is bounded when the spec carries an SLO.  Shared by
        :meth:`apply` and :meth:`add_replica`; raises the placement,
        materialisation or probe error for the caller to wrap
        (``replica.host`` is set once a host exists, for it to retire).
        """
        slo = deployment.slo
        depth = None if slo is None else slo.max_queue_depth
        if self.pool is not None:
            replica.host = self.pool.host(deployment, version, replica, depth)
        else:
            def wrap(engine):
                wrapper = self.engine_wrapper
                return engine if wrapper is None else wrapper(engine, replica)

            replica.host = ReplicaHost(
                self.server, deployment.model, version, replica.index,
                replica.spec, replica.key, depth, wrap,
            )
        read = replica.host.place(canaries)
        replica.wear.add_cycles(1)  # one programming pass
        self._baseline(replica, read)
        replica.unit_delay = read.delay

    @staticmethod
    def _baseline(replica: _Replica, read: CanaryRead) -> None:
        """Make a canary read the replica's pristine baseline: the
        predictions and currents every later sweep is scored against,
        and the margin probe's reference."""
        replica.baseline = read.predictions
        replica.currents = read.currents
        replica.probe = MarginProbe(read.currents)
        replica.margin_reading = replica.probe.observe(read.currents)

    def install_canaries(
        self, name: str, levels: np.ndarray, version: Optional[int] = None
    ) -> int:
        """Make ``levels`` the canary set of the deployment serving
        ``name`` (built if it is an implicit one not yet served).

        Every replica not evicted re-baselines on the set — predictions,
        currents and margin probe, not its unit delay — from one canary
        read under its queue's quiesce, so install while the arrays are
        known good; replicas added later baseline on it too.  All or
        nothing: when a replica cannot be read (killed, or its queue
        does not quiesce in time) the install raises and nothing
        changes — heal the replica first.  Returns the served version.
        """
        levels = np.array(levels, dtype=int)  # a private copy
        if levels.ndim != 2 or levels.shape[0] == 0:
            raise ValueError(
                f"canary levels must be a non-empty (n, features) matrix, "
                f"got shape {levels.shape}"
            )
        dep = self.serving(name, version)
        with self._heal_lock:
            replicas = [r for r in dep.replicas if r.state != EVICTED]
            reads = []
            for replica in replicas:
                try:
                    reads.append(replica.host.read(levels))
                except Exception as exc:
                    raise DeploymentError(
                        f"cannot install canaries on {dep.route}: replica "
                        f"{replica.label} could not be read ({exc})"
                    ) from exc
            for replica, read in zip(replicas, reads):
                self._baseline(replica, read)
            dep.canaries = levels
            if dep.implicit:
                self._installed[(dep.name, dep.version)] = levels
        return dep.version

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
    ) -> ReplicaStatus:
        """Grow ``name``'s deployment by one replica at runtime.

        The autoscaler's scale-up primitive: the spec passes the same
        static validation as one written in the deployment, the engine
        is materialised and canary-probed *before* the replica joins
        the routing set, and an optional ``wear`` ledger (e.g. a
        :class:`~repro.serving.autoscale.HardwareSlot`'s) seeds the
        replica's lifetime accounting.  Returns the new replica's
        status.  Indices are never reused.
        """
        dep = self._deployment(name)
        with self._lock:
            index = dep.next_index
            dep.next_index += 1
        validate_replica_spec(spec, index, dep.spec.policy.min_agreement)
        key = ReplicaKey(dep.name, dep.version, index)
        replica = _Replica(index, spec, key, wear=wear)
        # Under the heal lock: a canary install must not re-baseline the
        # deployment between this probe and the replica joining it.
        with self._heal_lock:
            try:
                self._probe(dep.spec, dep.version, replica, dep.canaries)
            except Exception as exc:
                if replica.host is not None:
                    replica.host.retire(drain=False)
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
        dep = self._deployment(name)
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
        replica.host.retire(drain=True, timeout=timeout)
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
        for dep in self._all():
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
            replica.host.retire(drain=True)
        return [self._status_of(r) for r in finalised]

    # ----------------------------------------------------------------- health
    def _status_of(self, replica: _Replica) -> ReplicaStatus:
        return ReplicaStatus(
            replica=replica.label,
            backend=replica.spec.backend,
            state=replica.state,
            weight=replica.spec.weight,
            unit_delay_s=replica.unit_delay,
            pending=replica.pending,
            index=replica.index,
            wear_fraction=replica.wear.fraction_used,
        )

    def status(self, name: str) -> List[ReplicaStatus]:
        """Live per-replica view of one deployment."""
        dep = self._deployment(name)
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
        dep = self._deployment(name)
        replica = self._replica_by_index(dep, index)
        replica.killed = True
        replica.recoverable = bool(recoverable)
        replica.host.kill()

    def check_replica(self, name: str, index: int) -> HealthReport:
        """One canary sweep over a replica, healing up the full ladder.

        The replica fails the sweep on canary disagreement below the
        policy's ``min_agreement``, on a current shift above
        :attr:`max_current_shift`, or on a signal ratio below
        :attr:`min_signal_ratio` (the last two fire with every
        prediction still intact: a ``drift_alarm`` or ``margin_warning``
        flight event marks that early-warning entry).  A failed sweep
        emits ``canary_failure`` and climbs the rungs: **refresh**
        (reprogram in place — clears drift, cannot fix stuck hardware),
        **spare repair** (remap BIST-flagged rows onto manufactured
        spares, when the backend has any), **replace** (program a new
        engine on fresh hardware, same stream seed),
        **evict** (remove the replica from routing permanently; the
        deployment keeps serving on the survivors).  A deployment's last
        serviceable replica is never evicted once a replace has given it
        a live engine.  Every read and reprogram runs under the
        replica's scheduler quiesce, wherever the replica lives, so live
        traffic never reads a half-reprogrammed array; a queue that does
        not quiesce in time raises ``TimeoutError`` (busy is not
        broken).  A worker-hosted replica between workers gets a
        ``wait`` report and no rung: the worker pool re-places it.
        """
        return self._check(self._deployment(name), index)

    def _check(self, dep: _AppliedDeployment, index: int) -> HealthReport:
        with self._heal_lock:
            replica = self._replica_by_index(dep, index)
            if replica.state == EVICTED:
                return HealthReport(
                    replica.label, EVICTED, 0.0, action="evict", healed=False
                )
            if replica.state == DRAINING:
                # A draining replica is already leaving: running the
                # heal ladder on it would waste repairs — or worse, flip
                # it back to HEALTHY and resurrect a retirement in
                # progress.
                return HealthReport(
                    replica.label, DRAINING, 1.0, action="ok", healed=True
                )
            if replica.state != UNPLACED:
                try:
                    return self._ladder(dep, replica, replica.host)
                except WorkerLost:
                    pass
            # Between workers: the pool re-places the replica, and no
            # rung runs on it.
            return HealthReport(
                replica.label, replica.state, float("nan"), action="wait",
                healed=False,
            )

    def _ladder(
        self, dep: _AppliedDeployment, replica: _Replica, host
    ) -> HealthReport:
        telemetry = self.server.telemetry
        canaries = dep.canaries
        min_agreement = dep.spec.policy.min_agreement

        def score(read: CanaryRead):
            """A canary read as ``(failed, accuracy, shift)``, with the
            replica's margin reading refreshed."""
            failed = int(np.count_nonzero(read.predictions != replica.baseline))
            accuracy = 1.0 - failed / len(canaries)
            reference = replica.currents
            shift = float(np.mean(
                np.abs(read.currents - reference)
                / np.maximum(np.abs(reference), 1e-30)
            ))
            replica.margin_reading = replica.probe.observe(read.currents)
            return failed, accuracy, shift

        def healthy(accuracy: float, shift: float) -> bool:
            # ``not (ratio < floor)``: a NaN ratio (degenerate geometry,
            # no runner-up class) never fails the margin channel.
            return (
                accuracy >= min_agreement
                and shift <= self.max_current_shift
                and not (replica.margin_reading.signal_ratio
                         < self.min_signal_ratio)
            )

        def attempt(call, failed):
            """``call()``, or ``failed`` when a host call in it raised —
            unless the host's worker was lost, which ends the pass, or
            its queue did not quiesce in time (busy is not broken)."""
            try:
                return call()
            except (WorkerLost, TimeoutError):
                raise
            except Exception:  # noqa: BLE001 — a dead replica answers nothing
                return failed

        def heals(step=None) -> bool:
            """Whether the replica reads clean canaries after ``step``
            (a host call returning a read; ``None``: a fresh read)."""
            return attempt(lambda: healthy(*score(
                host.read(canaries) if step is None else step()
            )[1:]), False)

        found = attempt(lambda: score(host.read(canaries)), None)
        if found is None:
            failed, accuracy, passed = len(canaries), 0.0, False
            shift = ratio = margin = float("nan")
        else:
            failed, accuracy, shift = found
            ratio = replica.margin_reading.signal_ratio
            margin = replica.margin_reading.margin_p50
            passed = healthy(accuracy, shift)
        telemetry.record_health_check(failed)
        found = dict(
            accuracy=accuracy, current_shift=shift,
            signal_ratio=ratio, margin=margin,
        )
        label = replica.label
        if accuracy >= min_agreement:
            if ratio < self.min_signal_ratio:
                telemetry.emit(
                    "margin_warning", model=dep.name, replica=label,
                    signal_ratio=ratio, margin_p50=margin,
                )
            if shift > self.max_current_shift:
                telemetry.emit(
                    "drift_alarm", model=dep.name, replica=label, shift=shift,
                    signal_ratio=_or_none(ratio),
                )
        if passed:
            with self._lock:
                if replica.state == DOWN:
                    replica.state = HEALTHY
            return HealthReport(
                label, replica.state, action="ok", healed=True, **found
            )
        telemetry.emit(
            "canary_failure", model=dep.name, replica=label, failed=failed,
            accuracy=accuracy, shift=_or_none(shift),
            signal_ratio=_or_none(ratio), margin_p50=_or_none(margin),
        )

        def refresh():
            host.program()
            replica.wear.add_cycles(1)
            telemetry.record_refresh()
            telemetry.emit("refresh", model=dep.name, replica=label)
            return host.read(canaries)

        placed = []

        def replace():
            # An unrecoverably killed replica has no slot to put fresh
            # hardware into; it falls through to eviction.
            if replica.killed and not replica.recoverable:
                raise KilledReplicaError(f"replica {label} is unrecoverable")
            replica.killed = False
            read = host.place(canaries)
            placed.append(read)
            replica.wear.add_cycles(1)
            telemetry.record_replacement()
            telemetry.emit("replace", model=dep.name, replica=label)
            return read

        # Rung 1: refresh — reprogram in place.
        action = "refresh"
        healed = heals(refresh)
        # Rung 2: spare repair — remap BIST-flagged rows onto spares;
        # skipped silently when no array has free spares, the scan is
        # clean or the replica is dead.
        if not healed:
            repaired = attempt(host.repair, [])
            for rows, spares_free in repaired:
                telemetry.emit(
                    "spare_repair", model=dep.name, replica=label,
                    rows=rows, spares_free=spares_free,
                )
            if repaired:
                action = "spare_repair"
                healed = heals()
        if not healed:
            # Rung 3: replace — fresh hardware, same stream seed.
            action = "replace"
            healed = heals(replace)
            last = not any(
                r is not replica and r.state in (HEALTHY, DOWN)
                for r in dep.replicas
            )
            if not healed and not (placed and last):
                # Rung 4: evict — out of the routing set for good.
                with self._lock:
                    evicted = replica.host is host and replica.state in (
                        HEALTHY, DOWN,
                    )
                    if evicted:
                        replica.state = EVICTED
                if not evicted:
                    raise WorkerLost(f"replica {label} left its host")
                replica.killed = True
                try:
                    host.kill()
                except WorkerLost:
                    pass  # the pool leaves an evicted replica where it fell
                telemetry.record_replica_eviction()
                telemetry.emit(
                    "evict", model=dep.name, replica=label, accuracy=accuracy,
                )
                return HealthReport(
                    label, EVICTED, action="evict", healed=False, **found
                )
        with self._lock:
            if replica.host is host and replica.state in (HEALTHY, DOWN):
                replica.state = HEALTHY
        return HealthReport(
            label, HEALTHY, action=action, healed=healed, **found
        )

    def check_all(self) -> List[HealthReport]:
        """Heal-ladder sweep over every replica of every deployment,
        implicit ones included.

        With a worker pool, its supervision sweep runs first (worker
        liveness, respawn, re-placement).  Gradual drains advance next:
        a draining replica steps one client cohort per sweep, and one
        that finalises here is gone before the ladder below would have
        probed it.  Stale implicit deployments (see :meth:`serving`)
        drain and shut next.
        """
        if self.pool is not None:
            self.pool.check()
        self.advance_drains()
        with self._lock:
            stale = self._pop_stale()
        for dep in stale:
            self._shutdown_deployment(dep)
        reports = []
        for dep in self._all():
            for replica in list(dep.replicas):
                try:
                    reports.append(self._check(dep, replica.index))
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
        try:
            spares, faults = replica.host.inventory()
        except Exception:  # noqa: BLE001 — a dead or unplaced replica
            spares = faults = None
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
        dep = self._deployment(name)
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
        hosts = [r.host for d in self._all() for r in d.replicas]
        ok = True
        for _ in range(2):
            for host in hosts:
                remaining = (
                    None
                    if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                ok = host.drain(remaining) and ok
        return ok

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut every replica host down, then the worker pool, if any;
        idempotent.

        No implicit deployment is built afterwards.  A graceful close
        drains every queue *before* any scheduler shuts, so a failover
        from a late-draining replica cannot land on an already-closed
        sibling.
        """
        with self._build_lock:
            self._closed = True
        if drain:
            self.drain(timeout)
        for dep in self._all():
            for replica in dep.replicas:
                replica.host.retire(drain=drain, timeout=timeout)
        if self.pool is not None:
            self.pool.close(timeout)

    def __repr__(self) -> str:
        with self._lock:
            total = sum(len(d.replicas) for d in self._deployments.values())
            return (
                f"Router({len(self._deployments)} deployments, "
                f"{total} replicas)"
            )
