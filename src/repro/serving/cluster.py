"""Cluster front end: supervised worker processes behind one serving API.

``placement: process`` hosting.  A :class:`ClusterServer` owns no
engines — it spawns worker subprocesses (:mod:`repro.serving.worker`),
each a full in-process serving stack hosting a slice of every
deployment's replicas, and keeps for itself exactly the two things
that must be global: **routing** and **supervision**.

Routing runs the same pure policy core (:mod:`repro.serving.policy`)
the in-process :class:`~repro.serving.router.Router` runs, over
replica *handles* instead of live replicas — so ``local`` and
``process`` placement make identical decisions.  Replica indices are
cluster-global and minted by the front end: a worker applies its slice
with explicit indices, pinning the per-replica stream seeds, so the
engines a worker materialises are bit-identical to the ones a
single-process deployment would have built.  Requests travel in
blocks: ``submit_many`` sends one ``request`` frame per ``max_batch``
chunk of rows (one pick each; ``submit`` is the one-row chunk), and
each frame comes back as one columnar ``result`` frame that the front
end accounts once.

Supervision is the worker-level heal ladder, run on the
:class:`~repro.serving.server.MaintenanceThread` cadence exactly like
replica health:

* **rung 1 — wait**: a worker is alive while heartbeats arrive; every
  sweep records a ``worker_heartbeat`` event with the age of the last
  one.
* **rung 2 — replace**: a dead connection or a heartbeat older than
  ``lost_after_s`` marks the worker lost (``worker_lost``): its
  in-flight chunks fail over whole to surviving workers immediately
  (recorded ``failover`` events, zero client-visible errors while any
  survivor can serve), its replicas are re-placed onto survivors with
  their *original indices* (same stream seed — the cluster analogue of
  the replace rung's "fresh hardware, same stream", recorded as
  ``replace`` events), and a fresh process is respawned under the same
  worker id (``worker_respawn``).
* **rung 3 — evict**: a worker that burned through ``max_respawns``
  stays down for good; its capacity remains on the survivors.

Shutdown is graceful: drain messages wait out every worker's queues
before ``shutdown`` frames and process joins.

Worker observability is merged, not lost: every event a worker's
telemetry emits arrives as an ``event`` frame and is replayed into the
front end's recorder tagged ``worker=<id>``, so ``febim events`` and
the metrics exporter see the whole cluster.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serving import policy as routing_policy
from repro.serving.deployment import (
    Deployment,
    DeploymentError,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.observability.events import EVENT_KINDS
from repro.serving.policy import DOWN, DRAINING, HEALTHY, RETIRED
from repro.serving.registry import ModelRegistry
from repro.serving.router import MirroredResult, ReplicaStatus
from repro.serving.scheduler import BatchPolicy, Overloaded
from repro.serving.server import MaintenanceThread
from repro.serving.telemetry import Telemetry, TelemetrySnapshot
from repro.serving.transport.protocol import (
    MessageConnection,
    ProtocolError,
    decode_block,
    decode_error,
    encode_frame,
    make,
)
from repro.serving.worker import worker_main

#: Replica-handle bookkeeping states private to the front end (a
#: replica between owners).  Deliberately outside the policy core's
#: taxonomy: ``serviceable`` never routes to them, ``measure_pressure``
#: never counts them.
UNPLACED = "unplaced"
PLACING = "placing"

#: Heartbeats older than this many periods mean the worker is lost.
LOST_AFTER_PERIODS = 4


class WorkerLost(RuntimeError):
    """A request or control call could not complete: its worker died."""


class _Pending:
    """One in-flight frame awaiting its reply.

    ``on_result(message)`` / ``on_error(exc)`` carry all the
    continuation logic — request failover, mirror vote recording, and
    control-call futures all reduce to this one shape, so the reader
    loop and the worker-loss sweep resolve every kind identically.
    """

    __slots__ = ("on_result", "on_error", "worker_id", "replica")

    def __init__(self, on_result, on_error, worker_id, replica=None):
        self.on_result = on_result
        self.on_error = on_error
        self.worker_id = worker_id
        self.replica = replica


class _Chunk:
    """Rows routed together: one ``request`` frame's worth.

    Holds the rows' wire levels and client futures and the routing hop
    they are on — the replica they were sent to, every replica they
    have tried (``attempted``), the ``(replica, worker)`` pairs that
    failed them (``failed_chain``, marked down once another replica
    serves the rows) and their priority lane.  A chunk is never
    mutated: a failover sends the rows that failed on as a new chunk
    one hop further on.
    """

    __slots__ = ("dep", "replica", "levels", "futures", "attempted",
                 "failed_chain", "priority", "t0")

    def __init__(self, dep, replica, levels, futures, attempted,
                 failed_chain, priority, t0):
        self.dep = dep
        self.replica = replica
        self.levels = levels
        self.futures = futures
        self.attempted = attempted
        self.failed_chain = failed_chain
        self.priority = priority
        self.t0 = t0


class _WorkerHandle:
    """Front-end view of one worker process."""

    def __init__(self, worker_id: str, process):
        self.worker_id = worker_id
        self.process = process
        self.conn: Optional[MessageConnection] = None
        self.state = "starting"  # starting | up | lost | evicted | stopped
        self.last_heartbeat: Optional[float] = None
        self.respawns = 0
        self.models: set = set()  # deployments this worker hosts a slice of
        self.hello = threading.Event()

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid


class _ReplicaHandle:
    """Front-end view of one replica, wherever it currently lives.

    Duck-types the policy core's candidate surface (``index`` /
    ``state`` / ``unit_delay`` / ``weight`` / ``pending``) so
    arbitration code is shared verbatim with the in-process router.
    ``pending`` counts *front-end* in-flight rows — the quantity the
    cost policy needs, maintained without a round trip.
    """

    def __init__(self, model: str, index: int, spec: ReplicaSpec,
                 worker_id: str, label: str, unit_delay: float):
        self.model = model
        self.index = index
        self.spec = spec
        self.worker_id = worker_id
        self.label = label
        self.state = HEALTHY
        self.unit_delay = unit_delay
        self.pending = 0
        self.drain_step = 0
        self.drain_steps = 0

    @property
    def weight(self) -> float:
        return self.spec.weight


class _ClusterDeployment:
    """One applied deployment's cluster-wide routing view."""

    def __init__(self, spec: Deployment, version: int,
                 replicas: List[_ReplicaHandle]):
        self.spec = spec
        self.version = version
        self.replicas = replicas
        self.rr_counter = itertools.count()
        self.next_index = (
            max(r.index for r in replicas) + 1 if replicas else 0
        )

    @property
    def name(self) -> str:
        return self.spec.model

    @property
    def route(self) -> str:
        return f"{self.name}@v{self.version}"


class _NullMonitor:
    """No single-engine canaries on the front end (workers own the
    engines); satisfies the MaintenanceThread monitor surface."""

    def installed(self):
        return []

    def check(self, name, version):  # pragma: no cover — installed() is empty
        raise KeyError(name)


class _ClusterRouterAdapter:
    """The router-shaped facade supervision and autoscale drive.

    :class:`~repro.serving.autoscale.AutoscaleController` and
    :class:`MaintenanceThread` only ever touch ``deployment_for`` /
    ``status`` / ``add_replica`` / ``retire_replica`` / ``check_all``
    — this adapter maps each onto the cluster, so both reuse the
    single-process control loops unchanged.
    """

    def __init__(self, cluster: "ClusterServer"):
        self._cluster = cluster

    def deployment_for(self, name: str, version=None):
        return self._cluster.deployment_for(name, version)

    def status(self, name: str) -> List[ReplicaStatus]:
        return self._cluster.status(name)

    def add_replica(self, name: str, spec: ReplicaSpec,
                    wear=None, index=None) -> ReplicaStatus:
        return self._cluster.add_replica(name, spec, index=index)

    def retire_replica(self, name: str, index: int,
                       timeout=None, drain_steps: int = 1) -> ReplicaStatus:
        return self._cluster.retire_replica(name, index, timeout=timeout)

    def deployments(self) -> Dict[str, Deployment]:
        return self._cluster.deployments()

    def check_all(self):
        """The supervision sweep, riding the maintenance slot replica
        health uses in-process."""
        return self._cluster.check_workers()


class ClusterServer:
    """Multi-process serving front end (``placement: process``).

    Parameters mirror :class:`~repro.serving.server.FeBiMServer` where
    they overlap — ``registry`` (a path or :class:`ModelRegistry`;
    workers re-open the same root), ``policy`` (micro-batch bounds,
    applied inside each worker), ``seed`` / ``max_rows`` (engine
    materialisation, identical to local placement) — plus the
    cluster-only knobs:

    heartbeat_period_s:
        Worker liveness cadence; a worker is lost after
        ``LOST_AFTER_PERIODS`` silent periods.
    maintenance_period_s:
        Supervision sweep cadence (``None`` disables the background
        thread — call :meth:`check_workers` manually, e.g. in tests).
    max_respawns:
        Respawn budget per worker id before the evict rung.
    spawn_timeout_s:
        Bound on worker start-up and on blocking control calls.

    Use as a context manager for guaranteed worker teardown::

        with ClusterServer(root, seed=0) as cluster:
            cluster.deploy(dep)           # dep.placement.kind == "process"
            cluster.predict("iris", levels)
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str],
        policy: Optional[BatchPolicy] = None,
        seed: Optional[int] = None,
        max_rows: Optional[int] = None,
        heartbeat_period_s: float = 0.25,
        maintenance_period_s: Optional[float] = 0.25,
        max_respawns: int = 2,
        spawn_timeout_s: float = 60.0,
    ):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.seed = seed
        self.max_rows = max_rows
        self.heartbeat_period_s = float(heartbeat_period_s)
        self.lost_after_s = LOST_AFTER_PERIODS * self.heartbeat_period_s
        self.max_respawns = int(max_respawns)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.telemetry = Telemetry(self.policy.max_batch)
        self.observability = None
        self.maintenance: Optional[MaintenanceThread] = None
        self.router = _ClusterRouterAdapter(self)
        self._autoscalers: Dict[str, object] = {}
        self._lock = threading.RLock()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._deployments: Dict[str, _ClusterDeployment] = {}
        self._pending: Dict[str, _Pending] = {}
        self._ids = itertools.count()
        self._closed = False
        self._ctx = multiprocessing.get_context("spawn")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self._address = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()
        if maintenance_period_s is not None:
            self.enable_maintenance(maintenance_period_s)

    # ----------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed — shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._greet, args=(MessageConnection(sock),),
                daemon=True,
            ).start()

    def _greet(self, conn: MessageConnection) -> None:
        """Match an inbound connection to its worker via the hello frame."""
        try:
            hello = conn.recv()
        except (ProtocolError, OSError):
            conn.close()
            return
        if hello is None or hello.get("kind") != "hello":
            conn.close()
            return
        worker_id = hello.get("worker")
        with self._lock:
            handle = self._workers.get(worker_id)
            if handle is None or handle.state != "starting":
                conn.close()  # unknown or duplicate hello
                return
            handle.conn = conn
            handle.state = "up"
            handle.last_heartbeat = time.monotonic()
            respawned = handle.respawns > 0
        threading.Thread(
            target=self._reader_loop, args=(handle, conn),
            name=f"cluster-reader-{worker_id}", daemon=True,
        ).start()
        if respawned:
            self.telemetry.record_worker_respawn()
            self.telemetry.emit(
                "worker_respawn", worker=worker_id, pid=hello.get("pid"),
                respawns=handle.respawns,
            )
        else:
            self.telemetry.record_worker_started()
            self.telemetry.emit(
                "worker_start", worker=worker_id, pid=hello.get("pid"),
            )
        handle.hello.set()

    def _reader_loop(self, handle: _WorkerHandle,
                     conn: MessageConnection) -> None:
        while True:
            try:
                message = conn.recv()
            except (ProtocolError, OSError):
                message = None
            if message is None:
                # Only the handle's *current* connection reports the
                # loss — a respawn has already replaced a stale one.
                if handle.conn is conn:
                    self._on_worker_lost(handle, "connection closed")
                return
            try:
                self._on_message(handle, message)
            except Exception:  # noqa: BLE001 — the reader must survive
                pass

    def _on_message(self, handle: _WorkerHandle, message: dict) -> None:
        kind = message["kind"]
        if kind == "heartbeat":
            handle.last_heartbeat = time.monotonic()
            self._fold_heartbeat(message)
            return
        if kind == "event":
            event_kind = message.get("event_kind")
            if event_kind in EVENT_KINDS:
                detail = {
                    str(k): v
                    for k, v in (message.get("detail") or {}).items()
                    if k != "worker"
                }
                self.telemetry.emit(
                    event_kind, worker=message.get("worker"), **detail
                )
            return
        entry = None
        request_id = message.get("id")
        if request_id is not None:
            with self._lock:
                entry = self._pending.pop(request_id, None)
        if entry is None:
            return  # reply raced a worker-loss resolution; already handled
        if kind == "error":
            entry.on_error(decode_error(message.get("error", {})))
        else:
            entry.on_result(message)

    def _fold_heartbeat(self, message: dict) -> None:
        """Refresh per-replica unit delays from a worker's liveness frame.

        State stays front-end-owned: the front end marks down / retires
        / re-places; the worker reports cost so routing tracks real
        queue economics."""
        with self._lock:
            for view in message.get("replicas", ()):
                dep = self._deployments.get(view.get("model"))
                if dep is None:
                    continue
                for replica in dep.replicas:
                    if (
                        replica.index == view.get("index")
                        and replica.worker_id == message.get("worker")
                    ):
                        replica.unit_delay = float(
                            view.get("unit_delay_s", replica.unit_delay)
                        )

    # -------------------------------------------------------------- spawning
    def _worker_config(self) -> dict:
        return {
            "registry_root": str(self.registry.root),
            "backend": self.registry.backend,
            "backend_options": dict(self.registry.backend_options),
            "seed": self.seed,
            "max_rows": self.max_rows,
            "max_batch": self.policy.max_batch,
            "max_wait_ms": self.policy.max_wait_ms,
            "heartbeat_period_s": self.heartbeat_period_s,
        }

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.hello = threading.Event()
        handle.state = "starting"
        handle.conn = None
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self._address, self._worker_config()),
            name=f"febim-{handle.worker_id}",
            daemon=True,
        )
        handle.process.start()

    def _ensure_workers(self, count: int) -> List[_WorkerHandle]:
        """The first ``count`` workers, spawned and hello'd."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            handles = []
            for i in range(count):
                worker_id = f"w{i}"
                handle = self._workers.get(worker_id)
                if handle is None:
                    handle = _WorkerHandle(worker_id, None)
                    self._workers[worker_id] = handle
                    self._spawn(handle)
                handles.append(handle)
        deadline = time.monotonic() + self.spawn_timeout_s
        for handle in handles:
            if not handle.hello.wait(max(deadline - time.monotonic(), 0.0)):
                raise RuntimeError(
                    f"worker {handle.worker_id} did not connect within "
                    f"{self.spawn_timeout_s:g}s"
                )
        return handles

    def _up_workers(self) -> List[_WorkerHandle]:
        with self._lock:
            return [h for h in self._workers.values() if h.state == "up"]

    # --------------------------------------------------------- control calls
    def _call(self, handle: _WorkerHandle, kind: str,
              timeout: Optional[float] = None, **fields) -> dict:
        """One blocking acked control frame to a worker."""
        conn = handle.conn
        if handle.state != "up" or conn is None:
            raise WorkerLost(f"worker {handle.worker_id} is not up")
        call_id = f"c{next(self._ids)}"
        future: "Future[dict]" = Future()
        with self._lock:
            self._pending[call_id] = _Pending(
                future.set_result, future.set_exception, handle.worker_id
            )
        try:
            conn.send(make(kind, id=call_id, **fields))
        except Exception as exc:
            with self._lock:
                self._pending.pop(call_id, None)
            raise WorkerLost(
                f"worker {handle.worker_id} went away mid-call: {exc}"
            )
        return future.result(self.spawn_timeout_s if timeout is None
                             else timeout)

    # ------------------------------------------------------------ deployment
    def deploy(self, deployment: Deployment) -> _ClusterDeployment:
        """Apply a ``placement: process`` deployment across the workers.

        Spawns (or reuses) ``placement.workers`` worker processes,
        partitions the replica indices round-robin across them, and
        sends each worker its slice with explicit cluster-wide indices
        — the workers materialise exactly the engines a local apply
        would have, validated and probed before the deployment goes
        live.  A deployment carrying an ``slo`` gets a cluster-wide
        autoscale controller, exactly like the in-process server.
        """
        deployment.validate()
        placement = deployment.placement
        if placement is None or placement.kind != "process":
            raise DeploymentError(
                "ClusterServer hosts 'process' placements; use FeBiMServer "
                "(or serve_deployment) for local ones"
            )
        version = self.registry.resolve_version(
            deployment.model, deployment.version
        )
        workers = self._ensure_workers(placement.workers)
        slices: Dict[str, List[Tuple[int, ReplicaSpec]]] = {}
        for index, spec in enumerate(deployment.replicas):
            worker = workers[index % len(workers)]
            slices.setdefault(worker.worker_id, []).append((index, spec))
        specs_by_index = dict(enumerate(deployment.replicas))
        handles: List[_ReplicaHandle] = []
        for worker in workers:
            assigned = slices.get(worker.worker_id)
            if not assigned:
                continue
            indices = [index for index, _ in assigned]
            sub = self._sub_deployment(
                deployment, [spec for _, spec in assigned], version
            )
            reply = self._call(
                worker, "apply", deployment=sub.to_dict(), indices=indices
            )
            worker.models.add(deployment.model)
            for row in reply["replicas"]:
                index = int(row["index"])
                handles.append(_ReplicaHandle(
                    model=deployment.model,
                    index=index,
                    spec=specs_by_index[index],
                    worker_id=worker.worker_id,
                    label=row["replica"],
                    unit_delay=float(row["unit_delay_s"]),
                ))
        handles.sort(key=lambda r: r.index)
        applied = _ClusterDeployment(deployment, version, handles)
        with self._lock:
            self._deployments[deployment.model] = applied
        self._autoscalers.pop(deployment.model, None)
        if deployment.slo is not None:
            self.enable_autoscale(deployment.model)
        return applied

    @staticmethod
    def _sub_deployment(deployment: Deployment, specs: List[ReplicaSpec],
                        version: int) -> Deployment:
        """A worker's slice of ``deployment``.

        The policy collapses to ``cost``: arbitration is the front
        end's job, a worker only executes index-addressed requests (and
        a one-replica slice of a mirror spec would not even validate).
        The ``slo`` rides along — admission bounds and priority lanes
        apply inside each worker's schedulers exactly as locally.
        """
        return Deployment(
            model=deployment.model,
            replicas=tuple(specs),
            policy=RoutingPolicy(),
            version=version,
            slo=deployment.slo,
            placement=None,
        )

    def deployment_for(self, name: str,
                       version=None) -> Optional[_ClusterDeployment]:
        with self._lock:
            dep = self._deployments.get(name)
        if dep is None:
            return None
        if version is not None and int(version) != dep.version:
            return None
        return dep

    def deployments(self) -> Dict[str, Deployment]:
        with self._lock:
            return {name: dep.spec for name, dep in self._deployments.items()}

    def status(self, name: str) -> List[ReplicaStatus]:
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        with self._lock:
            return [
                ReplicaStatus(
                    replica=r.label,
                    backend=r.spec.backend,
                    state=r.state,
                    weight=r.spec.weight,
                    unit_delay_s=r.unit_delay,
                    pending=r.pending,
                    index=r.index,
                )
                for r in dep.replicas
            ]

    # ------------------------------------------------------------ elasticity
    def add_replica(self, name: str, spec: ReplicaSpec,
                    index: Optional[int] = None) -> ReplicaStatus:
        """Grow ``name`` by one replica on the least-loaded worker."""
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        with self._lock:
            if index is None:
                index = dep.next_index
            dep.next_index = max(dep.next_index, index + 1)
            replica = _ReplicaHandle(
                model=name, index=index, spec=spec, worker_id="",
                label=f"{name}@v{dep.version}/r{index}[{spec.backend}]",
                unit_delay=float("inf"),
            )
            replica.state = UNPLACED
            dep.replicas.append(replica)
        placed = self._place(dep, replica)
        if not placed:
            with self._lock:
                dep.replicas.remove(replica)
            raise RuntimeError(
                f"no live worker could host a new replica of {name!r}"
            )
        return self.status(name)[-1]

    def retire_replica(self, name: str, index: int,
                       timeout: Optional[float] = None) -> ReplicaStatus:
        """Shrink ``name``: drain and remove one replica (via its worker)."""
        dep = self.deployment_for(name)
        if dep is None:
            raise KeyError(f"no deployment for model {name!r}")
        with self._lock:
            replica = next(
                (r for r in dep.replicas if r.index == index), None
            )
            if replica is None:
                raise KeyError(
                    f"deployment {name!r} has no replica with index {index}"
                )
            candidates = routing_policy.serviceable(dep.replicas)
            if replica in candidates and len(candidates) <= 1:
                raise DeploymentError(
                    f"refusing to retire the last serviceable replica of "
                    f"{name!r}"
                )
            replica.state = DRAINING
            worker = self._workers.get(replica.worker_id)
        if worker is not None and worker.state == "up":
            try:
                self._call(
                    worker, "retire_replica", timeout=timeout,
                    model=name, index=index,
                )
            except WorkerLost:
                pass  # the worker died mid-retire; the replica goes anyway
        with self._lock:
            replica.state = RETIRED
            if replica in dep.replicas:
                dep.replicas.remove(replica)
        return ReplicaStatus(
            replica=replica.label,
            backend=replica.spec.backend,
            state=RETIRED,
            weight=replica.spec.weight,
            unit_delay_s=replica.unit_delay,
            pending=replica.pending,
            index=replica.index,
        )

    def enable_autoscale(self, name: str, pool=None, **controller_kwargs):
        """Cluster-wide autoscaling: the stock controller over the
        router adapter — scale-ups place on the least-loaded worker,
        scale-downs retire through the owning worker."""
        from repro.serving.autoscale import AutoscaleController

        controller = AutoscaleController(
            self, name, pool=pool, **controller_kwargs
        )
        self._autoscalers[name] = controller
        return controller

    def autoscaler(self, name: str):
        return self._autoscalers.get(name)

    # --------------------------------------------------------------- routing
    def _candidates(self, dep: _ClusterDeployment) -> List[_ReplicaHandle]:
        candidates = routing_policy.serviceable(dep.replicas)
        if not candidates:
            raise RuntimeError(
                f"deployment {dep.name!r} v{dep.version} has no serviceable "
                f"replicas (all evicted)"
            )
        return candidates

    def _pick(self, dep: _ClusterDeployment,
              client: Optional[object]) -> _ReplicaHandle:
        candidates = self._candidates(dep)
        kind = dep.spec.policy.kind
        if kind == "sticky":
            draining = [r for r in dep.replicas if r.state == DRAINING]
            return routing_policy.pick_sticky(candidates, client, draining)
        return routing_policy.pick_replica(
            kind, candidates,
            rr_tick=next(dep.rr_counter) if kind == "round_robin" else 0,
        )

    # --------------------------------------------------------------- serving
    def _deployment(self, name: str, version) -> _ClusterDeployment:
        dep = self.deployment_for(name, version)
        if dep is None:
            raise KeyError(
                f"no process deployment for model {name!r}"
                + ("" if version is None else f" at version {version}")
            )
        return dep

    def submit(self, name: str, evidence_levels, version=None,
               client: Optional[object] = None) -> "Future":
        """Route one sample to a worker-hosted replica; returns a future.

        The same contract as the in-process path: internal replica and
        *worker* failures fail over transparently; the future errors
        only when every serviceable replica failed the request.  The
        one-row case of :meth:`submit_many`.
        """
        dep = self._deployment(name, version)
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 1:
            raise ValueError(
                f"submit takes one 1-D sample, got shape {levels.shape}"
            )
        if dep.spec.policy.kind == "mirror":
            return self._submit_mirror(dep, levels)
        return self._route(dep, levels[None, :], client)[0]

    def submit_many(self, name: str, evidence_levels, version=None,
                    client: Optional[object] = None) -> List["Future"]:
        """Route a stack of samples; one future per row.

        The rows go in chunks of the batch policy's ``max_batch``: each
        chunk gets one policy pick and travels as one ``request`` frame,
        answered by one ``result`` frame.  Mirror fan-out stays per row.
        """
        dep = self._deployment(name, version)
        levels = np.asarray(evidence_levels, dtype=int)
        if levels.ndim != 2:
            raise ValueError(
                f"submit_many takes (n, features) samples, got {levels.shape}"
            )
        if dep.spec.policy.kind == "mirror":
            return [self._submit_mirror(dep, row) for row in levels]
        step = self.policy.max_batch
        futures: List["Future"] = []
        for lo in range(0, len(levels), step):
            futures += self._route(dep, levels[lo:lo + step], client)
        return futures

    def predict(self, name: str, evidence_levels, version=None,
                timeout: Optional[float] = None,
                client: Optional[object] = None):
        return self.submit(
            name, evidence_levels, version=version, client=client
        ).result(timeout)

    def _route(self, dep: _ClusterDeployment, rows: np.ndarray,
               client: Optional[object]) -> List["Future"]:
        """Pick one replica for ``rows`` and send them as one chunk."""
        slo = dep.spec.slo
        priority = 0 if slo is None else slo.priority_for(
            None if client is None else str(client)
        )
        replica = self._pick(dep, client)
        futures = [Future() for _ in range(len(rows))]
        # Counted once here: a failover hop never counts a row again.
        self.telemetry.record_submitted(len(futures))
        self._attempt(_Chunk(
            dep, replica, rows.tolist(), futures, {replica}, (), priority,
            time.monotonic(),
        ))
        return futures

    def _send(self, replica: _ReplicaHandle, levels: list, priority: int,
              deliver) -> None:
        """Ship ``levels`` (one list per row) to ``replica`` as one
        ``request`` frame.

        ``deliver(outcomes, worker_id)`` then runs exactly once, with one
        outcome per row — a :class:`RemoteServedResult` or the row's
        exception — from the reply, an ``error`` frame, the worker's
        loss, or a worker that was not up.  Raises
        :class:`ProtocolError`, having sent and registered nothing, when
        the frame cannot be encoded (a block beyond ``MAX_FRAME``): that
        is the rows' fault, not the worker's.
        """
        n = len(levels)
        request_id = f"r{next(self._ids)}"
        frame = encode_frame(make(
            "request",
            id=request_id,
            model=replica.model,
            replica_index=replica.index,
            levels=levels,
            priority=priority,
        ))

        def settle() -> None:
            with self._lock:
                replica.pending -= n

        def on_result(message: dict) -> None:
            settle()
            try:
                outcomes = decode_block(message["result"])
                if len(outcomes) != n:
                    raise ProtocolError(
                        f"{len(outcomes)} result rows for a {n}-row request"
                    )
            except Exception as exc:  # noqa: BLE001 — malformed reply
                outcomes = [exc] * n
            deliver(outcomes, worker_id)

        def on_error(exc: BaseException) -> None:
            settle()
            deliver([exc] * n, worker_id)

        with self._lock:
            worker_id = replica.worker_id
            handle = self._workers.get(worker_id)
            conn = None if handle is None else handle.conn
            up = (
                handle is not None and handle.state == "up"
                and conn is not None
            )
            if up:
                replica.pending += n
                self._pending[request_id] = _Pending(
                    on_result, on_error, worker_id, replica
                )
        if not up:
            deliver(
                [WorkerLost(f"worker for {replica.label} is not up")] * n,
                worker_id,
            )
            return
        try:
            conn.send(frame)
        except Exception:
            # The connection died under us.  The loss path fails over
            # every pending on this worker — but if it already ran
            # (reader EOF won the race) our just-registered entry was
            # not in its orphan scan, so resolve it here explicitly.
            self._on_worker_lost(handle, "send failed")
            with self._lock:
                entry = self._pending.pop(request_id, None)
            if entry is not None:
                entry.on_error(
                    WorkerLost(f"worker {handle.worker_id} send failed")
                )

    def _attempt(self, chunk: "_Chunk") -> None:
        try:
            self._send(
                chunk.replica, chunk.levels, chunk.priority,
                functools.partial(self._settle, chunk),
            )
        except ProtocolError as exc:
            self._reject(chunk, range(len(chunk.futures)), exc)

    def _settle(self, chunk: "_Chunk", outcomes: list,
                seen_worker: str) -> None:
        """Account one reply to ``chunk``, once for all its rows:
        resolve the served rows, spill the shed ones, fail over the
        rest."""
        served, spilled, broken = [], [], []
        spill_exc = broken_exc = None
        for row, outcome in enumerate(outcomes):
            if not isinstance(outcome, BaseException):
                served.append(row)
            elif isinstance(outcome, Overloaded):
                spilled.append(row)
                spill_exc = outcome
            else:
                broken.append(row)
                broken_exc = outcome
        if served:
            self._serve(chunk, served, outcomes)
        if spilled:
            # Busy, not broken — the worker's scheduler shed these rows
            # unattempted, so they spill to a sibling without putting
            # the replica on the mark-down chain.
            self._failover(chunk, spilled, spill_exc, chunk.failed_chain)
        if broken:
            self._failover(
                chunk, broken, broken_exc,
                chunk.failed_chain + ((chunk.replica, seen_worker),),
            )

    def _serve(self, chunk: "_Chunk", rows: List[int],
               outcomes: list) -> None:
        """Resolve rows ``chunk.replica`` served.

        Counted before any future resolves, so a client reading
        ``stats()`` after its result sees them."""
        futures = chunk.futures
        claimed = [
            row for row in rows if futures[row].set_running_or_notify_cancel()
        ]
        served = len(claimed)
        telemetry = self.telemetry
        if served:
            telemetry.record_replica_served(chunk.replica.label, served)
            # One failover per earlier attempt of each served row: a
            # row that failed on *every* replica is an error instead.
            telemetry.record_failover((len(chunk.attempted) - 1) * served)
            telemetry.record_completed(
                chunk.dep.name, served,
                latencies_s=[time.monotonic() - chunk.t0] * served,
            )
        if served < len(rows):
            telemetry.record_cancelled(len(rows) - served)
        # A replica that failed rows this replica then served is
        # confirmed bad (the rows were fine).
        for bad, seen_worker in chunk.failed_chain:
            self._mark_down(bad, seen_worker)
        for row in claimed:
            futures[row].set_result(outcomes[row])

    def _failover(self, chunk: "_Chunk", rows: List[int], exc: BaseException,
                  failed_chain: tuple) -> None:
        """Send ``rows`` of ``chunk`` on to the next untried serviceable
        replica as a new chunk, or resolve them with ``exc``."""
        dep = chunk.dep
        with self._lock:
            candidates = routing_policy.serviceable(dep.replicas)
            fallback = next(
                (r for r in candidates if r not in chunk.attempted), None
            )
        if fallback is None:
            self._reject(chunk, rows, exc)
            return
        hop = _Chunk(
            dep, fallback,
            [chunk.levels[row] for row in rows],
            [chunk.futures[row] for row in rows],
            chunk.attempted | {fallback}, failed_chain, chunk.priority,
            chunk.t0,
        )
        self.telemetry.emit(
            "failover",
            model=dep.name,
            to_replica=fallback.label,
            reason=type(exc).__name__,
            attempts=len(hop.attempted),
            rows=len(rows),
        )
        self._attempt(hop)

    def _reject(self, chunk: "_Chunk", rows, exc: BaseException) -> None:
        """Resolve rows no replica could serve with ``exc``, counted once
        per client request: as shed when every replica was full, as
        failed otherwise, as cancelled when the client cancelled."""
        claimed = [
            chunk.futures[row] for row in rows
            if chunk.futures[row].set_running_or_notify_cancel()
        ]
        if claimed and isinstance(exc, Overloaded):
            self.telemetry.record_shed(len(claimed))
        elif claimed:
            self.telemetry.record_failed(len(claimed))
        if len(claimed) < len(rows):
            self.telemetry.record_cancelled(len(rows) - len(claimed))
        for future in claimed:
            future.set_exception(exc)

    def _mark_down(self, replica: _ReplicaHandle,
                   seen_worker: Optional[str] = None) -> None:
        """Mark a replica down — unless the failure evidence is stale.

        ``seen_worker`` is the worker the failure was observed on; if
        the replica has since been re-placed onto a different worker
        (the loss path raced ahead of this callback), the observation
        says nothing about the replica's *new* home, so it stays up.
        """
        with self._lock:
            if seen_worker is not None and replica.worker_id != seen_worker:
                return
            flipped = replica.state == HEALTHY
            if flipped:
                replica.state = DOWN
        if flipped:
            self.telemetry.emit("replica_down", replica=replica.label)

    # ---------------------------------------------------------------- mirror
    def _submit_mirror(self, dep: _ClusterDeployment,
                       levels: np.ndarray) -> "Future[MirroredResult]":
        policy = dep.spec.policy
        candidates = routing_policy.mirror_candidates(
            self._candidates(dep), policy.mirror_fanout
        )
        self.telemetry.record_submitted()
        client_future: "Future[MirroredResult]" = Future()
        votes: Dict[int, Optional[object]] = {}
        overloaded: set = set()
        seen_workers: Dict[int, str] = {}
        remaining = [len(candidates)]
        vote_lock = threading.Lock()
        t0 = time.monotonic()
        wire_levels = [levels.tolist()]

        def record_vote(replica, outcomes, worker_id) -> None:
            (outcome,) = outcomes
            with vote_lock:
                seen_workers[replica.index] = worker_id
                if isinstance(outcome, BaseException):
                    votes[replica.index] = None
                    if isinstance(outcome, Overloaded):
                        overloaded.add(replica.index)
                else:
                    votes[replica.index] = outcome
                remaining[0] -= 1
                if remaining[0]:
                    return
            self._resolve_mirror(
                dep, candidates, votes, overloaded, client_future, t0,
                seen_workers,
            )

        for replica in candidates:
            deliver = functools.partial(record_vote, replica)
            try:
                self._send(replica, wire_levels, 0, deliver)
            except ProtocolError as exc:
                deliver([exc], replica.worker_id)
        return client_future

    def _resolve_mirror(self, dep, candidates, votes, overloaded,
                        client_future, t0, seen_workers) -> None:
        if not client_future.set_running_or_notify_cancel():
            self.telemetry.record_cancelled(1)
            return
        succeeded = [
            (replica, votes[replica.index])
            for replica in candidates
            if votes.get(replica.index) is not None
        ]
        if not succeeded:
            self.telemetry.record_failed(1)
            client_future.set_exception(RuntimeError(
                f"mirror vote failed: no replica of {dep.name!r} answered"
            ))
            return
        for replica in candidates:
            if votes.get(replica.index) is None and (
                replica.index not in overloaded
            ):
                self._mark_down(replica, seen_workers.get(replica.index))
        weighted = dep.spec.policy.mirror_weighted
        winner, _ = routing_policy.resolve_votes(
            [
                (
                    int(result.prediction),
                    result.margin if weighted else 1.0,
                )
                for _, result in succeeded
            ],
            weighted=weighted,
        )
        agreed = sum(
            1 for _, result in succeeded if int(result.prediction) == winner
        )
        agreement = agreed / len(candidates)
        for replica, _ in succeeded:
            self.telemetry.record_replica_served(replica.label)
        self.telemetry.record_mirror_vote(unanimous=agreement == 1.0)
        self.telemetry.record_completed(
            dep.name, latencies_s=[time.monotonic() - t0]
        )
        client_future.set_result(MirroredResult(
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
        ))

    # ------------------------------------------------------------ supervision
    def _on_worker_lost(self, handle: _WorkerHandle, reason: str) -> None:
        """Rung 2 of the worker heal ladder: reroute, re-place, respawn.

        Idempotent per incarnation — the reader's EOF and the sweep's
        heartbeat timeout race here, one of them wins the state flip.
        """
        with self._lock:
            if self._closed or handle.state != "up":
                return
            handle.state = "lost"
            conn, handle.conn = handle.conn, None
            orphans = [
                (request_id, entry)
                for request_id, entry in self._pending.items()
                if entry.worker_id == handle.worker_id
            ]
            for request_id, _ in orphans:
                self._pending.pop(request_id, None)
            displaced: List[_ReplicaHandle] = []
            for dep in self._deployments.values():
                for replica in dep.replicas:
                    if replica.worker_id == handle.worker_id:
                        # ``pending`` comes back down as the orphans
                        # below are settled, one chunk at a time.
                        replica.state = UNPLACED
                        displaced.append(replica)
        if conn is not None:
            conn.close()
        self.telemetry.record_worker_lost()
        self.telemetry.emit(
            "worker_lost",
            worker=handle.worker_id,
            reason=reason,
            replicas=[r.label for r in displaced],
            in_flight=len(orphans),
        )
        # Orphaned requests fail over right now — they must not wait a
        # supervision sweep to resolve.
        for _, entry in orphans:
            try:
                entry.on_error(
                    WorkerLost(f"worker {handle.worker_id} {reason}")
                )
            except Exception:  # noqa: BLE001 — one orphan must not block the rest
                pass
        # Displaced replicas re-place immediately too, while the sweep
        # owns the (slower) respawn.
        if not self._closed:
            self._reconcile_placement()

    def _reconcile_placement(self) -> None:
        """Re-home unplaced replicas onto the least-loaded live workers.

        The cluster replace rung: the replica keeps its index, hence
        its stream seed — the survivor materialises the *same engine
        bits* the lost worker held."""
        with self._lock:
            unplaced = [
                (dep, replica)
                for dep in self._deployments.values()
                for replica in dep.replicas
                if replica.state == UNPLACED
            ]
        for dep, replica in unplaced:
            self._place(dep, replica)

    def _place(self, dep: _ClusterDeployment,
               replica: _ReplicaHandle) -> bool:
        with self._lock:
            up = [h for h in self._workers.values() if h.state == "up"]
            if not up:
                return False
            loads: Dict[str, int] = {h.worker_id: 0 for h in up}
            for d in self._deployments.values():
                for r in d.replicas:
                    if r.worker_id in loads and r.state not in (
                        UNPLACED, PLACING,
                    ):
                        loads[r.worker_id] += 1
            target = min(up, key=lambda h: (loads[h.worker_id], h.worker_id))
            replica.state = PLACING
            replica.worker_id = target.worker_id
            hosts_model = dep.name in target.models
        try:
            if hosts_model:
                reply = self._call(
                    target, "add_replica",
                    model=dep.name,
                    replica=replica.spec.to_dict(),
                    index=replica.index,
                )
                row = reply["replica"]
            else:
                sub = self._sub_deployment(
                    dep.spec, [replica.spec], dep.version
                )
                reply = self._call(
                    target, "apply",
                    deployment=sub.to_dict(),
                    indices=[replica.index],
                )
                target.models.add(dep.name)
                row = reply["replicas"][0]
        except Exception:  # noqa: BLE001 — the sweep retries placement
            with self._lock:
                if replica.state == PLACING:
                    replica.state = UNPLACED
            return False
        with self._lock:
            replica.label = row["replica"]
            replica.unit_delay = float(row["unit_delay_s"])
            replica.state = HEALTHY
        self.telemetry.emit(
            "replace",
            replica=replica.label,
            worker=target.worker_id,
            model=dep.name,
        )
        return True

    def check_workers(self) -> List[dict]:
        """One supervision sweep (the MaintenanceThread calls this on
        its cadence through the router adapter's ``check_all``).

        Returns a per-worker report list, mirroring ``check_all``'s
        report-per-subject shape."""
        now = time.monotonic()
        with self._lock:
            handles = list(self._workers.values())
        reports = []
        for handle in handles:
            if handle.state == "up":
                age = (
                    float("inf") if handle.last_heartbeat is None
                    else now - handle.last_heartbeat
                )
                if age > self.lost_after_s:
                    self._on_worker_lost(
                        handle,
                        f"heartbeat silent for {age:.2f}s "
                        f"(bound {self.lost_after_s:.2f}s)",
                    )
                else:
                    self.telemetry.emit(
                        "worker_heartbeat",
                        worker=handle.worker_id,
                        age_s=round(age, 4),
                    )
            if handle.state == "lost" and not self._closed:
                if handle.respawns >= self.max_respawns:
                    handle.state = "evicted"
                else:
                    handle.respawns += 1
                    handle.models = set()
                    self._spawn(handle)
            reports.append({
                "worker": handle.worker_id,
                "state": handle.state,
                "respawns": handle.respawns,
            })
        if not self._closed:
            self._reconcile_placement()
        return reports

    # ------------------------------------------------------------ observability
    def enable_observability(self, observability=None, **kwargs):
        """Arm the flight recorder + metrics ring over the whole cluster.

        Worker-side events stream in over the wire and land in this
        recorder tagged ``worker=<id>``; front-end routing and
        supervision events land directly.  (Per-request tracing stays a
        worker-local concern — spans never cross the boundary.)
        """
        from repro.serving.observability import Observability

        if observability is not None and kwargs:
            raise ValueError(
                "pass kwargs only when the bundle is created here"
            )
        if observability is None:
            observability = Observability(**kwargs)
        self.observability = observability
        self.telemetry.recorder = observability.recorder
        return observability

    def disable_observability(self) -> None:
        self.observability = None
        self.telemetry.recorder = None

    def sample_metrics(self):
        observability = self.observability
        if observability is None:
            return None
        with self._lock:
            replicas = sum(
                len(dep.replicas) for dep in self._deployments.values()
            )
        return observability.metrics.sample(
            self.telemetry.snapshot(), replicas=replicas
        )

    # ------------------------------------------------------------ maintenance
    def enable_maintenance(self, period_s: float) -> MaintenanceThread:
        """Start (or restart) the supervision sweep thread — worker
        liveness, respawn, re-placement and autoscale stepping on one
        cadence, reusing the stock MaintenanceThread loop."""
        self.stop_maintenance()
        self.maintenance = MaintenanceThread(
            _NullMonitor(),
            period_s,
            telemetry=self.telemetry,
            router=self.router,
            controllers=lambda: list(self._autoscalers.values()),
            metrics_hook=self.sample_metrics,
        )
        return self.maintenance

    def stop_maintenance(self, timeout: Optional[float] = None) -> bool:
        if self.maintenance is None:
            return True
        if not self.maintenance.stop(timeout):
            return False
        self.maintenance = None
        return True

    # -------------------------------------------------------------- lifecycle
    def stats(self) -> TelemetrySnapshot:
        return self.telemetry.snapshot()

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Live worker process ids (chaos/ops surface)."""
        with self._lock:
            return {
                h.worker_id: h.pid
                for h in self._workers.values()
                if h.state in ("starting", "up")
            }

    def kill_worker(self, worker_id: str) -> None:
        """Chaos hook: SIGKILL one worker process, no warning —
        exactly what a crashed host looks like to the front end."""
        with self._lock:
            handle = self._workers.get(worker_id)
            pid = None if handle is None else handle.pid
        if pid is None:
            raise KeyError(f"no live worker {worker_id!r}")
        os.kill(pid, signal.SIGKILL)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait out every in-flight request and worker queue."""
        deadline = None if timeout is None else time.monotonic() + timeout
        complete = True
        for handle in self._up_workers():
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.1)
            )
            try:
                reply = self._call(handle, "drain", timeout=remaining)
                complete = complete and bool(reply.get("complete", False))
            except Exception:  # noqa: BLE001 — a dying worker has no queue left
                pass
        while self._pending_requests():
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return complete

    def _pending_requests(self) -> int:
        with self._lock:
            return sum(
                1 for entry in self._pending.values()
                if entry.replica is not None
            )

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Graceful teardown: stop supervision, drain, shut workers down."""
        with self._lock:
            if self._closed:
                return
        self.stop_maintenance(timeout)
        if drain:
            self.drain(timeout)
        with self._lock:
            self._closed = True
            handles = list(self._workers.values())
        for handle in handles:
            conn = handle.conn
            if conn is not None:
                try:
                    conn.send(make("shutdown"))
                except Exception:  # noqa: BLE001
                    pass
        for handle in handles:
            process = handle.process
            # A process whose start() itself failed cannot be joined.
            if process is None or getattr(process, "_popen", None) is None:
                continue
            process.join(2.0 if timeout is None else timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            handle.state = "stopped"
        for handle in handles:
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for entry in leftovers:
            try:
                entry.on_error(WorkerLost("cluster closed"))
            except Exception:  # noqa: BLE001
                pass

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:
        with self._lock:
            up = sum(1 for h in self._workers.values() if h.state == "up")
            total = len(self._workers)
            deployments = len(self._deployments)
        return (
            f"ClusterServer({up}/{total} workers up, "
            f"{deployments} deployments)"
        )
