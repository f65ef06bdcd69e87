"""Cluster front end: supervised worker processes behind one serving API.

``placement: process`` hosting.  A :class:`ClusterServer` owns no
engines — it spawns worker subprocesses (:mod:`repro.serving.worker`),
each a full in-process serving stack hosting a slice of every
deployment's replicas, and keeps for itself exactly the two things
that must be global: **routing** and **supervision**.

Routing is the same :class:`~repro.serving.plane.RequestPlane` the
in-process :class:`~repro.serving.router.Router` holds, over replica
*handles* instead of live replicas — so ``local`` and ``process``
placement make identical decisions and keep identical books.  Replica
indices are cluster-global and minted by the front end: a worker
applies its slice with explicit indices, pinning the per-replica
stream seeds, so the engines a worker materialises are bit-identical
to the ones a single-process deployment would have built.  The only
request code here is a replica's queue (:class:`_RemoteQueue`): each
``max_batch`` chunk the plane routes travels as one ``request`` frame
and comes back as one columnar ``result`` frame, settled once through
the chunk's attempt record.

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

import itertools
import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple, Union

from repro.reliability.faults import WearState
from repro.serving import policy as routing_policy
from repro.serving.deployment import (
    Deployment,
    DeploymentError,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.observability.events import EVENT_KINDS
from repro.serving.plane import DeploymentTable, RequestPlane
from repro.serving.policy import DRAINING, HEALTHY, RETIRED
from repro.serving.registry import ModelRegistry
from repro.serving.router import ReplicaStatus, Router
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
    continuation logic — a request frame's settlement and a control
    call's future both reduce to this one shape, so the reader loop and
    the worker-loss sweep resolve every kind identically.
    """

    __slots__ = ("on_result", "on_error", "worker_id", "replica")

    def __init__(self, on_result, on_error, worker_id, replica=None):
        self.on_result = on_result
        self.on_error = on_error
        self.worker_id = worker_id
        self.replica = replica


class _RemoteQueue:
    """A worker-hosted replica's request-plane queue: one placement of
    the replica on one worker (a re-placed replica gets a new queue,
    which makes failure seen through this one stale evidence).

    :meth:`enqueue` ships one attempt's rows as one ``request`` frame
    with one pending entry; the worker's columnar reply, an ``error``
    frame or the worker's loss then settles every row through the
    attempt record at once.  ``block`` is ignored — backpressure is the
    worker scheduler's, and never blocks a frame — and rows are not
    traced.
    """

    __slots__ = ("cluster", "replica", "worker")

    def __init__(self, cluster: "ClusterServer", replica: "_ReplicaHandle",
                 worker: "_WorkerHandle"):
        self.cluster = cluster
        self.replica = replica
        self.worker = worker

    def enqueue(self, requests: list, block: bool = False):
        """Send the rows; returns ``(refused, refusal)`` — all of them,
        with the error, when the frame cannot be encoded (a block
        beyond ``MAX_FRAME``) or the worker is not up."""
        cluster, replica, worker = self.cluster, self.replica, self.worker
        n = len(requests)
        request_id = f"r{next(cluster._ids)}"
        try:
            frame = encode_frame(make(
                "request",
                id=request_id,
                model=replica.model,
                replica_index=replica.index,
                levels=[request.levels.tolist() for request in requests],
                priority=requests[0].lane,
            ))
        except ProtocolError as exc:
            return requests, exc

        def on_result(message: dict) -> None:
            try:
                outcomes = decode_block(message["result"])
                if len(outcomes) != n:
                    raise ProtocolError(
                        f"{len(outcomes)} result rows for a {n}-row request"
                    )
            except Exception as exc:  # noqa: BLE001 — malformed reply
                outcomes = [exc] * n
            self._settle(requests, outcomes)

        with cluster._lock:
            conn = worker.conn
            up = worker.state == "up" and conn is not None
            if up:
                replica.pending += n
                cluster._pending[request_id] = _Pending(
                    on_result,
                    lambda exc: self._settle(requests, [exc] * n),
                    worker.worker_id,
                    replica,
                )
        if not up:
            return requests, WorkerLost(f"worker for {replica.label} is not up")
        try:
            conn.send(frame)
        except Exception:
            # The connection died under us.  The loss path fails over
            # every pending on this worker — but if it already ran
            # (reader EOF won the race) our just-registered entry was
            # not in its orphan scan, so resolve it here explicitly.
            cluster._on_worker_lost(worker, "send failed")
            with cluster._lock:
                entry = cluster._pending.pop(request_id, None)
            if entry is not None:
                entry.on_error(
                    WorkerLost(f"worker {worker.worker_id} send failed")
                )
        return [], None

    def _settle(self, requests: list, outcomes: list) -> None:
        """Account one reply, once for all its rows: resolve the served
        rows, hand the shed and the failed ones back to their attempt."""
        cluster = self.cluster
        with cluster._lock:
            self.replica.pending -= len(requests)
        attempt = requests[0].attempt
        served, spilled, broken = [], [], []
        for request, outcome in zip(requests, outcomes):
            if not isinstance(outcome, BaseException):
                served.append((request, outcome))
            elif isinstance(outcome, Overloaded):
                spilled.append(request)
                spill_exc = outcome
            else:
                broken.append(request)
                broken_exc = outcome
        claimed = [
            (request, result) for request, result in served
            if request.future.set_running_or_notify_cancel()
        ]
        telemetry = cluster.telemetry
        if len(claimed) < len(served):
            telemetry.record_cancelled(len(served) - len(claimed))
        # Counted before any future resolves, so a client reading
        # ``stats()`` after its result sees them.
        if claimed and attempt.served(len(claimed)):
            now = time.monotonic()
            telemetry.record_completed(
                self.replica.model, len(claimed),
                latencies_s=[now - request.enqueued_at for request, _ in claimed],
            )
        for request, result in claimed:
            request.future.set_result(result)
        if spilled:
            attempt.failed(spilled, spill_exc, ran=False)
        if broken:
            attempt.failed(broken, broken_exc, ran=False)


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

    Duck-types the request plane's replica surface (``index`` /
    ``state`` / ``unit_delay`` / ``weight`` / ``pending`` / ``label`` /
    ``queue``) so arbitration code is shared verbatim with the
    in-process router.  ``pending`` counts *front-end* in-flight rows —
    the quantity the cost policy needs, maintained without a round
    trip; ``queue`` is the current placement's :class:`_RemoteQueue`;
    ``wear`` books one programming cycle per placement, as the local
    router books one per programming pass.
    """

    def __init__(self, model: str, index: int, spec: ReplicaSpec,
                 worker_id: str, label: str, unit_delay: float,
                 wear: Optional[WearState] = None):
        self.model = model
        self.wear = wear if wear is not None else WearState()
        self.index = index
        self.spec = spec
        self.worker_id = worker_id
        self.label = label
        self.state = HEALTHY
        self.unit_delay = unit_delay
        self.pending = 0
        self.queue: Optional[_RemoteQueue] = None
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
        return self._cluster.add_replica(name, spec, wear=wear, index=index)

    def retire_replica(self, name: str, index: int,
                       timeout=None, drain_steps: int = 1) -> ReplicaStatus:
        if int(drain_steps) > 1:
            raise DeploymentError(
                f"drain_steps={drain_steps} is not supported on process "
                f"placement: {name!r} replicas retire at once"
            )
        return self._cluster.retire_replica(name, index, timeout=timeout)

    def deployments(self) -> Dict[str, Deployment]:
        return self._cluster.deployments()

    def check_all(self):
        """The supervision sweep, riding the maintenance slot replica
        health uses in-process."""
        return self._cluster.check_workers()


class ClusterServer(DeploymentTable):
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
        # Client futures come from this module's ``Future``, which lets a
        # test substitute a subclass that counts how often each resolves.
        self.plane = RequestPlane(
            self.telemetry, self.policy.max_batch, self._lock,
            lambda dep: self.deployment_for(dep.name), Future,
        )
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
                handle = _ReplicaHandle(
                    model=deployment.model,
                    index=index,
                    spec=specs_by_index[index],
                    worker_id=worker.worker_id,
                    label=row["replica"],
                    unit_delay=float(row["unit_delay_s"]),
                )
                handle.wear.add_cycles(1)  # the worker's apply programmed it
                handle.queue = _RemoteQueue(self, handle, worker)
                handles.append(handle)
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

    def status(self, name: str) -> List[ReplicaStatus]:
        dep = self._deployment(name)
        with self._lock:
            return [self._status_of(r) for r in dep.replicas]

    @staticmethod
    def _status_of(r: _ReplicaHandle) -> ReplicaStatus:
        return ReplicaStatus(
            replica=r.label,
            backend=r.spec.backend,
            state=r.state,
            weight=r.spec.weight,
            unit_delay_s=r.unit_delay,
            pending=r.pending,
            index=r.index,
            wear_fraction=r.wear.fraction_used,
        )

    # ------------------------------------------------------------ elasticity
    def add_replica(self, name: str, spec: ReplicaSpec,
                    index: Optional[int] = None,
                    wear: Optional[WearState] = None) -> ReplicaStatus:
        """Grow ``name`` by one replica on the least-loaded worker.

        An optional ``wear`` ledger (a
        :class:`~repro.serving.autoscale.HardwareSlot`'s) becomes the
        replica's, and its placement books one programming cycle."""
        dep = self._deployment(name)
        with self._lock:
            if index is None:
                index = dep.next_index
            dep.next_index = max(dep.next_index, index + 1)
            replica = _ReplicaHandle(
                model=name, index=index, spec=spec, worker_id="",
                label=f"{name}@v{dep.version}/r{index}[{spec.backend}]",
                unit_delay=float("inf"), wear=wear,
            )
            replica.state = UNPLACED
            dep.replicas = dep.replicas + [replica]
        placed = self._place(dep, replica)
        if not placed:
            with self._lock:
                dep.replicas = [r for r in dep.replicas if r is not replica]
            raise RuntimeError(
                f"no live worker could host a new replica of {name!r}"
            )
        return self.status(name)[-1]

    def retire_replica(self, name: str, index: int,
                       timeout: Optional[float] = None) -> ReplicaStatus:
        """Shrink ``name``: drain and remove one replica (via its worker)."""
        dep = self._deployment(name)
        with self._lock:
            replica = Router._replica_by_index(dep, index)
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
            dep.replicas = [r for r in dep.replicas if r is not replica]
        return self._status_of(replica)

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

    # --------------------------------------------------------------- serving
    def submit(self, name: str, evidence_levels, version=None,
               client: Optional[object] = None) -> "Future":
        """Route one sample to a worker-hosted replica; returns a future.

        The same :class:`~repro.serving.plane.RequestPlane` contract as
        the in-process path: internal replica and *worker* failures
        fail over transparently; the future errors only when every
        serviceable replica failed the request.
        """
        return self.plane.submit(
            self._deployment(name, version), evidence_levels, client
        )

    def submit_many(self, name: str, evidence_levels, version=None,
                    client: Optional[object] = None) -> List["Future"]:
        """Route a stack of samples; one future per row.

        Each ``max_batch`` chunk gets one policy pick and travels as one
        ``request`` frame, answered by one ``result`` frame.
        """
        return self.plane.submit_many(
            self._deployment(name, version), evidence_levels, client
        )

    def predict(self, name: str, evidence_levels, version=None,
                timeout: Optional[float] = None,
                client: Optional[object] = None):
        return self.submit(
            name, evidence_levels, version=version, client=client
        ).result(timeout)

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
        replica.wear.add_cycles(1)  # one programming pass
        with self._lock:
            replica.label = row["replica"]
            replica.unit_delay = float(row["unit_delay_s"])
            replica.queue = _RemoteQueue(self, replica, target)
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
