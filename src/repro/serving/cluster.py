"""Process placement: a supervised worker pool under the one router.

``placement: process`` hosting.  A :class:`ClusterServer` is a
:class:`~repro.serving.server.FeBiMServer` whose
:class:`~repro.serving.router.Router` places every replica's host on a
worker subprocess (:mod:`repro.serving.worker`) instead of in process.
The router still owns every replica — routing, the heal ladder,
elasticity, gradual drains, autoscaling, tracing — and placement
decides only where a replica's engine and queue live.  The front end
programs no engine.

A worker-hosted replica's host is a :class:`_RemoteHost`: each
``max_batch`` chunk the request plane routes to it travels as one
``request`` frame, and the heal ladder and lifecycle reach it through
per-replica control frames (:mod:`repro.serving.transport.protocol`)
that the worker answers by calling the same
:class:`~repro.serving.host.ReplicaHost` methods a local replica's host
runs.  Placement ids are minted here, one per host (the replace rung
keeps it, a re-placement on another worker mints a new one), so a
worker can hold an old and a new ``r0`` at once during a re-apply.

The :class:`WorkerPool` is the supervision half, run first in every
maintenance sweep (:meth:`~repro.serving.router.Router.check_all`):

* **rung 1 — wait**: a worker is alive while heartbeats arrive
  (liveness only); every sweep records a ``worker_heartbeat`` event with
  the age of the last one.
* **rung 2 — replace**: a dead connection or a heartbeat older than
  ``LOST_AFTER_PERIODS`` periods marks the worker lost
  (``worker_lost``): its in-flight chunks fail over whole to surviving
  replicas immediately (recorded ``failover`` events, zero
  client-visible errors while any survivor can serve), its replicas are
  re-placed onto survivors — same index, so same stream seed, the
  *same engine bits* (``replace`` events) — and a fresh process is
  respawned under the same worker id (``worker_respawn``).  A replica
  between workers is ``unplaced``: no traffic, and the heal ladder runs
  no rung on it.
* **rung 3 — evict**: a worker that burned through ``MAX_RESPAWNS``
  stays down for good; its capacity remains on the survivors.

Worker observability is merged, not lost: every event a worker's
telemetry emits arrives as an ``event`` frame and is replayed into the
front end's recorder tagged ``worker=<id>``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import Counter
from concurrent.futures import CancelledError, Future
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro.serving.host import CanaryRead, WorkerLost
from repro.serving.observability.events import EVENT_KINDS
from repro.serving.policy import DOWN, DRAINING, HEALTHY, UNPLACED
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import BatchPolicy, Overloaded
from repro.serving.server import FeBiMServer
from repro.serving.transport.protocol import (
    MessageConnection,
    ProtocolError,
    decode_block,
    decode_error,
    encode_frame,
    make,
)
from repro.serving.worker import worker_main

#: Heartbeats older than this many periods mean the worker is lost.
LOST_AFTER_PERIODS = 4
#: Respawns per worker id before the evict rung.
MAX_RESPAWNS = 2
#: Bound on worker start-up and on blocking control calls.
SPAWN_TIMEOUT_S = 60.0


class _Pending(NamedTuple):
    """One in-flight frame awaiting its reply from ``worker``.

    ``on_result(message)`` / ``on_error(exc)`` carry all the
    continuation logic — a request frame's settlement and a control
    call's future both reduce to this one shape, so the reader loop and
    the worker-loss sweep resolve every kind identically.
    """

    on_result: Callable[[dict], None]
    on_error: Callable[[BaseException], None]
    worker: "_WorkerHandle"


class _WorkerHandle:
    """Front-end view of one incarnation of a worker process: a
    respawn gets a new handle under the same worker id, so a host placed
    on a lost incarnation stays lost."""

    def __init__(self, worker_id: str, respawns: int = 0):
        self.worker_id = worker_id
        self.respawns = respawns
        self.process = None
        self.conn: Optional[MessageConnection] = None
        # starting | up | lost | respawned | evicted | stopped
        self.state = "starting"
        self.last_heartbeat: Optional[float] = None
        self.hello = threading.Event()

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid


class _RemoteHost:
    """A worker-hosted replica's host, seen from the front end: the
    replica on one worker, under the placement id ``placement`` (a
    replica re-placed on another worker gets a new host and id).

    Its queue (:meth:`enqueue`) ships one hop's rows as one ``request``
    frame with one pending entry; the worker's columnar reply, an
    ``error`` frame or the worker's loss then settles the rows through
    their owner, as a local scheduler would after a batch: ``claim`` and
    ``served`` for the served rows, ``cancel`` for the rows the worker's
    queue cancelled, ``failed`` for the rest.  ``block``
    is ignored — backpressure is the worker scheduler's, and never
    blocks a frame.  ``pending`` counts the front end's in-flight rows,
    the cost policy's signal, kept without a round trip.  The control
    methods mirror :class:`~repro.serving.host.ReplicaHost`'s (and
    :meth:`place` renews the placement token ``placed`` the same way);
    each quiesces the replica in the worker, and raises
    :class:`WorkerLost` when the worker is gone.
    """

    def __init__(self, pool: "WorkerPool", worker: _WorkerHandle, replica,
                 identity: dict):
        self.pool = pool
        self.worker = worker
        self.replica = replica
        self.identity = identity
        self.placement = f"p{next(pool._ids)}"
        self.placed = None
        self.pending = 0
        self.retired = False

    # ------------------------------------------------------------------ queue
    def enqueue(self, requests: list, block: bool = False) -> None:
        """Send the rows; all of them fail back to their owner when the
        frame cannot be encoded (a block beyond ``MAX_FRAME``) or the
        worker is not up."""
        pool, worker = self.pool, self.worker
        n = len(requests)
        request_id = f"r{next(pool._ids)}"
        try:
            frame = encode_frame(make(
                "request",
                id=request_id,
                placement=self.placement,
                levels=[request.levels.tolist() for request in requests],
                priority=requests[0].lane,
            ))
        except ProtocolError as exc:
            requests[0].owner.failed(requests, exc, ran=False)
            return

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

        with pool._lock:
            self.pending += n
        if not pool._send(
            worker, request_id, frame, on_result,
            lambda exc: self._settle(requests, [exc] * n),
        ):
            with pool._lock:
                self.pending -= n
            requests[0].owner.failed(requests, WorkerLost(
                f"worker {worker.worker_id} of {self.replica.label} is not up"
            ), ran=False)

    def _settle(self, requests: list, outcomes: list) -> None:
        """Settle one reply through the rows' owner, one call per
        outcome kind: the served rows it claims, then the shed, the
        cancelled and the failed ones."""
        pool = self.pool
        with pool._lock:
            self.pending -= len(requests)
            if not self.pending:
                pool._settled.notify_all()
        owner = requests[0].owner
        served, results, spilled, cancelled, broken = [], [], [], [], []
        for request, outcome in zip(requests, outcomes):
            if not isinstance(outcome, BaseException):
                served.append(request)
                results.append(outcome)
            elif isinstance(outcome, Overloaded):
                spilled.append(request)
                spill_exc = outcome
            elif isinstance(outcome, CancelledError):
                cancelled.append(request)
            else:
                broken.append(request)
                broken_exc = outcome
        claimed = owner.claim(served)
        if len(claimed) < len(served):
            kept = set(claimed)
            results = [r for row, r in zip(served, results) if row in kept]
        if claimed:
            owner.served(claimed, results, time.monotonic())
        if spilled:
            owner.failed(spilled, spill_exc, ran=False)
        if cancelled:
            owner.cancel(cancelled)
        if broken:
            owner.failed(broken, broken_exc, ran=False)

    # ---------------------------------------------------------------- control
    def _call(self, kind: str, timeout: Optional[float] = None, **fields):
        """The result the worker's host method of ``kind`` returned."""
        return self.pool.call(
            self.worker, kind, timeout, placement=self.placement, **fields
        )["result"]

    def place(self, canaries=None) -> Optional[CanaryRead]:
        read = self._call(
            "place",
            host=self.identity,
            canaries=None if canaries is None else np.asarray(canaries).tolist(),
        )
        self.placed = object()
        return None if read is None else CanaryRead.from_fields(read)

    def read(self, levels) -> CanaryRead:
        return CanaryRead.from_fields(
            self._call("read", levels=np.asarray(levels).tolist())
        )

    def program(self) -> None:
        self._call("program")

    def repair(self) -> list:
        return self._call("repair")

    def inventory(self):
        return tuple(self._call("inventory"))

    def kill(self) -> None:
        self._call("kill")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no row the front end sent here is in flight."""
        with self.pool._settled:
            return self.pool._settled.wait_for(
                lambda: not self.pending, timeout
            )

    def retire(self, drain: bool = True,
               timeout: Optional[float] = None) -> None:
        """Drop the replica from its worker, which serves what is queued
        first when ``drain`` (its replies precede the ack on the
        connection); a lost worker has nothing left to drop."""
        self.retired = True
        self.pool._drop(self)
        try:
            self._call("retire", timeout, drain=drain)
        except WorkerLost:
            pass


class WorkerPool:
    """Spawns, supervises and places onto worker processes.

    ``server`` is the :class:`ClusterServer` whose registry, policy,
    seed, ``max_rows``, telemetry and router the pool serves.  Workers
    connect back over a loopback socket and say ``hello``; the pool
    tracks one handle per incarnation, every host it placed, and every
    frame awaiting a reply.
    """

    def __init__(self, server, heartbeat_period_s: float):
        self.server = server
        self.heartbeat_period_s = float(heartbeat_period_s)
        self.lost_after_s = LOST_AFTER_PERIODS * self.heartbeat_period_s
        self._lock = threading.RLock()
        self._settled = threading.Condition(self._lock)
        self._workers: Dict[str, _WorkerHandle] = {}
        self._hosts: Dict[str, _RemoteHost] = {}
        self._pending: Dict[str, _Pending] = {}
        self._ids = itertools.count()
        self._closed = False
        self._ctx = multiprocessing.get_context("spawn")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self._address = self._listener.getsockname()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._acceptor.start()

    # ----------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed — shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve, args=(MessageConnection(sock),),
                daemon=True,
            ).start()

    def _serve(self, conn: MessageConnection) -> None:
        """Match an inbound connection to its worker via the hello
        frame, then read the worker's frames until the connection ends."""
        try:
            hello = conn.recv()
        except (ProtocolError, OSError):
            hello = None
        worker_id = None if hello is None else hello.get("worker")
        with self._lock:
            handle = self._workers.get(worker_id)
            if hello is None or hello.get("kind") != "hello" or (
                handle is None or handle.state != "starting"
            ):
                conn.close()  # not a worker, or an unknown or duplicate hello
                return
            handle.conn = conn
            handle.state = "up"
            handle.last_heartbeat = time.monotonic()
        telemetry = self.server.telemetry
        if handle.respawns:
            telemetry.record_worker_respawn()
            telemetry.emit(
                "worker_respawn", worker=worker_id, pid=hello.get("pid"),
                respawns=handle.respawns,
            )
        else:
            telemetry.record_worker_started()
            telemetry.emit(
                "worker_start", worker=worker_id, pid=hello.get("pid"),
            )
        handle.hello.set()
        while True:
            try:
                message = conn.recv()
            except (ProtocolError, OSError):
                message = None
            if message is None:
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
            return
        if kind == "event":
            event_kind = message.get("event_kind")
            if event_kind in EVENT_KINDS:
                detail = {
                    str(k): v
                    for k, v in (message.get("detail") or {}).items()
                    if k != "worker"
                }
                self.server.telemetry.emit(
                    event_kind, worker=message.get("worker"), **detail
                )
            return
        with self._lock:
            entry = self._pending.pop(message.get("id"), None)
        if entry is None:
            return  # reply raced a worker-loss resolution; already handled
        if kind == "error":
            entry.on_error(decode_error(message.get("error", {})))
        else:
            entry.on_result(message)

    # -------------------------------------------------------------- spawning
    def _spawn(self, handle: _WorkerHandle) -> None:
        server = self.server
        config = {
            "registry_root": str(server.registry.root),
            "backend": server.registry.backend,
            "backend_options": dict(server.registry.backend_options),
            "seed": server.seed,
            "max_rows": server.max_rows,
            "max_batch": server.policy.max_batch,
            "max_wait_ms": server.policy.max_wait_ms,
            "heartbeat_period_s": self.heartbeat_period_s,
        }
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self._address, config),
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
                    handle = self._workers[worker_id] = _WorkerHandle(worker_id)
                    self._spawn(handle)
                handles.append(handle)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        for handle in handles:
            if not handle.hello.wait(max(deadline - time.monotonic(), 0.0)):
                raise RuntimeError(
                    f"worker {handle.worker_id} did not connect within "
                    f"{SPAWN_TIMEOUT_S:g}s"
                )
        return handles

    def _least_loaded(self, candidates) -> Optional[_WorkerHandle]:
        """The up candidate hosting the fewest replicas (lowest id on a
        tie), or ``None``; the caller holds the lock."""
        up = [h for h in candidates if h.state == "up"]
        loads = Counter(host.worker for host in self._hosts.values())
        return min(up, key=lambda h: (loads[h], h.worker_id), default=None)

    def _new_host(self, worker, replica, identity: dict) -> _RemoteHost:
        with self._lock:
            host = _RemoteHost(self, worker, replica, identity)
            self._hosts[host.placement] = host
        return host

    def _drop(self, host: _RemoteHost) -> None:
        with self._lock:
            self._hosts.pop(host.placement, None)

    # ------------------------------------------------------------- placement
    def host(self, deployment, version: int, replica,
             max_queue_depth: Optional[int]) -> _RemoteHost:
        """A new, unprogrammed host for one of ``deployment``'s replicas,
        on the least-loaded of the deployment's ``placement.workers``
        workers (one worker for a deployment written without a
        placement, such as an undeployed model's implicit one)."""
        placement = deployment.placement
        workers = self._ensure_workers(
            1 if placement is None else placement.workers
        )
        with self._lock:
            target = self._least_loaded(workers) or self._least_loaded(
                list(self._workers.values())
            )
        if target is None:
            raise WorkerLost(
                f"no live worker can host a replica of {deployment.model!r}"
            )
        return self._new_host(target, replica, {
            "name": deployment.model,
            "version": int(version),
            "index": replica.index,
            "spec": replica.spec.to_dict(),
            "key": str(replica.key),
            "max_queue_depth": max_queue_depth,
        })

    def _send(self, worker: _WorkerHandle, frame_id: str, frame,
              on_result, on_error) -> bool:
        """Send one frame whose reply settles through ``on_result`` /
        ``on_error``; ``False`` (nothing sent) when the worker is not up.

        Registered under the lock that flips a worker lost, so the loss
        path's orphan scan either sees the entry or this sees the loss.
        """
        with self._lock:
            conn = worker.conn
            if worker.state != "up" or conn is None:
                return False
            self._pending[frame_id] = _Pending(on_result, on_error, worker)
        try:
            conn.send(frame)
        except Exception:  # noqa: BLE001 — the connection died under us
            # The loss path fails over every pending on this worker — but
            # if it already ran (reader EOF won the race) this entry was
            # not in its orphan scan, so resolve it here explicitly.
            self._on_worker_lost(worker, "send failed")
            with self._lock:
                entry = self._pending.pop(frame_id, None)
            if entry is not None:
                entry.on_error(
                    WorkerLost(f"worker {worker.worker_id} send failed")
                )
        return True

    def call(self, worker: _WorkerHandle, kind: str,
             timeout: Optional[float] = None, **fields) -> dict:
        """One blocking acked control frame to a worker; raises
        :class:`WorkerLost` when the worker is gone or never answers."""
        call_id = f"c{next(self._ids)}"
        future: "Future[dict]" = Future()
        if not self._send(
            worker, call_id, make(kind, id=call_id, **fields),
            future.set_result, future.set_exception,
        ):
            raise WorkerLost(f"worker {worker.worker_id} is not up")
        try:
            return future.result(SPAWN_TIMEOUT_S if timeout is None else timeout)
        except TimeoutError:
            raise WorkerLost(
                f"worker {worker.worker_id} did not answer {kind!r} in time"
            )

    # ------------------------------------------------------------ supervision
    def _on_worker_lost(self, handle: _WorkerHandle, reason: str) -> None:
        """Rung 2 of the worker heal ladder: reroute, then re-place.

        Idempotent per incarnation — the reader's EOF and the sweep's
        heartbeat timeout race here, one of them wins the state flip.
        """
        with self._lock:
            if self._closed or handle.state != "up":
                return
            handle.state = "lost"
            conn, handle.conn = handle.conn, None
            orphans = [
                self._pending.pop(request_id)
                for request_id, entry in list(self._pending.items())
                if entry.worker is handle
            ]
            displaced = [
                h.replica for h in self._hosts.values()
                if h.worker is handle and h.replica.host is h
            ]
        if conn is not None:
            conn.close()
        router = self.server.router
        with router._lock:
            for replica in displaced:
                if replica.state in (HEALTHY, DOWN):
                    # ``pending`` comes back down as the orphans below
                    # are settled, one chunk at a time.
                    replica.state = UNPLACED
        telemetry = self.server.telemetry
        telemetry.record_worker_lost()
        telemetry.emit(
            "worker_lost",
            worker=handle.worker_id,
            reason=reason,
            replicas=[r.label for r in displaced],
            in_flight=len(orphans),
        )
        # Orphaned requests fail over right now — they must not wait a
        # supervision sweep to resolve.
        self._fail(orphans, f"worker {handle.worker_id} {reason}")
        # Displaced replicas re-place immediately too, while the sweep
        # owns the (slower) respawn.
        self._reconcile()

    def _reconcile(self) -> None:
        """Re-place every replica whose host's worker was lost onto the
        least-loaded live worker.

        The cluster replace rung: the replica keeps its index, hence its
        stream seed — the survivor materialises the *same engine bits*
        the lost worker held.  A draining replica keeps draining on its
        new host; an evicted or retired one is left where it fell."""
        with self._lock:
            if self._closed:
                return
            lost = [h for h in self._hosts.values() if h.worker.state != "up"]
        serving = {
            id(r) for dep in self.server.router._all() for r in dep.replicas
        }
        for host in lost:
            if id(host.replica) in serving:
                self._replace(host)

    def _replace(self, old: _RemoteHost) -> None:
        """Re-place ``old``'s replica on a new host (one sweep at a time:
        the first to unlink ``old`` owns the move)."""
        replica = old.replica
        router = self.server.router
        with self._lock:
            if self._hosts.pop(old.placement, None) is None:
                return
            target = self._least_loaded(list(self._workers.values()))
        with router._lock:
            if replica.host is not old or replica.state not in (
                UNPLACED, DRAINING,
            ):
                return
        new = None if target is None else self._new_host(
            target, replica, old.identity
        )
        try:
            if new is None:
                raise WorkerLost("no live worker")
            new.place()
        except Exception:  # noqa: BLE001 — the next sweep retries
            if new is not None:
                self._drop(new)
            with self._lock:
                self._hosts[old.placement] = old
            return
        with router._lock:
            # The router may have retired the replica meanwhile.
            swap = not old.retired and replica.host is old
            if swap:
                replica.host = new
                if replica.state == UNPLACED:
                    replica.state = HEALTHY
        if not swap:
            new.retire(drain=False)
            return
        replica.wear.add_cycles(1)  # one programming pass
        self.server.telemetry.emit(
            "replace",
            replica=replica.label,
            worker=target.worker_id,
            model=old.identity["name"],
        )

    def check(self) -> None:
        """One supervision sweep: heartbeat ages, respawns, re-placement."""
        now = time.monotonic()
        with self._lock:
            handles = list(self._workers.values())
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
                    self.server.telemetry.emit(
                        "worker_heartbeat",
                        worker=handle.worker_id,
                        age_s=round(age, 4),
                    )
            respawn = None
            with self._lock:
                if handle.state == "lost" and not self._closed:
                    if handle.respawns >= MAX_RESPAWNS:
                        handle.state = "evicted"
                    else:
                        handle.state = "respawned"
                        respawn = self._workers[handle.worker_id] = (
                            _WorkerHandle(handle.worker_id, handle.respawns + 1)
                        )
            if respawn is not None:
                self._spawn(respawn)
        self._reconcile()

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut every worker down and fail whatever is still pending."""
        with self._lock:
            if self._closed:
                return
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
            if process is not None and getattr(process, "_popen", None):
                process.join(2.0 if timeout is None else timeout)
                if process.is_alive():
                    process.terminate()
                    process.join(1.0)
                handle.state = "stopped"
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first makes accept raise.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._acceptor.join(2.0 if timeout is None else timeout)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        self._fail(leftovers, "cluster closed")

    @staticmethod
    def _fail(entries: List[_Pending], reason: str) -> None:
        """Resolve frames no reply will answer with :class:`WorkerLost`."""
        for entry in entries:
            try:
                entry.on_error(WorkerLost(reason))
            except Exception:  # noqa: BLE001 — one must not block the rest
                pass


class ClusterServer(FeBiMServer):
    """Multi-process serving (``placement: process``): a
    :class:`~repro.serving.server.FeBiMServer` whose router places every
    replica on a worker process of its :class:`WorkerPool`.

    Parameters mirror :class:`~repro.serving.server.FeBiMServer` —
    ``registry`` (a path or :class:`ModelRegistry`; workers re-open the
    same root), ``policy`` (micro-batch bounds, applied inside each
    worker), ``seed`` / ``max_rows`` (engine materialisation, identical
    to local placement) — plus:

    heartbeat_period_s:
        Worker liveness cadence; a worker is lost after
        ``LOST_AFTER_PERIODS`` silent periods.
    maintenance_period_s:
        Sweep cadence — supervision, then the heal ladder over every
        worker-hosted replica (``None`` disables the background thread:
        call ``router.check_all()`` manually, e.g. in tests).

    Everything else is the server's.  A deployment's
    ``placement.workers`` workers are spawned on first use; an
    undeployed model's implicit deployment is placed on a worker too.
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
    ):
        super().__init__(registry, policy=policy, seed=seed, max_rows=max_rows)
        self.pool = self.router.pool = WorkerPool(self, heartbeat_period_s)
        # Client futures come from this module's ``Future``, which lets a
        # test substitute a subclass that counts how often each resolves.
        self.router.plane.future = Future
        if maintenance_period_s is not None:
            self.enable_maintenance(maintenance_period_s)

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Live worker process ids (chaos/ops surface)."""
        with self.pool._lock:
            return {
                h.worker_id: h.pid
                for h in self.pool._workers.values()
                if h.state in ("starting", "up")
            }

    def kill_worker(self, worker_id: str) -> None:
        """Chaos hook: SIGKILL one worker process, no warning —
        exactly what a crashed host looks like to the front end."""
        pid = self.worker_pids().get(worker_id)
        if pid is None:
            raise KeyError(f"no live worker {worker_id!r}")
        os.kill(pid, signal.SIGKILL)
