"""Worker process: replica hosts behind a message loop.

A worker hosts replicas for a :class:`~repro.serving.cluster.ClusterServer`
front end, whose :class:`~repro.serving.router.Router` owns them — every
routing decision, every heal-ladder verdict and every state flip is the
front end's.  The worker keeps no router and no server: only one
:class:`~repro.serving.host.ReplicaHost` (a programmed engine and its
micro-batch scheduler) per placement id the front end minted, so during
a re-apply one worker can hold an old and a new ``r0`` at once.  Engines
materialise with the replica's own index and the front end's base seed,
so they are bit-identical to the ones a local deployment would build.

Control frames call the host's methods — ``place`` (program and probe:
the first ``place`` of a placement id builds its host, a later one
programs new hardware into it, the replace rung), ``read`` (canary read),
``program`` (refresh), ``repair`` (spare rows), ``kill``,
``inventory`` and ``retire`` — and are acked by one ``done`` frame (or
an ``error``).  Three threads per worker:

* the **message loop** (main thread) dispatches control and request
  frames; request execution itself is asynchronous — a ``request``
  frame's packed levels are read back with one ``np.frombuffer`` and
  queued as one entry owned by the frame's
  :class:`_Block`, the scheduler settles it through the block one
  segment at a time, and the call that settles the last row sends the
  frame's one ``result`` reply, built from slices of the batch reports,
  so a slow batch never blocks control traffic;
* the **heartbeat thread** sends liveness only, on the supervision
  cadence — the signal whose absence triggers failover;
* each host's scheduler batch worker.

Worker-side observability is not lost: a :class:`_EventForwarder`
attached as the worker telemetry's flight recorder ships every emitted
event (sheds, displacements) upstream as ``event`` frames, which the
front end replays into its own recorder tagged with the worker id.

The module-level :func:`worker_main` entry point is what
``multiprocessing`` (spawn context — no forked locks, a clean
interpreter) launches; everything it needs travels in a picklable
config dict.  Its boot imports the serving graph only (numpy,
``scipy.special`` and ``repro``'s own modules): the Fig. 5c ODE solver
and the network/TAN structure code import where they are called.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from concurrent.futures import CancelledError
from typing import Dict, List, Tuple

import numpy as np

from repro.reliability.observability import margin_signal, report_currents
from repro.serving.deployment import ReplicaSpec
from repro.serving.host import CanaryRead, ReplicaHost
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import BatchPolicy, _Request
from repro.serving.telemetry import Telemetry
from repro.serving.transport.protocol import (
    MessageConnection,
    ProtocolError,
    encode_block,
    encode_error,
    encode_frame,
    make,
    unpack_levels,
)


def _jsonable(value):
    """Best-effort JSON-safe projection of an event detail value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        if isinstance(value, float) and value != value:
            return None  # NaN has no strict-JSON spelling
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class _EventForwarder:
    """Duck-typed flight recorder that ships events upstream.

    Attached as ``telemetry.recorder`` inside the worker: every
    :meth:`~repro.serving.telemetry.Telemetry.emit` call site in the
    scheduler transparently becomes an ``event`` frame.  Send failures
    are swallowed — a dying connection must not take the serving path
    down with it; the front end notices the loss through the
    heartbeat/reader channel instead.
    """

    def __init__(self, conn: MessageConnection, worker_id: str):
        self._conn = conn
        self._worker_id = worker_id

    def record(self, kind: str, **detail) -> None:
        try:
            self._conn.send(make(
                "event",
                worker=self._worker_id,
                event_kind=kind,
                detail=_jsonable(detail),
            ))
        except Exception:
            pass


class _Block:
    """One ``request`` frame's entry inside the worker, and its owner.

    The scheduler settles the entry through the owner calls (see
    :class:`~repro.serving.scheduler._Request`), once per segment; the
    block keeps each served segment's results and each failed
    segment's row range, and the call that settles its last row sends
    the frame's one ``result`` reply (from whichever thread made it —
    normally the batch worker, right after the read).
    """

    __slots__ = ("host", "request_id", "replica", "n", "settled", "results",
                 "errors", "lock")

    def __init__(self, host: "WorkerHost", request_id, replica, n: int):
        self.host = host
        self.request_id = request_id
        self.replica = replica
        self.n = n
        self.settled = 0
        self.results: list = []  # (entry segment, its ServedRows)
        self.errors: list = []  # (lo, hi, exception)
        self.lock = threading.Lock()

    def claim(self, entries: List[_Request]) -> List[_Request]:
        return entries  # no client in this process can cancel a row

    def served(self, entries: List[_Request], results: list,
               finished: float) -> None:
        self._settle(entries, list(zip(entries, results)), [])

    def failed(self, entries: List[_Request], exc: BaseException,
               ran: bool) -> None:
        self._settle(entries, [], [
            (entry.lo, entry.lo + len(entry), exc) for entry in entries
        ])

    def cancel(self, entries: List[_Request]) -> None:
        # Typed on the wire, so the front end settles these rows as
        # cancelled, as a local queue would.
        self.failed(entries, CancelledError(), False)

    def _settle(self, entries: List[_Request], results: list,
                errors: list) -> None:
        """Record settled segments; the call that completes the block
        replies."""
        with self.lock:
            self.results += results
            self.errors += errors
            self.settled += sum(map(len, entries))
            if self.settled < self.n:
                return
        self.host._reply(self)


def _result_columns(block: _Block) -> Tuple[dict, list]:
    """The ``result`` columns of a settled block, one slice of a batch
    report per served segment, and its served segments as ``(lo, hi,
    batch_size, queue_wait_s)``; the read margins are one
    :func:`margin_signal` call per segment over the currents the read
    already sensed.  Failed rows keep placeholders (their error ranges
    go out beside the segments).  Predictions are the model's own class
    labels, so their column is a list of the report's values, whatever
    their type."""
    n = block.n
    columns = {
        "prediction": [None] * n,
        "delay": np.full(n, np.nan),
        "energy_total": np.full(n, np.nan),
        "margin": np.full(n, np.nan),
    }
    segments = []
    for entry, rows in block.results:
        report = rows.report
        lo, hi = entry.lo, entry.lo + len(entry)
        read = slice(lo + rows.shift, hi + rows.shift)
        columns["prediction"][lo:hi] = (
            np.asarray(report.predictions)[read].tolist()
        )
        columns["delay"][lo:hi] = np.asarray(report.delay)[read]
        columns["energy_total"][lo:hi] = np.asarray(report.energy.total)[read]
        segments.append((lo, hi, rows.batch_size, rows.queue_wait_s))
        try:
            columns["margin"][lo:hi] = margin_signal(
                report_currents(report)[read]
            )[0]
        except Exception:  # noqa: BLE001 — a margin never fails a reply
            pass
    return columns, segments


class WorkerHost:
    """The message loop around one worker's replica hosts.

    Carries the ``registry`` / ``policy`` / ``telemetry`` / ``seed`` /
    ``max_rows`` context every :class:`~repro.serving.host.ReplicaHost`
    it builds materialises and batches with.
    """

    def __init__(self, worker_id: str, conn: MessageConnection, config: dict):
        self.worker_id = worker_id
        self.conn = conn
        self.policy = BatchPolicy(max_batch=int(config.get("max_batch", 32)))
        self.registry = ModelRegistry(
            config["registry_root"],
            backend=config.get("backend", "fefet"),
            backend_options=config.get("backend_options"),
        )
        self.seed = config.get("seed")
        self.max_rows = config.get("max_rows")
        self.telemetry = Telemetry(self.policy.max_batch)
        self.telemetry.recorder = _EventForwarder(conn, worker_id)
        self.hosts: Dict[str, ReplicaHost] = {}
        self.heartbeat_period_s = float(config.get("heartbeat_period_s", 0.25))
        self._closed = threading.Event()

    # ------------------------------------------------------------- lifecycle
    def run(self) -> None:
        """Serve frames until ``shutdown`` or the connection dies."""
        self.conn.send(make("hello", worker=self.worker_id, pid=os.getpid()))
        threading.Thread(
            target=self._heartbeat_loop,
            name=f"worker-{self.worker_id}-heartbeat",
            daemon=True,
        ).start()
        try:
            while not self._closed.is_set():
                try:
                    message = self.conn.recv()
                except (ProtocolError, OSError):
                    break
                if message is None:  # front end went away; die with it
                    break
                if not self._dispatch(message):
                    break
        finally:
            self.close()
            self.conn.close()

    def close(self) -> None:
        """Stop every host's scheduler, cancelling what is queued."""
        self._closed.set()
        for host in list(self.hosts.values()):
            host.retire(drain=False)
        self.hosts.clear()

    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self.heartbeat_period_s):
            try:
                self.conn.send(make("heartbeat", worker=self.worker_id))
            except Exception:
                return  # connection gone; the message loop is dying too

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, message: dict) -> bool:
        """Handle one frame; ``False`` ends the message loop."""
        kind = message["kind"]
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            self._send_error(
                message.get("id"),
                ProtocolError(f"worker cannot handle {kind!r} frames"),
            )
            return True
        try:
            return handler(message) is not False
        except Exception as exc:  # noqa: BLE001 — reply, never crash the loop
            self._send_error(message.get("id"), exc)
            return True

    def _send_error(self, request_id, exc: BaseException) -> None:
        try:
            self.conn.send(make(
                "error",
                id=request_id,
                worker=self.worker_id,
                error=encode_error(exc),
            ))
        except Exception:
            pass

    def _done(self, message: dict, result=None) -> None:
        """Ack a control frame with the host method's ``result``."""
        if isinstance(result, CanaryRead):
            result = result.fields()
        self.conn.send(make(
            "done", id=message.get("id"), worker=self.worker_id, result=result
        ))

    def _host(self, message: dict) -> ReplicaHost:
        placement = message["placement"]
        host = self.hosts.get(placement)
        if host is None:
            raise KeyError(f"worker {self.worker_id} hosts no {placement!r}")
        return host

    # ------------------------------------------------------ replica control
    def _on_place(self, message: dict):
        """Program and probe the replica under the placement id the
        front end minted: a placed one gets new hardware (the replace
        rung), and an unknown id first gets a host, built from ``host``
        (its :class:`ReplicaHost` arguments)."""
        host = self.hosts.get(message["placement"])
        if host is not None:
            return self._done(message, host.place(message.get("canaries")))
        args = message["host"]
        host = ReplicaHost(
            self, **dict(args, spec=ReplicaSpec.from_dict(args["spec"]))
        )
        try:
            read = host.place(message.get("canaries"))
        except Exception:
            host.retire(drain=False)
            raise
        self.hosts[message["placement"]] = host
        self._done(message, read)

    def _on_control(self, message: dict):
        """``read`` / ``program`` / ``repair`` / ``kill`` / ``inventory``:
        the host method of the frame's kind, its result in the ack."""
        args = {
            k: v for k, v in message.items()
            if k not in ("kind", "id", "placement")
        }
        self._done(message, getattr(self._host(message), message["kind"])(**args))

    _on_read = _on_program = _on_repair = _on_kill = _on_inventory = _on_control

    def _on_retire(self, message: dict):
        host = self.hosts.pop(message["placement"], None)
        if host is not None:
            host.retire(drain=bool(message.get("drain", True)))
        self._done(message)

    # -------------------------------------------------------- request plane
    def _on_request(self, message: dict):
        """Queue one block of rows on the placed replica it addresses.

        The rows go in as one entry under one scheduler lock, owned by
        the frame's :class:`_Block`; the reply leaves once the last row
        settles — the message loop is already back on ``recv`` while the
        batch coalesces, so a worker pipelines many in-flight blocks.
        """
        host = self._host(message)
        levels = unpack_levels(message["levels"], message["features"])
        if not len(levels):
            raise ProtocolError("request levels must hold at least one row")
        block = _Block(self, message["id"], host, len(levels))
        host.enqueue([_Request(
            levels, time.monotonic(), int(message.get("priority", 0)), block
        )])

    def _reply(self, block: _Block) -> None:
        """Send a finished block's ``result`` frame.

        A reply that cannot be encoded (larger than ``MAX_FRAME``, or
        not strict JSON) is answered with an ``error`` frame instead, so
        no front-end row waits forever on it.
        """
        host = block.replica
        try:
            columns, segments = _result_columns(block)
            frame = encode_frame(make(
                "result",
                id=block.request_id,
                worker=self.worker_id,
                result=encode_block(
                    str(host.key),
                    columns,
                    segments,
                    block.errors,
                    replica=host.label,
                    worker=self.worker_id,
                ),
            ))
        except (ProtocolError, ValueError) as exc:
            self._send_error(block.request_id, exc)
            return
        try:
            self.conn.send(frame)
        except Exception:
            pass  # connection gone; the front end fails the block over

    def _on_shutdown(self, message: dict):
        return False  # run()'s finally stops every host


def worker_main(worker_id: str, address, config: dict) -> None:
    """Spawn entry point: connect back to the front end and serve.

    Runs in a fresh interpreter (spawn context), so everything arrives
    through picklable arguments; exceptions escaping the host are
    printed (the front end's reader sees the EOF and supervises).
    """
    sock = socket.create_connection(tuple(address))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn = MessageConnection(sock)
    try:
        WorkerHost(worker_id, conn, config).run()
    except Exception:
        traceback.print_exc()
        raise
