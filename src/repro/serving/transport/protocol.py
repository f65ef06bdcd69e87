"""Versioned length-prefixed JSON wire protocol for the serving plane.

The cross-process placement layer (:mod:`repro.serving.cluster` front
end, :mod:`repro.serving.worker` replica hosts) speaks frames over a
stream socket.  Each frame is::

    !HHI header  = (magic 0x4642 "FB", wire version, body length)
    body         = UTF-8 strict JSON object with a "kind" field

Length-prefixing makes framing trivial and robust: a reader knows
exactly how many bytes the body occupies before parsing a single one,
a truncated stream is detected (EOF mid-frame raises
:class:`ProtocolError` instead of silently dropping the tail), and an
oversized or garbage header is rejected before any allocation.  The
version field is checked on every frame — a future incompatible change
bumps :data:`WIRE_VERSION` and old peers fail loudly with the version
they saw, never by misparsing bytes.

The front end's router owns every replica; a worker only hosts them,
each under a placement id the front end mints.  Per-replica control
frames carry the heal ladder and the replica lifecycle to the host —
``place`` (program and probe: the first for a placement id builds its
host, a later one swaps in new hardware, the replace rung), ``read``
(a canary read: predictions and wordline currents), ``program`` (the
refresh rung), ``repair`` (the spare-repair rung), ``kill`` (chaos),
``inventory`` (spare rows and BIST faults) and ``retire`` — each acked
by one ``done`` frame or answered by an ``error``.  Heartbeats carry
liveness only.

The request plane moves blocks, not rows: one ``request`` frame carries
up to ``max_batch`` rows of evidence levels (a list of integer lists)
for one placed replica, and the worker answers it with one ``result`` frame
whose body holds the rows' columns in row order — ``prediction``,
``delay``, ``energy_total``, ``queue_wait_s``, ``batch_size``,
``margin`` — plus an ``errors`` list of ``[row, typed error]`` pairs
for rows that failed (:func:`encode_block` / :func:`decode_block`).
Framing, the socket write and JSON parsing are paid once per block.
The bodies stay strict JSON — a block of short integer rows and float
columns is small next to :data:`MAX_FRAME`, and Python's float repr
round-trips every modelled delay and energy bit for bit.
``allow_nan=False`` keeps the wire strict: NaN margins are mapped to
``null`` explicitly before encoding.

Typed scheduler errors survive the boundary: :func:`encode_error` /
:func:`decode_error` rebuild :class:`~repro.serving.scheduler.Overloaded`
(with key/depth/lane), :class:`~concurrent.futures.CancelledError` (a
row a worker's queue cancelled) and
:class:`~repro.backends.base.CapabilityError` (with backend/capability)
on the client side, so cluster callers catch exactly the exceptions the
in-process path raises.  Anything else degrades to
:class:`RemoteWorkerError` carrying the original type name (so does an
error type a peer does not know).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from concurrent.futures import CancelledError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.backends.base import CapabilityError
from repro.serving.scheduler import Overloaded

#: First two header bytes: "FB" (FeBiM).  A peer speaking anything else
#: (HTTP, TLS, line noise) fails on the first frame.
MAGIC = 0x4642

#: Protocol revision; bumped on any incompatible frame/body change
#: (2: block ``request`` / columnar ``result`` bodies; 3: workers host
#: replicas by placement id under per-replica control frames; 4:
#: ``place`` has no ``fresh`` flag, and one for a placement id the
#: worker hosts programs new hardware into it).
WIRE_VERSION = 4

#: Frame header: (magic, version, body length), network byte order.
HEADER = struct.Struct("!HHI")

#: Upper bound on one frame's body.  Block frames grow with
#: ``max_batch``: a 256-row iris block is a few kilobytes, and 8 MiB
#: holds tens of thousands of rows while still rejecting a corrupt
#: length field before a multi-gigabyte allocation.  A block too large
#: for it fails its own rows (front end) or is answered with an
#: ``error`` frame (worker); it never takes a connection down.
MAX_FRAME = 8 * 1024 * 1024

#: Closed message taxonomy — same philosophy as the flight recorder's
#: EVENT_KINDS: a typo'd kind fails loudly at the emission site.
MESSAGE_KINDS = frozenset(
    {
        # session establishment (worker -> front end)
        "hello",
        # per-replica control (front end -> worker, acked by "done")
        "place",
        "read",
        "program",
        "repair",
        "kill",
        "inventory",
        "retire",
        "done",
        # request plane
        "request",
        "result",
        "error",
        # supervision + observability (worker -> front end)
        "heartbeat",
        "event",
        # shutdown (front end -> worker)
        "shutdown",
    }
)


class ProtocolError(RuntimeError):
    """A malformed, truncated, oversized or wrong-version frame."""


def make(kind: str, **fields) -> dict:
    """A message dict with a validated ``kind``."""
    if kind not in MESSAGE_KINDS:
        raise ProtocolError(
            f"unknown message kind {kind!r} "
            f"(taxonomy: {', '.join(sorted(MESSAGE_KINDS))})"
        )
    message = {"kind": kind}
    message.update(fields)
    return message


def encode_frame(message: dict) -> bytes:
    """One wire frame (header + JSON body) for ``message``."""
    kind = message.get("kind")
    if kind not in MESSAGE_KINDS:
        raise ProtocolError(f"refusing to encode unknown kind {kind!r}")
    body = json.dumps(message, allow_nan=False).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame body {len(body)} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )
    return HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    :meth:`feed` accepts whatever chunk the transport produced —
    half a header, three frames and a tail, anything — and returns the
    complete messages it unlocked.  :meth:`close` asserts the stream
    ended on a frame boundary; buffered partial bytes at EOF are a
    truncation and raise :class:`ProtocolError`.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[dict]:
        self._buffer.extend(data)
        messages: List[dict] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return messages
            magic, version, length = HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x})"
                )
            if version != WIRE_VERSION:
                raise ProtocolError(
                    f"unsupported wire version {version} "
                    f"(this end speaks {WIRE_VERSION})"
                )
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame body {length} bytes exceeds MAX_FRAME {MAX_FRAME}"
                )
            if len(self._buffer) < HEADER.size + length:
                return messages
            body = bytes(self._buffer[HEADER.size:HEADER.size + length])
            del self._buffer[:HEADER.size + length]
            try:
                message = json.loads(body)
            except ValueError as exc:
                raise ProtocolError(f"frame body is not valid JSON: {exc}")
            if not isinstance(message, dict) or "kind" not in message:
                raise ProtocolError("frame body is not a keyed message object")
            if message["kind"] not in MESSAGE_KINDS:
                raise ProtocolError(
                    f"unknown message kind {message['kind']!r} on the wire"
                )
            messages.append(message)

    def close(self) -> None:
        if self._buffer:
            raise ProtocolError(
                f"stream truncated mid-frame ({len(self._buffer)} "
                "bytes buffered at EOF)"
            )


class MessageConnection:
    """Framed messages over a connected stream socket.

    ``send`` is serialised under a lock (results, heartbeats and event
    forwards leave a worker from different threads); ``recv`` is
    single-reader by convention (each end owns one reader thread).
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._decoder = FrameDecoder()
        self._ready: List[dict] = []
        self._closed = False

    def send(self, message: Union[dict, bytes]) -> None:
        """Send one message dict, or a frame :func:`encode_frame`
        already built (so a caller can settle encoding failures before
        committing to the send)."""
        frame = message if isinstance(message, bytes) else encode_frame(message)
        with self._send_lock:
            self._sock.sendall(frame)

    def recv(self) -> Optional[dict]:
        """The next message, or ``None`` on clean EOF.

        EOF while a partial frame is buffered raises
        :class:`ProtocolError` — the peer died mid-send.
        """
        while not self._ready:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                self._decoder.close()  # raises on a buffered partial frame
                return None
            self._ready.extend(self._decoder.feed(chunk))
        return self._ready.pop(0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# --------------------------------------------------------------------------
# typed payload codecs


class RemoteWorkerError(RuntimeError):
    """A worker-side failure with no richer typed mapping.

    ``exc_type`` preserves the original exception class name so logs
    and failover events stay diagnosable across the boundary.
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


def encode_error(exc: BaseException) -> dict:
    """The JSON payload for a worker-side exception."""
    if isinstance(exc, Overloaded):
        return {
            "type": "overloaded",
            "message": str(exc),
            "key": None if exc.key is None else str(exc.key),
            "depth": exc.depth,
            "lane": exc.lane,
        }
    if isinstance(exc, CancelledError):
        return {"type": "cancelled", "message": str(exc)}
    if isinstance(exc, CapabilityError):
        return {
            "type": "capability",
            "backend": exc.backend,
            "capability": exc.capability,
            "message": str(exc),
        }
    return {
        "type": "runtime",
        "exc_type": type(exc).__name__,
        "message": str(exc),
    }


def decode_error(payload: dict) -> BaseException:
    """The client-side exception for an ``error`` payload."""
    etype = payload.get("type", "runtime")
    if etype == "overloaded":
        return Overloaded(
            payload.get("message", "overloaded"),
            key=payload.get("key"),
            depth=int(payload.get("depth", 0)),
            lane=int(payload.get("lane", 0)),
        )
    if etype == "cancelled":
        return CancelledError(payload.get("message", ""))
    if etype == "capability":
        exc = CapabilityError.__new__(CapabilityError)
        RuntimeError.__init__(exc, payload.get("message", "capability error"))
        exc.backend = payload.get("backend", "?")
        exc.capability = payload.get("capability", "?")
        return exc
    return RemoteWorkerError(
        payload.get("exc_type", "RuntimeError"),
        payload.get("message", "remote worker failure"),
    )


@dataclass(frozen=True)
class RemoteServedResult:
    """A :class:`~repro.serving.scheduler.ServedResult` view that crossed
    the wire.

    Same reading surface (``prediction`` / ``delay`` / ``energy_total``
    / ``queue_wait_s`` / ``batch_size``) so cluster callers are
    drop-in; the shared batch report stayed in the worker — only the
    scalars this request owns travelled.  ``margin`` is the answer's
    winner/runner-up read margin (``None`` when degenerate), shipped so
    weighted mirror votes work across processes.
    """

    model: str
    prediction: int
    delay: float
    energy_total: float
    queue_wait_s: float
    batch_size: int
    margin: Optional[float] = None
    replica: str = ""
    worker: str = ""


#: The per-row columns of a ``result`` body, in wire order.
RESULT_COLUMNS = (
    "prediction", "delay", "energy_total", "queue_wait_s", "batch_size",
    "margin",
)


def encode_block(
    model: str,
    columns: Dict[str, list],
    errors: Sequence[Tuple[int, BaseException]] = (),
    replica: str = "",
    worker: str = "",
) -> dict:
    """The ``result`` body answering one ``request`` frame.

    ``columns`` maps every name in :data:`RESULT_COLUMNS` to a list with
    one entry per row of the request, in row order.  ``errors`` names
    the rows that failed as ``(row, exception)`` pairs; their column
    entries go out as ``null`` and the exceptions as typed error
    payloads.  NaN margins go out as ``null`` too.  The column lists are
    used in place (failed rows are blanked in them), not copied.
    """
    body = {"model": model, "replica": replica, "worker": worker}
    for name in RESULT_COLUMNS:
        body[name] = columns[name]
    body["margin"] = [None if m != m else m for m in body["margin"]]
    wire_errors = []
    for row, exc in errors:
        for name in RESULT_COLUMNS:
            body[name][row] = None
        wire_errors.append([int(row), encode_error(exc)])
    body["errors"] = wire_errors
    return body


def decode_block(
    payload: dict,
) -> List[Union[RemoteServedResult, BaseException]]:
    """One outcome per row of a ``result`` body, in row order: the row's
    :class:`RemoteServedResult`, or its typed exception."""
    columns = [payload[name] for name in RESULT_COLUMNS]
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ProtocolError("result columns differ in length")
    model = payload["model"]
    replica = payload.get("replica", "")
    worker = payload.get("worker", "")
    failed = {
        int(row): decode_error(error)
        for row, error in payload.get("errors", ())
    }
    # RESULT_COLUMNS follows RemoteServedResult's field order.
    return [
        failed[i] if i in failed
        else RemoteServedResult(model, *values, replica, worker)
        for i, values in enumerate(zip(*columns))
    ]


def encode_result(result, margin: Optional[float] = None,
                  replica: str = "", worker: str = "") -> dict:
    """The ``result`` body for one served request: the one-row case of
    :func:`encode_block`.

    Accepts a live :class:`ServedResult` or a :class:`RemoteServedResult`
    (margins default to the remote result's own when not overridden).
    """
    if margin is None:
        margin = getattr(result, "margin", None)
    return encode_block(
        result.model,
        {
            "prediction": [int(result.prediction)],
            "delay": [float(result.delay)],
            "energy_total": [float(result.energy_total)],
            "queue_wait_s": [float(result.queue_wait_s)],
            "batch_size": [int(result.batch_size)],
            "margin": [margin],
        },
        replica=replica or getattr(result, "replica", ""),
        worker=worker or getattr(result, "worker", ""),
    )


def decode_result(payload: dict) -> RemoteServedResult:
    """The first row of a ``result`` body (raising its error, if it
    failed): the one-row case of :func:`decode_block`."""
    outcome = decode_block(payload)[0]
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome
