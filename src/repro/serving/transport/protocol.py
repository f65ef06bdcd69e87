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
one queue entry — up to ``max_batch`` rows of evidence levels for one
placed replica, packed as one base64 string of little-endian int64
values plus the block's ``features`` count (:func:`pack_levels` /
:func:`unpack_levels`, so the worker reads the block back with one
``np.frombuffer``) — and the worker answers it with one ``result``
frame (:func:`encode_block` / :func:`decode_block`).  Its body holds
the rows' per-row columns in row order — ``prediction`` as a list of
the model's class labels (integers, strings or floats, as the model
holds them), and ``delay``, ``energy_total`` and ``margin`` as base64
strings of little-endian float64 columns — and the row ranges that
cover them: ``segments``, one ``[lo, hi, batch_size, queue_wait_s]``
per served segment (the values every row of a segment shares go out
once), and ``errors``, one ``[lo, hi, typed error]`` per failed range.
Together the ranges cover every row exactly once, in order; a body
whose ranges do not is refused.  Framing, the socket write and JSON
parsing are paid once per block, and packing the levels and the
floats spares the per-number decimal formatting and parsing that would
otherwise dominate a block's encoding; the packed bytes (and the
shortest round-trip decimal of a segment's ``queue_wait_s``) carry
every level, every modelled delay and energy and every wait bit for
bit.  Control frames (a ``read`` or a ``place`` frame's canaries) keep
their levels as integer lists.  The bodies stay strict JSON
(``allow_nan=False``): a packed column may hold NaN (a degenerate
margin, a failed row), which decodes to ``None`` for a margin.

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

import base64
import json
import socket
import struct
import threading
from concurrent.futures import CancelledError
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import CapabilityError
from repro.serving.scheduler import Overloaded

#: First two header bytes: "FB" (FeBiM).  A peer speaking anything else
#: (HTTP, TLS, line noise) fails on the first frame.
MAGIC = 0x4642

#: Protocol revision; bumped on any incompatible frame/body change
#: (2: block ``request`` / columnar ``result`` bodies; 3: workers host
#: replicas by placement id under per-replica control frames; 4:
#: ``place`` has no ``fresh`` flag, and one for a placement id the
#: worker hosts programs new hardware into it; 5: ``result`` float
#: columns packed as base64 little-endian float64, errors as row
#: ranges; 6: ``request`` levels packed as base64 little-endian int64
#: plus a ``features`` count; 7: ``result`` sends ``batch_size`` and
#: ``queue_wait_s`` once per served segment, as ``segments`` ranges
#: beside the error ranges, which together must cover every row).
WIRE_VERSION = 7

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


class RemoteServedResult(NamedTuple):
    """A :class:`~repro.serving.scheduler.ServedResult` that crossed the
    wire.

    Same reading surface (``prediction`` / ``delay`` / ``energy_total``
    / ``queue_wait_s`` / ``batch_size`` / ``margin``, as plain Python
    scalars) so cluster callers are drop-in; the shared batch report
    stayed in the worker — only the scalars this request owns
    travelled.  ``margin`` is the answer's winner/runner-up read margin
    (``None`` when degenerate), shipped so weighted mirror votes work
    across processes.  An immutable named tuple, built for every row of
    a reply in one pass per segment at decode (:func:`decode_block`,
    without the generated ``__new__``), so a handle reading a row
    builds nothing.
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
RESULT_COLUMNS = ("prediction", "delay", "energy_total", "margin")
#: The columns a ``result`` body packs as base64 little-endian float64.
FLOAT_COLUMNS = ("delay", "energy_total", "margin")
_FLOAT64 = np.dtype("<f8")
_INT64 = np.dtype("<i8")


def pack_levels(levels) -> Tuple[str, int]:
    """A ``request`` body's levels: an ``(n, features)`` integer block
    as base64 little-endian int64, and its feature count."""
    block = np.asarray(levels, dtype=_INT64)
    return base64.b64encode(block.tobytes()).decode("ascii"), block.shape[1]


def unpack_levels(text: str, features: int) -> np.ndarray:
    """The ``(n, features)`` int64 block :func:`pack_levels` packed, bit
    for bit: one ``np.frombuffer`` over the decoded bytes (a read-only
    view)."""
    if not isinstance(features, int) or features < 1:
        raise ProtocolError(
            f"request feature count must be an integer >= 1, got {features!r}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"request levels are not base64: {exc}")
    if len(raw) % (features * _INT64.itemsize):
        raise ProtocolError(
            f"request levels are {len(raw)} bytes, not whole rows of "
            f"{features} int64 levels"
        )
    return np.frombuffer(raw, dtype=_INT64).reshape(-1, features)


def pack_floats(values) -> str:
    """A float column as base64 little-endian float64 (NaN for ``None``)."""
    column = np.array(values, dtype=_FLOAT64)
    return base64.b64encode(column.tobytes()).decode("ascii")


def unpack_floats(text: str) -> list:
    """The floats :func:`pack_floats` packed, bit for bit."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"float column is not base64: {exc}")
    if len(raw) % _FLOAT64.itemsize:
        raise ProtocolError("float column is not whole float64 values")
    return np.frombuffer(raw, dtype=_FLOAT64).tolist()


def encode_block(
    model: str,
    columns: Dict[str, Sequence],
    segments: Sequence[Tuple[int, int, int, float]],
    errors: Sequence[Tuple[int, int, BaseException]] = (),
    replica: str = "",
    worker: str = "",
) -> dict:
    """The ``result`` body answering one ``request`` frame.

    ``columns`` maps every name in :data:`RESULT_COLUMNS` to one value
    per row of the request, in row order: ``prediction`` a list of JSON
    values (sent as it is), the :data:`FLOAT_COLUMNS` lists or arrays
    (packed).  ``segments`` names the served row ranges ``lo..hi`` as
    ``(lo, hi, batch_size, queue_wait_s)``, and ``errors`` the failed
    ones as ``(lo, hi, exception)``; a failed row's column values are
    ignored, and the exceptions go out as typed error payloads.
    """
    body = {"model": model, "replica": replica, "worker": worker,
            "prediction": columns["prediction"]}
    for name in FLOAT_COLUMNS:
        body[name] = pack_floats(columns[name])
    body["segments"] = [
        [int(lo), int(hi), int(size), float(wait)]
        for lo, hi, size, wait in segments
    ]
    body["errors"] = [
        [int(lo), int(hi), encode_error(exc)] for lo, hi, exc in errors
    ]
    return body


class ResultBlock:
    """A decoded ``result`` body: one outcome per row, built at decode.

    ``outcomes[i]`` is frame row ``i``'s :class:`RemoteServedResult`,
    or the typed exception of the error range that holds it; ``errors``
    lists those ranges as sorted, disjoint ``(lo, hi, exception)``.
    ``base`` is the slot position of the frame's first row in the chunk
    it answers (the front end sets it when it settles the reply), so
    :meth:`results` and :meth:`at` read rows by slot position, as
    :class:`~repro.serving.scheduler.ServedRows` does.
    """

    __slots__ = ("model", "replica", "worker", "outcomes", "errors", "base")

    def __init__(self, model: str, replica: str, worker: str,
                 outcomes: list, errors: list):
        self.model = model
        self.replica = replica
        self.worker = worker
        self.outcomes = outcomes
        self.errors = errors
        self.base = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def results(self, lo: int, hi: int) -> list:
        """The outcomes of the rows at slot positions ``lo..hi``."""
        return self.outcomes[lo - self.base:hi - self.base]

    def at(self, pos: int) -> Union[RemoteServedResult, BaseException]:
        """The outcome of the row at slot position ``pos``."""
        return self.outcomes[pos - self.base]

    def __getitem__(self, i: int) -> Union[RemoteServedResult, BaseException]:
        return self.outcomes[i]


def decode_block(payload: dict) -> ResultBlock:
    """The :class:`ResultBlock` of a ``result`` body.

    Refuses with :class:`ProtocolError` columns of different lengths,
    and ranges that do not cover every row exactly once: segments out
    of order, ranges that overlap (a segment on an error range, too),
    run past the rows or are empty, and rows no range covers.
    """
    predictions = payload["prediction"]
    delay, energy, margins = (
        unpack_floats(payload[name]) for name in FLOAT_COLUMNS
    )
    n = len(predictions)
    if any(len(column) != n for column in (delay, energy, margins)):
        raise ProtocolError("result columns differ in length")
    # A NaN margin (degenerate, or a failed row's placeholder) reads None.
    margins = [None if m != m else m for m in margins]
    segments = [
        (int(lo), int(hi), (int(size), float(wait)))
        for lo, hi, size, wait in payload["segments"]
    ]
    if any(a[0] >= b[0] for a, b in zip(segments, segments[1:])):
        raise ProtocolError("result segments are not in row order")
    errors = sorted(
        ((int(lo), int(hi), decode_error(error))
         for lo, hi, error in payload.get("errors", ())),
        key=lambda error: error[0],
    )
    model = payload["model"]
    replica = payload.get("replica", "")
    worker = payload.get("worker", "")
    outcomes: list = []
    for lo, hi, what in sorted(segments + errors, key=lambda r: r[0]):
        if lo != len(outcomes) or not lo < hi <= n:
            raise ProtocolError(
                f"result ranges do not cover {n} rows once each: "
                f"{lo}..{hi} after row {len(outcomes)}"
            )
        k = hi - lo
        if isinstance(what, BaseException):
            outcomes += [what] * k
            continue
        size, wait = what
        outcomes += map(tuple.__new__, repeat(RemoteServedResult, k), zip(
            repeat(model, k), predictions[lo:hi], delay[lo:hi],
            energy[lo:hi], repeat(wait, k), repeat(size, k), margins[lo:hi],
            repeat(replica, k), repeat(worker, k),
        ))
    if len(outcomes) != n:
        raise ProtocolError(
            f"result ranges cover {len(outcomes)} of {n} rows"
        )
    return ResultBlock(model, replica, worker, outcomes, errors)


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
            "prediction": [result.prediction],
            "delay": [float(result.delay)],
            "energy_total": [float(result.energy_total)],
            "margin": [margin],
        },
        [(0, 1, result.batch_size, result.queue_wait_s)],
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
