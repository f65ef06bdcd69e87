"""Request tracing: decompose one served request into its stages.

A :class:`Trace` is the story of one request told as a sequence of
:class:`Span` intervals — ``admit`` (admission control), ``queue``
(lane wait before its micro-batch launched), ``execute`` (the batched
backend read, with the modeled device delay and energy attached), plus
zero-duration ``failover`` markers for every replica hop.  Spans are
laid end to end, never nested, so the sum of span durations accounts
for the trace's whole wall-clock life — the invariant the
observability gate asserts (``benchmarks/bench_observability.py``).

Sampling is the :class:`Tracer`'s job and is deliberately boring:
**every Nth submit** (``N = round(1 / sample_rate)``) gets a trace, so
a traced run is reproducible and the untraced hot path pays exactly one
``None`` check.  With ``sample_rate=0`` (the default everywhere)
``sample()`` returns ``None`` before touching the lock — tracing costs
nothing until someone turns it on.

Traces land in a bounded ring (the shared
:class:`~repro.reliability.observability.BoundedLog`, strict JSONL
like every other observability log) at *creation* time, not
completion: a request that vanished mid-flight shows up as a trace
with an open span, which is precisely the kind of request a flight
recorder dump gets pulled for.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

from repro.reliability.observability import BoundedLog

#: Default ring capacity for retained traces.
TRACE_CAPACITY = 256


class Span:
    """One timed stage of a traced request.

    ``start_s`` / ``end_s`` are ``time.monotonic()`` readings;
    ``attributes`` carries per-stage scalars (batch size, modeled device
    delay, energy).  A span with ``end_s is None`` is still open —
    every code path that opens a span must close it, shed and error
    paths included (asserted by the observability CI gate).
    """

    __slots__ = ("name", "start_s", "end_s", "attributes")

    def __init__(
        self,
        name: str,
        start_s: float,
        end_s: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.start_s = float(start_s)
        self.end_s = None if end_s is None else float(end_s)
        self.attributes: Dict[str, object] = attributes or {}

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def end(self, end_s: Optional[float] = None, **attributes) -> "Span":
        """Close the span (idempotent) and fold in final attributes."""
        if self.end_s is None:
            self.end_s = time.monotonic() if end_s is None else float(end_s)
        if attributes:
            self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_s * 1e3,
            "closed": self.closed,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        state = f"{self.duration_s * 1e3:.3f} ms" if self.closed else "open"
        return f"Span({self.name!r}, {state})"


class Trace:
    """The spans of one sampled request, in submission order.

    Spans are appended from whichever thread currently owns the request
    (client thread for ``admit``, scheduler worker for ``queue`` /
    ``execute``, another worker for a failover resubmit), so appends
    take a small per-trace lock.  Stages never overlap in time — the
    request is in exactly one place at once — which keeps
    ``sum(span durations) ~= duration`` true even across failover hops.
    """

    __slots__ = ("trace_id", "route", "client", "created_s", "finished_s",
                 "outcome", "_spans", "_lock")

    def __init__(self, trace_id: int, route: str, client: Optional[str] = None):
        self.trace_id = int(trace_id)
        self.route = route
        self.client = client
        self.created_s = time.monotonic()
        self.finished_s: Optional[float] = None
        self.outcome: Optional[str] = None
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- spans
    def span(
        self, name: str, start_s: Optional[float] = None, **attributes
    ) -> Span:
        """Open a span; the caller must :meth:`Span.end` it."""
        span = Span(
            name,
            time.monotonic() if start_s is None else start_s,
            attributes=attributes or None,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def add_span(
        self, name: str, start_s: float, end_s: float, **attributes
    ) -> Span:
        """Append an already-closed span (e.g. a zero-width marker)."""
        span = Span(name, start_s, end_s=end_s, attributes=attributes or None)
        with self._lock:
            self._spans.append(span)
        return span

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def open_spans(self) -> List[Span]:
        """Spans not yet closed (must be empty after a drained run)."""
        return [s for s in self.spans if not s.closed]

    # -------------------------------------------------------------- lifecycle
    def finish(self, outcome: str = "served",
               end_s: Optional[float] = None) -> "Trace":
        """Mark the request resolved at ``end_s`` (default: now);
        idempotent, the first outcome wins."""
        if self.finished_s is None:
            self.finished_s = time.monotonic() if end_s is None else end_s
            self.outcome = outcome
        return self

    @property
    def finished(self) -> bool:
        return self.finished_s is not None

    @property
    def duration_s(self) -> float:
        """Creation -> finish wall clock (0.0 while in flight)."""
        if self.finished_s is None:
            return 0.0
        return self.finished_s - self.created_s

    def span_total_s(self) -> float:
        """Sum of closed span durations — the accounted-for time."""
        return sum(s.duration_s for s in self.spans)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "client": self.client,
            "outcome": self.outcome,
            "duration_ms": self.duration_s * 1e3,
            "span_total_ms": self.span_total_s() * 1e3,
            "finished": self.finished,
            "spans": [s.to_dict() for s in self.spans],
        }

    def format_lines(self) -> str:
        """Human-readable one-trace report: :func:`format_trace_dicts`
        of its :meth:`to_dict`, the one trace renderer."""
        return format_trace_dicts([self.to_dict()])


def _fmt_attr(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_trace_dicts(traces) -> str:
    """Render serialised traces (:meth:`Trace.to_dict` rows) for
    ``febim trace`` — the CLI sees workload results after JSON
    round-tripping, so it formats dicts, not live objects."""
    traces = list(traces)
    if not traces:
        return "tracer: no traces sampled"
    lines = []
    for trace in traces:
        head = (
            f"trace {trace['trace_id']} {trace['route']}"
            + (f" client={trace['client']}" if trace.get("client") else "")
            + f"  {trace['duration_ms']:.3f} ms -> "
            + (trace["outcome"] or "in flight")
        )
        lines.append(head)
        for span in trace["spans"]:
            attrs = "  ".join(
                f"{k}={_fmt_attr(v)}"
                for k, v in sorted(span["attributes"].items())
            )
            state = (
                f"{span['duration_ms']:9.3f} ms"
                if span["closed"]
                else "     open"
            )
            lines.append(f"  {span['name']:<12s} {state}  {attrs}".rstrip())
    return "\n".join(lines)


class Tracer(BoundedLog):
    """Deterministic every-Nth request sampler with a bounded trace ring.

    Parameters
    ----------
    sample_rate:
        Fraction of submits to trace, in ``[0, 1]``.  ``0`` disables
        sampling entirely (the hot path sees a single early return);
        any positive rate traces every ``round(1 / rate)``-th submit —
        deterministic, so benchmark runs are reproducible.
    capacity:
        Ring size for retained traces (oldest evicted first).
    """

    def __init__(
        self, sample_rate: float = 0.0, capacity: int = TRACE_CAPACITY
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must lie in [0, 1], got {sample_rate}"
            )
        super().__init__(capacity)
        self.sample_rate = float(sample_rate)
        self._period = 0 if sample_rate <= 0 else max(1, round(1.0 / sample_rate))
        self._counter = itertools.count()
        self._ids = itertools.count()

    @property
    def enabled(self) -> bool:
        return self._period > 0

    def sample(self, route: str, client: Optional[str] = None) -> Optional[Trace]:
        """A new :class:`Trace` for this submit, or ``None`` (unsampled).

        The disabled check comes first and touches no shared state:
        with ``sample_rate=0`` tracing is one comparison per request.
        """
        if self._period == 0:
            return None
        if next(self._counter) % self._period:
            return None
        return self._append(Trace(next(self._ids), route, client=client))

    # --------------------------------------------------------------- reading
    def traces(self) -> List[Trace]:
        """Retained traces, oldest first (finished or not)."""
        return self._snapshot()

    def finished(self) -> List[Trace]:
        return [t for t in self.traces() if t.finished]

    def __repr__(self) -> str:
        return (
            f"Tracer(rate={self.sample_rate:g}, {len(self)} traces retained)"
        )
