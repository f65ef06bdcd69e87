"""Flight recorder: a bounded ring of typed serving-plane events.

The telemetry counters say *how many* requests were shed; after an
incident the question is *which, in what order, and why*.  The
:class:`FlightRecorder` answers it: every noteworthy transition in the
serving plane — a shed, a displacement, a failover hop, a canary
failure, a heal-ladder rung, a scale decision with the snapshot that
triggered it — is appended as a :class:`FlightEvent` with a monotonic
sequence number, so a JSONL dump replays the incident in causal order.

Events are emitted through
:meth:`repro.serving.telemetry.Telemetry.emit`, which is a single
``None`` check when no recorder is attached — the recorder costs
nothing until armed.  The ring is bounded (oldest events evicted), so a
long-lived server can leave it on permanently; capacity is the
retention window, not a leak.

The event taxonomy is **closed**: :meth:`FlightRecorder.record`
rejects kinds outside :data:`EVENT_KINDS`, so a typo at an emission
site fails loudly in tests instead of silently fragmenting the stream.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.utils.validation import check_positive_int

#: Default ring capacity.
RECORDER_CAPACITY = 4096

#: The closed event taxonomy (see ARCHITECTURE.md, observability layer).
EVENT_KINDS = frozenset(
    {
        # admission control (scheduler)
        "shed",  # arrival door-rejected: queue full, nothing cheaper queued
        "displacement",  # queued victim evicted to admit a higher lane
        "backpressure_block",  # a blocking submit actually waited for space
        # routing (router)
        "failover",  # one replica attempt failed; its rows resubmitted
        "replica_down",  # replica marked down after a confirmed failure
        # health (the router's replica heal ladder)
        "canary_failure",  # a sweep found the engine off its baseline
        "refresh",  # rung 1: reprogram in place
        "replace",  # rung 3: fresh hardware, same stream seed
        "evict",  # rung 4: replica removed from routing for good
        # elasticity (autoscale controller / router)
        "scale_decision",  # evaluate() chose up/down, snapshot attached
        "scale_up",  # replica added (slot + wear recorded)
        "scale_down",  # replica retired
        "retire",  # router drained and removed a replica
        # hardware plane (margin probes / device-health ledger)
        "margin_warning",  # read margin collapsed, predictions still intact
        "drift_alarm",  # current-shift channel tripped with accuracy intact
        "bist_scan",  # maintenance verify scan found faulty cells
        "spare_repair",  # faulty rows remapped onto manufactured spares
        # cluster plane (worker supervision — see repro.serving.cluster)
        "worker_start",  # a worker process connected and said hello
        "worker_heartbeat",  # supervision sweep saw the worker alive
        "worker_lost",  # heartbeat/connection loss; replicas rescheduled
        "worker_respawn",  # a lost worker's replacement process came up
        "relocate",  # a lost worker's replica re-placed on a live worker
    }
)


@dataclass(frozen=True)
class FlightEvent:
    """One recorded transition.

    ``seq`` is a per-recorder monotonic counter — the causal order of
    the dump, immune to clock granularity; ``t_s`` is the
    ``time.monotonic()`` reading for interval arithmetic against other
    events and trace spans.
    """

    seq: int
    t_s: float
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"seq": self.seq, "t_s": self.t_s, "kind": self.kind,
                **self.detail}


class FlightRecorder:
    """Thread-safe bounded ring of :class:`FlightEvent`.

    Parameters
    ----------
    capacity:
        Events retained; the oldest fall off first.  Sequence numbers
        keep counting, so a dump makes eviction visible (the first
        retained ``seq`` is not 0).
    """

    def __init__(self, capacity: int = RECORDER_CAPACITY):
        check_positive_int(capacity, "capacity")
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, **detail) -> FlightEvent:
        """Append one event; raises ``ValueError`` on an unknown kind."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown flight-recorder event kind {kind!r} "
                f"(taxonomy: {', '.join(sorted(EVENT_KINDS))})"
            )
        now = time.monotonic()
        with self._lock:
            event = FlightEvent(self._seq, now, kind, detail)
            self._seq += 1
            self._events.append(event)
        return event

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # --------------------------------------------------------------- reading
    def events(
        self, kinds: Optional[Iterable[str]] = None
    ) -> List[FlightEvent]:
        """Retained events in causal order, optionally kind-filtered."""
        if kinds is not None:
            kinds = set(kinds)
            unknown = kinds - EVENT_KINDS
            if unknown:
                raise ValueError(
                    f"unknown event kinds: {', '.join(sorted(unknown))}"
                )
        with self._lock:
            snapshot = list(self._events)
        if kinds is None:
            return snapshot
        return [e for e in snapshot if e.kind in kinds]

    def to_jsonl(self, kinds: Optional[Iterable[str]] = None) -> str:
        """One strict-JSON object per event (post-incident dump)."""
        return "\n".join(
            json.dumps(e.to_dict(), allow_nan=False)
            for e in self.events(kinds)
        )

    def dump(self, path: str, kinds: Optional[Iterable[str]] = None) -> str:
        """Write :meth:`to_jsonl` to ``path``; returns the path."""
        with open(path, "w") as fh:
            text = self.to_jsonl(kinds)
            if text:
                fh.write(text + "\n")
        return path

    def clear(self) -> None:
        """Drop retained events (the sequence counter keeps running)."""
        with self._lock:
            self._events.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"FlightRecorder({len(self._events)} events retained, "
                f"seq={self._seq})"
            )


def format_events(events) -> str:
    """Human-readable event table (``febim events``).

    Accepts live :class:`FlightEvent` rows or their ``to_dict`` form —
    the CLI formats workload results after JSON round-tripping.
    """
    events = [
        e if isinstance(e, FlightEvent) else FlightEvent(
            seq=e["seq"],
            t_s=e["t_s"],
            kind=e["kind"],
            detail={
                k: v for k, v in e.items() if k not in ("seq", "t_s", "kind")
            },
        )
        for e in events
    ]
    if not events:
        return "flight recorder: no events"
    t0 = events[0].t_s
    lines = [f"flight recorder: {len(events)} events"]
    for event in events:
        detail = "  ".join(
            f"{k}={v}"
            for k, v in sorted(event.detail.items())
            if not isinstance(v, dict)
        )
        lines.append(
            f"  #{event.seq:<5d} +{event.t_s - t0:8.3f}s "
            f"{event.kind:<18s} {detail}".rstrip()
        )
    return "\n".join(lines)
