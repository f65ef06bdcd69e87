"""Metrics export: snapshot history ring, Prometheus text, JSONL.

:class:`~repro.serving.telemetry.Telemetry` counters are since-boot
totals — good for invariants, useless for "what did p95 do during the
spike".  :class:`MetricsRing` closes that gap: each :meth:`sample`
folds the current :class:`~repro.serving.telemetry.TelemetrySnapshot`
into a :class:`MetricsPoint` carrying every counter's **delta** since
the previous sample (and completed/s, shed/s) next to the instantaneous
gauges (p50/p95, occupancy, lane depth, replica count), so the ring is
a genuine time-series a dashboard — or the autoscale post-mortem in
SERVING.md — can plot.

Two export formats:

* :func:`to_prometheus` renders one snapshot in the Prometheus text
  exposition format (``febim_*`` counters and gauges with ``# TYPE``
  headers), the pull-scrape integration point;
* :meth:`MetricsRing.to_jsonl` dumps the ring as strict JSONL (NaN-free
  — pre-first-completion percentiles serialise as ``null``), the
  ``--metrics-out`` file format.

:func:`parse_prometheus` is the matching minimal parser — the CI
observability gate round-trips the exporter through it so a formatting
regression cannot ship.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serving.policy import DOWN, HEALTHY
from repro.serving.telemetry import COUNTERS, TelemetrySnapshot
from repro.utils.validation import check_positive, check_positive_int

#: Default history ring capacity.
METRICS_CAPACITY = 512


def _or_none(value: float) -> Optional[float]:
    """NaN-safe gauge: strict JSON has no NaN, so absent is ``null``."""
    return None if value != value else float(value)


@dataclass(frozen=True)
class MetricsPoint:
    """One periodic sample: every counter's delta since the previous
    point, plus gauges.

    ``deltas`` holds one entry per
    :data:`~repro.serving.telemetry.COUNTERS` counter, keyed by its
    export stem, and each reads as an attribute too (``point.shed``,
    ``point.replacements``): a heal storm or a worker crash loop shows
    on a scraper's rate() graphs, not only in the since-boot counters.
    """

    t_s: float
    interval_s: float
    deltas: Dict[str, int]
    completed_per_s: float
    shed_per_s: float
    p50_ms: Optional[float]
    p95_ms: Optional[float]
    occupancy: float
    in_flight: int
    queue_depth: int  # total across lanes, at sample time
    lane_depth: Dict[int, int] = field(default_factory=dict)
    replicas: Optional[int] = None
    # Hardware-plane gauges (``HardwareGauges.to_dict`` shape) sampled
    # from the device-health ledger; ``None`` when no replica reported.
    hardware: Optional[dict] = None

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["deltas"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "interval_s": self.interval_s,
            **self.deltas,
            "completed_per_s": self.completed_per_s,
            "shed_per_s": self.shed_per_s,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "occupancy": self.occupancy,
            "in_flight": self.in_flight,
            "queue_depth": self.queue_depth,
            "lane_depth": {str(k): v for k, v in sorted(self.lane_depth.items())},
            "replicas": self.replicas,
            "hardware": self.hardware,
        }


class MetricsRing:
    """Bounded time-series of telemetry deltas.

    Thread-safe; one writer (the sampler cadence) is the expected
    shape, but concurrent :meth:`sample` calls only ever race over
    which of two near-identical points lands first.
    """

    def __init__(self, capacity: int = METRICS_CAPACITY):
        check_positive_int(capacity, "capacity")
        self._lock = threading.Lock()
        self._points: deque = deque(maxlen=capacity)
        self._last: Optional[TelemetrySnapshot] = None
        self._last_t: Optional[float] = None

    def sample(
        self,
        snapshot: TelemetrySnapshot,
        replicas: Optional[int] = None,
        t_s: Optional[float] = None,
        hardware: Optional[dict] = None,
    ) -> MetricsPoint:
        """Fold one snapshot into the ring; returns the new point.

        The first sample's deltas are measured against zero (a fresh
        server) with ``interval_s = 0`` — rate gauges read 0 there
        rather than inventing a rate from an unknown window.
        ``hardware`` attaches the device-health gauges sampled
        alongside this snapshot (a ``HardwareGauges.to_dict`` dict).
        """
        now = time.monotonic() if t_s is None else float(t_s)
        if hardware is not None and hasattr(hardware, "to_dict"):
            hardware = hardware.to_dict()
        with self._lock:
            prev, prev_t = self._last, self._last_t
            interval = 0.0 if prev_t is None else max(now - prev_t, 0.0)
            deltas = {
                c.stem: getattr(snapshot, c.name)
                - (getattr(prev, c.name) if prev else 0)
                for c in COUNTERS
            }
            point = MetricsPoint(
                t_s=now,
                interval_s=interval,
                deltas=deltas,
                completed_per_s=(
                    deltas["completed"] / interval if interval > 0 else 0.0
                ),
                shed_per_s=deltas["shed"] / interval if interval > 0 else 0.0,
                p50_ms=_or_none(snapshot.p50_latency_s * 1e3),
                p95_ms=_or_none(snapshot.p95_latency_s * 1e3),
                occupancy=float(snapshot.occupancy),
                in_flight=snapshot.in_flight,
                queue_depth=sum(snapshot.lane_depth.values()),
                lane_depth=dict(snapshot.lane_depth),
                replicas=replicas,
                hardware=hardware,
            )
            self._points.append(point)
            self._last, self._last_t = snapshot, now
        return point

    def points(self) -> List[MetricsPoint]:
        with self._lock:
            return list(self._points)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def to_jsonl(self) -> str:
        """Strict JSONL (one point per line; NaN-free by construction)."""
        return "\n".join(
            json.dumps(p.to_dict(), allow_nan=False) for p in self.points()
        )

    def dump(self, path: str) -> str:
        """Write :meth:`to_jsonl` to ``path``; returns the path."""
        with open(path, "w") as fh:
            text = self.to_jsonl()
            if text:
                fh.write(text + "\n")
        return path

    def __repr__(self) -> str:
        return f"MetricsRing({len(self)} points)"


class MetricsSampler:
    """Daemon thread sampling a server's telemetry on a fixed period.

    The workload-facing way to fill a :class:`MetricsRing` while
    traffic runs (the maintenance thread also samples when observability
    is enabled — this sampler is for runs without maintenance, e.g. the
    plain serving workload).  ``stop()`` takes a final sample so the
    post-drain steady state always closes the series.
    """

    def __init__(self, ring: MetricsRing, server, period_s: float):
        check_positive(period_s, "period_s")
        self.ring = ring
        self.server = server
        self.period_s = float(period_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="febim-metrics", daemon=True
        )
        self._thread.start()

    def _sample(self) -> None:
        self.ring.sample(
            self.server.stats(), replicas=count_replicas(self.server)
        )

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            try:
                self._sample()
            except Exception:  # noqa: BLE001 — sampling must not kill serving
                pass

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Final sample + join; idempotent."""
        if not self._stop.is_set():
            self._stop.set()
            try:
                self._sample()
            except Exception:  # noqa: BLE001
                pass
        self._thread.join(timeout)
        return not self._thread.is_alive()


def count_replicas(server) -> int:
    """Serviceable replicas across every deployment the router serves,
    implicit ones included (at least 1: the first request to an
    undeployed model builds its one implicit replica)."""
    router = getattr(server, "router", None)
    if router is None:
        return 1
    total = sum(
        1 for dep in router._all() for replica in dep.replicas
        if replica.state in (HEALTHY, DOWN)
    )
    return max(total, 1)


# ------------------------------------------------------------------ prometheus
def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def to_prometheus(
    snapshot: TelemetrySnapshot,
    replicas: Optional[int] = None,
    hardware: Optional[dict] = None,
) -> str:
    """Render one snapshot in the Prometheus text exposition format.

    Every :data:`~repro.serving.telemetry.COUNTERS` counter exports as
    ``febim_<stem>_total``; gauges that are undefined before the
    first completion (the latency percentiles) are *omitted* rather
    than exported as NaN — an absent series is how Prometheus models
    "no data yet".  ``hardware`` (a
    :meth:`~repro.reliability.observability.HardwareGauges.to_dict`
    dict, or the gauges object itself) appends the device-health
    gauges: worst-replica read margin and signal ratio, wear, spare
    inventory and BIST fault count, plus per-replica labelled series.
    """
    lines: List[str] = []

    def gauge(name: str, value, labels: str = "") -> None:
        if value is None or float(value) != float(value):  # absent / NaN
            return
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{labels} {float(value):g}")

    for c in COUNTERS:
        name = f"febim_{c.stem}_total"
        lines += (f"# TYPE {name} counter",
                  f"{name} {getattr(snapshot, c.name)}")
    gauge("febim_occupancy", snapshot.occupancy)
    gauge("febim_in_flight", snapshot.in_flight)
    if snapshot.p50_latency_s == snapshot.p50_latency_s:  # not NaN
        gauge("febim_latency_p50_seconds", snapshot.p50_latency_s)
        gauge("febim_latency_p95_seconds", snapshot.p95_latency_s)
    if replicas is not None:
        gauge("febim_replicas", replicas)
    if snapshot.lane_depth:
        lines.append("# TYPE febim_lane_depth gauge")
        for lane, depth in sorted(snapshot.lane_depth.items()):
            lines.append(f'febim_lane_depth{{lane="{lane}"}} {depth}')
    if snapshot.per_replica:
        lines.append("# TYPE febim_replica_served_total counter")
        for replica, served in sorted(snapshot.per_replica.items()):
            lines.append(
                f'febim_replica_served_total'
                f'{{replica="{_escape_label(replica)}"}} {served}'
            )
    if hardware is not None:
        if hasattr(hardware, "to_dict"):
            hardware = hardware.to_dict()
        gauge("febim_margin_p5", hardware.get("margin_p5"))
        gauge("febim_margin_p50", hardware.get("margin_p50"))
        gauge("febim_signal_ratio", hardware.get("signal_ratio"))
        gauge("febim_wear_fraction", hardware.get("wear_fraction"))
        gauge("febim_spares_free", hardware.get("spares_free"))
        gauge("febim_faulty_cells", hardware.get("faulty_cells"))
        per_replica = hardware.get("per_replica") or {}
        for family in ("signal_ratio", "wear_fraction", "margin_p50"):
            rows = [
                (label, row[family])
                for label, row in sorted(per_replica.items())
                if row.get(family) is not None
                and float(row[family]) == float(row[family])
            ]
            if rows:
                lines.append(f"# TYPE febim_replica_{family} gauge")
                for label, value in rows:
                    lines.append(
                        f'febim_replica_{family}'
                        f'{{replica="{_escape_label(label)}"}} '
                        f"{float(value):g}"
                    )
    return "\n".join(lines) + "\n"


#: One exposition line: ``name{labels} value`` (labels optional).
_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf|NaN))$"
)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{name{labels}: value}``.

    A deliberately strict reader of the subset :func:`to_prometheus`
    emits: every non-comment line must match the ``name{labels} value``
    shape, every ``# TYPE`` must name a known type, and NaN values are
    rejected (an exported NaN is exactly the bug this parser exists to
    catch).  Raises ``ValueError`` on the first malformed line.
    """
    series: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(
                        f"line {lineno}: malformed TYPE comment: {line!r}"
                    )
            continue
        match = _PROM_LINE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno}: not a metric sample: {line!r}"
            )
        if match["value"] == "NaN":
            raise ValueError(f"line {lineno}: NaN sample exported: {line!r}")
        key = match["name"] + (match["labels"] or "")
        series[key] = float(match["value"])
    return series
