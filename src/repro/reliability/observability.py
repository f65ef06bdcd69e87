"""Hardware-plane observability: read-margin probes and a device-health ledger.

The serving plane became inspectable in the observability layer
(:mod:`repro.serving.observability`): spans, flight events, metrics.
The *hardware* underneath stayed a black box — yet the aging campaigns
show the failure sequence clearly (``benchmarks/RELIABILITY.md``): the
winning-wordline signal collapses long before a prediction flips, so
by the time a canary disagrees the array has been degraded for
decades of bake time.  This module turns that early signal into a
first-class surface:

* :class:`MarginProbe` derives per-read margin statistics — the
  relative gap between the winning and runner-up wordline currents,
  and the signal ratio against the deploy-time pristine baseline —
  from batch reports the serving path *already produces*.  No extra
  array reads: probing is arithmetic on currents that were sensed
  anyway.
* :class:`DeviceHealthLedger` is a bounded ring of per-replica
  :class:`DeviceHealthSample` rows (wear, bake age, spare-row
  inventory, BIST fault count, margin stats), filled on the
  maintenance cadence — the hardware twin of the serving plane's
  metrics ring.
* :class:`HardwareGauges` folds the latest sample per replica into the
  worst-case scalar gauges the Prometheus exporter publishes.

:class:`BoundedLog` is the one ring all four observability logs are
built on — the serving plane's flight recorder, tracer and metrics
ring, and the ledger here: a lock, a ``deque(maxlen=capacity)`` that
evicts the oldest record first, locked snapshot reads, ``len``,
``clear`` and one strict-JSONL rule (:func:`strict_jsonl`: one JSON
object per line, ``ValueError`` on a NaN or infinity, never a
``NaN`` token).  It lives here because the serving layer imports this
module, never the other way round.

Everything here is pure bookkeeping over numpy arrays; nothing imports
the serving layer, and nothing touches a device — the read-path cost
of a disabled probe is zero by construction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive_int

#: Default device-health ledger capacity (samples retained).
LEDGER_CAPACITY = 2048


def _or_none(value) -> Optional[float]:
    """NaN-safe serialisation: strict JSON has no NaN token."""
    if value is None:
        return None
    value = float(value)
    return None if value != value else value


# ---------------------------------------------------------------- shared log
def strict_jsonl(rows: Iterable[dict]) -> str:
    """The one JSONL rule: each row one strict-JSON line.

    A NaN or infinity raises ``ValueError`` (absent values go through
    :func:`_or_none` as ``null``); every line ends in a newline.
    """
    return "".join(json.dumps(row, allow_nan=False) + "\n" for row in rows)


class BoundedLog:
    """Thread-safe ring of records, the oldest evicted first.

    Each record has a ``to_dict()``; subclasses add how a record is
    made and their named readers over :meth:`_snapshot`.
    """

    def __init__(self, capacity: int):
        check_positive_int(capacity, "capacity")
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)

    def _append(self, record):
        with self._lock:
            self._records.append(record)
        return record

    def _snapshot(self) -> list:
        """Retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        """Drop every retained record."""
        with self._lock:
            self._records.clear()

    def to_jsonl(self) -> str:
        """Retained records as strict JSONL (:func:`strict_jsonl`)."""
        return strict_jsonl(r.to_dict() for r in self._snapshot())


# ---------------------------------------------------------------- margin math
def report_currents(report) -> np.ndarray:
    """Per-sample current signature from either batch-report flavour:
    wordline currents of a flat engine, per-tile winner currents of a
    tiled one."""
    currents = getattr(report, "wordline_currents", None)
    if currents is None:
        currents = report.tile_currents
    return np.asarray(currents, dtype=float)


def margin_signal(currents: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample ``(margins, signals)`` from a batch of read currents.

    ``currents`` is the ``(n, rows)`` result of a batched read (wordline
    currents, or per-tile winner currents for hierarchical engines).
    ``signals`` is each sample's winning current; ``margins`` the
    *relative* winner-vs-runner-up gap ``(win - runner) / win`` — the
    quantity the WTA sense amplifier has to resolve, normalised so one
    threshold works across technologies with different current scales.
    With fewer than two rows there is no runner-up and margins are NaN.
    """
    currents = np.asarray(currents, dtype=float)
    if currents.ndim != 2:
        raise ValueError(
            f"currents must be a (n, rows) batch, got shape {currents.shape}"
        )
    if currents.shape[1] < 2:
        signals = currents.max(axis=1) if currents.shape[1] else np.zeros(
            currents.shape[0]
        )
        return np.full(currents.shape[0], np.nan), signals
    top2 = np.partition(currents, currents.shape[1] - 2, axis=1)[:, -2:]
    runner = top2[:, 0]
    win = top2[:, 1]
    margins = (win - runner) / np.maximum(np.abs(win), 1e-30)
    return margins, win


def sample_margin(currents_row: np.ndarray) -> Tuple[float, float]:
    """``(margin, signal)`` of a single sample's ``(rows,)`` currents.

    The execute-span helper: cheap enough to run per *traced* request
    (one partition over a handful of wordlines), never on the untraced
    hot path.
    """
    margins, signals = margin_signal(
        np.asarray(currents_row, dtype=float)[None, :]
    )
    return float(margins[0]), float(signals[0])


@dataclass(frozen=True)
class MarginReading:
    """Margin statistics of one canary batch against its baseline.

    ``margin_p5`` / ``margin_p50`` are percentiles of the per-sample
    relative winner-vs-runner-up gap (p5 is the early-warning gauge —
    the *weakest* reads fail first); ``signal`` the mean winning
    current; ``signal_ratio`` that signal against the deploy-time
    pristine baseline (1.0 = pristine, falling under retention drift).
    """

    n: int
    margin_p5: float
    margin_p50: float
    signal: float
    signal_ratio: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "margin_p5": _or_none(self.margin_p5),
            "margin_p50": _or_none(self.margin_p50),
            "signal": _or_none(self.signal),
            "signal_ratio": _or_none(self.signal_ratio),
        }


class MarginProbe:
    """Derives margin statistics from batch reports, against a baseline.

    Construct with the pristine canary currents at deploy/install time
    (the very report the probe/install path already ran); every later
    :meth:`observe` call scores a fresh currents batch.  Stateless
    beyond the baseline — observing never touches hardware.
    """

    def __init__(self, baseline_currents: np.ndarray):
        margins, signals = margin_signal(baseline_currents)
        self.baseline_signal = float(np.mean(np.abs(signals)))
        finite = margins[margins == margins]
        self.baseline_margin_p50 = (
            float(np.median(finite)) if finite.size else float("nan")
        )

    def observe(self, currents: np.ndarray) -> MarginReading:
        """Score one batch of read currents against the baseline."""
        margins, signals = margin_signal(currents)
        finite = margins[margins == margins]
        if finite.size:
            p5, p50 = np.percentile(finite, [5.0, 50.0])
        else:
            p5 = p50 = float("nan")
        signal = float(np.mean(np.abs(signals)))
        ratio = signal / max(self.baseline_signal, 1e-30)
        return MarginReading(
            n=int(margins.shape[0]),
            margin_p5=float(p5),
            margin_p50=float(p50),
            signal=signal,
            signal_ratio=float(ratio),
        )

    def __repr__(self) -> str:
        return f"MarginProbe(baseline_signal={self.baseline_signal:.3e})"


# -------------------------------------------------------------------- ledger
@dataclass(frozen=True)
class DeviceHealthSample:
    """One per-replica hardware health observation.

    ``spares_free`` / ``faulty_cells`` are ``None`` when the replica's
    backend lacks the matching capability (no spare rows manufactured,
    no BIST result yet) — absence of data, not zero.  Margin fields are
    NaN until the first canary observation lands.
    """

    t_s: float
    replica: str
    state: str
    wear_fraction: float
    age_s: float
    spares_free: Optional[int] = None
    faulty_cells: Optional[int] = None
    margin_p5: float = float("nan")
    margin_p50: float = float("nan")
    signal_ratio: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "replica": self.replica,
            "state": self.state,
            "wear_fraction": self.wear_fraction,
            "age_s": self.age_s,
            "spares_free": self.spares_free,
            "faulty_cells": self.faulty_cells,
            "margin_p5": _or_none(self.margin_p5),
            "margin_p50": _or_none(self.margin_p50),
            "signal_ratio": _or_none(self.signal_ratio),
        }


class DeviceHealthLedger(BoundedLog):
    """Thread-safe bounded ring of :class:`DeviceHealthSample` rows.

    The hardware plane's flight recorder: the maintenance cadence
    appends one row per replica per sweep, the ring bounds memory for
    long-lived servers, and :meth:`latest` answers the dashboard
    question — the current health of every replica — in one call.
    """

    def __init__(self, capacity: int = LEDGER_CAPACITY):
        super().__init__(capacity)

    def record(self, sample: DeviceHealthSample) -> DeviceHealthSample:
        """Append one sample (oldest rows evicted past capacity)."""
        return self._append(sample)

    def sample(
        self,
        replica: str,
        state: str,
        wear_fraction: float,
        age_s: float,
        spares_free: Optional[int] = None,
        faulty_cells: Optional[int] = None,
        margin_p5: float = float("nan"),
        margin_p50: float = float("nan"),
        signal_ratio: float = float("nan"),
        t_s: Optional[float] = None,
    ) -> DeviceHealthSample:
        """Build and :meth:`record` one sample (timestamped now)."""
        return self.record(
            DeviceHealthSample(
                t_s=time.monotonic() if t_s is None else float(t_s),
                replica=str(replica),
                state=str(state),
                wear_fraction=float(wear_fraction),
                age_s=float(age_s),
                spares_free=None if spares_free is None else int(spares_free),
                faulty_cells=(
                    None if faulty_cells is None else int(faulty_cells)
                ),
                margin_p5=float(margin_p5),
                margin_p50=float(margin_p50),
                signal_ratio=float(signal_ratio),
            )
        )

    def samples(
        self, replica: Optional[str] = None
    ) -> List[DeviceHealthSample]:
        """Retained samples in record order, optionally one replica's."""
        snapshot = self._snapshot()
        if replica is None:
            return snapshot
        return [s for s in snapshot if s.replica == replica]

    def latest(self) -> Dict[str, DeviceHealthSample]:
        """The most recent sample per replica label."""
        result: Dict[str, DeviceHealthSample] = {}
        for sample in self.samples():
            result[sample.replica] = sample
        return result

    def __repr__(self) -> str:
        return f"DeviceHealthLedger({len(self)} samples)"


# -------------------------------------------------------------------- gauges
@dataclass(frozen=True)
class HardwareGauges:
    """Worst-case hardware gauges across a replica set.

    Margin and signal gauges take the *minimum* over replicas (the
    weakest array is the one about to fail), wear the maximum,
    ``spares_free`` the minimum per-replica pool (a deployment is as
    repairable as its driest replica) and ``faulty_cells`` the sum.
    ``per_replica`` keeps the labelled per-replica breakdown for the
    exporters that support labels.
    """

    margin_p5: float = float("nan")
    margin_p50: float = float("nan")
    signal_ratio: float = float("nan")
    wear_fraction: float = float("nan")
    spares_free: Optional[int] = None
    faulty_cells: Optional[int] = None
    per_replica: Dict[str, dict] = None  # type: ignore[assignment]

    @classmethod
    def from_samples(
        cls, samples: Iterable[DeviceHealthSample]
    ) -> "HardwareGauges":
        latest: Dict[str, DeviceHealthSample] = {}
        for sample in samples:
            latest[sample.replica] = sample
        rows = list(latest.values())

        def _nanmin(values: List[float]) -> float:
            finite = [v for v in values if v == v]
            return min(finite) if finite else float("nan")

        def _nanmax(values: List[float]) -> float:
            finite = [v for v in values if v == v]
            return max(finite) if finite else float("nan")

        spares = [s.spares_free for s in rows if s.spares_free is not None]
        faults = [s.faulty_cells for s in rows if s.faulty_cells is not None]
        return cls(
            margin_p5=_nanmin([s.margin_p5 for s in rows]),
            margin_p50=_nanmin([s.margin_p50 for s in rows]),
            signal_ratio=_nanmin([s.signal_ratio for s in rows]),
            wear_fraction=_nanmax([s.wear_fraction for s in rows]),
            spares_free=min(spares) if spares else None,
            faulty_cells=sum(faults) if faults else None,
            per_replica={
                label: {
                    "state": s.state,
                    "wear_fraction": s.wear_fraction,
                    "age_s": s.age_s,
                    "signal_ratio": _or_none(s.signal_ratio),
                    "margin_p50": _or_none(s.margin_p50),
                }
                for label, s in sorted(latest.items())
            },
        )

    def to_dict(self) -> dict:
        return {
            "margin_p5": _or_none(self.margin_p5),
            "margin_p50": _or_none(self.margin_p50),
            "signal_ratio": _or_none(self.signal_ratio),
            "wear_fraction": _or_none(self.wear_fraction),
            "spares_free": self.spares_free,
            "faulty_cells": self.faulty_cells,
            "per_replica": dict(self.per_replica or {}),
        }


# ------------------------------------------------------------------ timeline
def format_health_timeline(samples, events=()) -> str:
    """Human-readable per-replica device-health timeline (``febim health``).

    ``samples`` are :class:`DeviceHealthSample` rows or their
    ``to_dict`` form; ``events`` optional flight-event dicts (only the
    hardware-plane kinds are interleaved).  Rows merge by time so the
    story reads top to bottom: margin falls, a warning fires, the heal
    ladder reprograms, margin recovers.
    """
    hardware_kinds = {
        "bist_scan", "spare_repair", "drift_alarm", "margin_warning",
        "canary_failure", "refresh", "replace", "evict",
    }
    rows = []
    for sample in samples:
        d = sample.to_dict() if hasattr(sample, "to_dict") else dict(sample)
        rows.append((float(d["t_s"]), "sample", d))
    for event in events:
        d = dict(event)
        if d.get("kind") in hardware_kinds:
            rows.append((float(d["t_s"]), "event", d))
    if not rows:
        return "device health: no samples"
    rows.sort(key=lambda r: (r[0], r[1] == "event"))
    t0 = rows[0][0]
    replicas = sorted({d["replica"] for t, kind, d in rows if kind == "sample"})
    lines = [
        f"device health: {sum(1 for r in rows if r[1] == 'sample')} samples, "
        f"{len(replicas)} replica(s)"
    ]

    def _fmt(value, spec="{:.3f}") -> str:
        if value is None or (isinstance(value, float) and value != value):
            return "-"
        return spec.format(value)

    for t, kind, d in rows:
        offset = f"+{t - t0:8.3f}s"
        if kind == "sample":
            lines.append(
                f"  {offset} {d['replica']:<24s} {d['state']:<8s} "
                f"wear={_fmt(d['wear_fraction'])} "
                f"age={_fmt(d['age_s'], '{:.3g}')}s "
                f"spares={_fmt(d['spares_free'], '{:d}')} "
                f"faults={_fmt(d['faulty_cells'], '{:d}')} "
                f"margin={_fmt(d['margin_p50'])} "
                f"signal={_fmt(d['signal_ratio'])}"
            )
        else:
            detail = "  ".join(
                f"{k}={v}"
                for k, v in sorted(d.items())
                if k not in ("seq", "t_s", "kind") and not isinstance(v, dict)
            )
            lines.append(
                f"  {offset} ** {d['kind']:<20s} {detail}".rstrip()
            )
    return "\n".join(lines)
