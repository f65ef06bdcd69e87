"""Observability for the serving plane: traces, flight events, metrics.

Three complementary windows into a running :class:`~repro.serving.server.FeBiMServer`:

* **Request tracing** (:mod:`~repro.serving.observability.trace`) —
  sampled per-request :class:`Trace`/:class:`Span` decomposition of the
  admit → queue → execute → failover path, with modeled device delay
  and energy attached to the execute span.
* **Flight recorder** (:mod:`~repro.serving.observability.events`) —
  a bounded ring of typed transitions (shed, failover, heal-ladder
  rung, scale decision with its triggering snapshot) for post-incident
  forensics.
* **Metrics export** (:mod:`~repro.serving.observability.metrics`) —
  periodic delta time-series over telemetry snapshots, exportable as
  Prometheus text or JSONL.
* **Device-health ledger**
  (:class:`~repro.reliability.observability.DeviceHealthLedger`) — the
  hardware plane's timeline: per-replica wear, in-service age, spare
  inventory, BIST fault counts and read-margin statistics, sampled on
  the maintenance cadence.

All four are one bounded log
(:class:`~repro.reliability.observability.BoundedLog`): a ring that
evicts its oldest record first, with ``len``, ``clear`` and a strict
``to_jsonl`` (one JSON object per line, never a ``NaN`` token).  All
four are off by default and cost nearly nothing until armed; wire
them in with :meth:`FeBiMServer.enable_observability`, or construct an
:class:`Observability` bundle directly for workload harnesses.
"""

from repro.serving.observability.events import (
    EVENT_KINDS,
    RECORDER_CAPACITY,
    FlightEvent,
    FlightRecorder,
    format_events,
)
from repro.serving.observability.metrics import (
    METRICS_CAPACITY,
    MetricsPoint,
    MetricsRing,
    MetricsSampler,
    count_replicas,
    parse_prometheus,
    to_prometheus,
)
from repro.serving.observability.trace import (
    TRACE_CAPACITY,
    Span,
    Trace,
    Tracer,
    format_trace_dicts,
)
from repro.reliability.observability import (
    LEDGER_CAPACITY,
    DeviceHealthLedger,
    DeviceHealthSample,
    HardwareGauges,
    format_health_timeline,
)


class Observability:
    """One tracer + flight recorder + metrics ring + device-health
    ledger, as a unit.

    Convenience bundle so workloads and the CLI arm every surface with
    one object: ``server.enable_observability(obs)`` hands the tracer
    to the router's request plane, hangs the recorder off telemetry,
    attaches the ledger to the router's hardware sampler, and lets the
    maintenance/metrics cadence fill the rings.  Each ring holds its
    module's default capacity (``TRACE_CAPACITY``, ``RECORDER_CAPACITY``,
    ``METRICS_CAPACITY``, ``LEDGER_CAPACITY``).
    """

    def __init__(self, trace_rate: float = 0.0):
        self.tracer = Tracer(trace_rate)
        self.recorder = FlightRecorder()
        self.metrics = MetricsRing()
        self.ledger = DeviceHealthLedger()

    def __repr__(self) -> str:
        return (
            f"Observability(tracer={self.tracer!r}, "
            f"recorder={self.recorder!r}, metrics={self.metrics!r}, "
            f"ledger={self.ledger!r})"
        )


__all__ = [
    "EVENT_KINDS",
    "LEDGER_CAPACITY",
    "METRICS_CAPACITY",
    "RECORDER_CAPACITY",
    "TRACE_CAPACITY",
    "DeviceHealthLedger",
    "DeviceHealthSample",
    "FlightEvent",
    "FlightRecorder",
    "HardwareGauges",
    "MetricsPoint",
    "MetricsRing",
    "MetricsSampler",
    "Observability",
    "Span",
    "Trace",
    "Tracer",
    "count_replicas",
    "format_events",
    "format_health_timeline",
    "format_trace_dicts",
    "parse_prometheus",
    "to_prometheus",
]
