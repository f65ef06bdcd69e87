"""Online serving: model registry, micro-batching scheduler, server.

The offline core (:meth:`~repro.core.engine.FeBiMEngine.infer_batch`)
is fast only when fed dense batches; a live deployment receives a
stream of independent single-sample requests.  This package bridges the
two:

* :class:`ModelRegistry` — named, versioned model persistence (plain
  JSON via :mod:`repro.io`); every ``get_engine`` call programs a new
  engine, owned by the replica host that asked for it;
* :class:`MicroBatchScheduler` — a thread-safe queue that coalesces
  pending requests per model into batched crossbar reads: its worker
  pops up to ``max_batch`` rows whenever it is idle, so rows that
  arrive during a batch form the next one and none waits on a timer;
  one queue entry per chunk (a ``submit`` resolves one future, a
  ``submit_many`` chunk's row handles read one completion slot);
* :class:`FeBiMServer` — the multi-tenant front end: every request
  routes to a deployment (an undeployed model to its implicit
  one-replica deployment), independent per-model RNG streams,
  telemetry, graceful drain, and scheduled background health sweeps
  (:meth:`~repro.serving.server.FeBiMServer.enable_maintenance` /
  :class:`MaintenanceThread`);
* :class:`Deployment` / :class:`ReplicaSpec` / :class:`RoutingPolicy` —
  the declarative tenancy model: one model served by N replica arrays
  (each on its own backend technology) behind a routing policy;
  JSON-serialisable through :mod:`repro.io`, capability-validated
  before any array is programmed;
* the request plane (:mod:`repro.serving.plane`) — one routed path
  for both placements: one policy pick per request or per
  ``max_batch`` chunk of a ``submit_many`` (``cost`` / ``round_robin``
  / ``sticky`` / ``mirror`` majority voting), transparent failover,
  stale-guarded mark-down and per-client-request accounting;
* :class:`Router` — the one owner of every replica: implicit
  one-replica deployments for undeployed models, elasticity and
  gradual drains, and the one heal ladder (refresh -> spare repair ->
  replace -> evict) every replica is swept by, over built-in or
  caller-installed canaries
  (:meth:`~repro.serving.router.Router.install_canaries`), with a
  current-shift and a read-margin early warning — the serving face of
  :mod:`repro.reliability`, reported as :class:`HealthReport`.  A
  replica's programmed engine and micro-batch queue live in its host
  (:mod:`repro.serving.host`): in process, or in a worker process;
* :class:`SLOPolicy` / :class:`AutoscaleController` /
  :class:`HardwarePool` — the closed loop: bounded per-replica queues
  with typed :class:`Overloaded` load-shed, priority lanes and
  optional backpressure, and a controller on the maintenance cadence
  that grows/shrinks the replica set against the SLO, placing new
  replicas on the least-worn spare hardware
  (:mod:`repro.serving.autoscale`);
* :class:`PlacementSpec` / :func:`serve_deployment` /
  :class:`ClusterServer` — the placement/transport layer
  (:mod:`repro.serving.transport`, :mod:`repro.serving.cluster`):
  ``placement: local`` hosts replicas in-process (the default,
  bit-identical to the pre-placement behaviour), ``placement:
  process`` hosts them in supervised worker subprocesses — a
  ``ClusterServer`` is a ``FeBiMServer`` whose router places every
  replica's host with a worker pool — speaking a versioned
  length-prefixed JSON wire protocol (one request frame per
  ``max_batch`` chunk, one columnar result frame back, per-replica
  control frames for the heal ladder), with heartbeat liveness, crash
  failover onto survivors, re-placement and respawn;
* :class:`Observability` — the debugging plane
  (:mod:`repro.serving.observability`): sampled per-request
  :class:`Trace`/:class:`Span` decomposition of the admit -> queue ->
  execute -> failover path, a bounded :class:`FlightRecorder` of typed
  serving events for post-incident forensics, and a
  :class:`MetricsRing` time-series with Prometheus/JSONL export —
  armed with :meth:`~repro.serving.server.FeBiMServer.
  enable_observability`, free when off.

The registry is pinned to an array technology
(:mod:`repro.backends`): artifacts embed the backend identifier and a
load refuses a mismatch, so a model quantised for one array type can
never be silently programmed onto another.

See ``benchmarks/SERVING.md`` for the policy knobs and measured
served-vs-offline throughput, ``benchmarks/RELIABILITY.md`` for the
fault/healing acceptance gates, and ``examples/serving_demo.py`` for a
two-tenant walkthrough.
"""

from repro.serving.autoscale import (
    AutoscaleController,
    AutoscaleEvent,
    DeploymentPressure,
    HardwarePool,
    HardwareSlot,
    ScaleDecision,
    measure_pressure,
)
from repro.serving.cluster import ClusterServer, WorkerLost
from repro.serving.deployment import (
    Deployment,
    DeploymentError,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
    SLOPolicy,
    single_replica_deployment,
)
from repro.serving.observability import (
    EVENT_KINDS,
    FlightEvent,
    FlightRecorder,
    MetricsPoint,
    MetricsRing,
    MetricsSampler,
    Observability,
    Span,
    Trace,
    Tracer,
    format_events,
    format_trace_dicts,
    parse_prometheus,
    to_prometheus,
)
from repro.serving.plane import MirroredResult
from repro.serving.registry import ModelRegistry
from repro.serving.host import replica_stream_seed
from repro.serving.router import HealthReport, ReplicaStatus, Router
from repro.serving.scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    Overloaded,
    SchedulerClosed,
    ServedResult,
)
from repro.serving.server import FeBiMServer, MaintenanceThread, model_stream_seed
from repro.serving.telemetry import Telemetry, TelemetrySnapshot
from repro.serving.transport import (
    MessageConnection,
    ProtocolError,
    RemoteServedResult,
    RemoteWorkerError,
    serve_deployment,
)

__all__ = [
    "AutoscaleController",
    "AutoscaleEvent",
    "BatchPolicy",
    "ClusterServer",
    "Deployment",
    "DeploymentError",
    "DeploymentPressure",
    "EVENT_KINDS",
    "FeBiMServer",
    "FlightEvent",
    "FlightRecorder",
    "HardwarePool",
    "HardwareSlot",
    "HealthReport",
    "MaintenanceThread",
    "MetricsPoint",
    "MetricsRing",
    "MessageConnection",
    "MetricsSampler",
    "MicroBatchScheduler",
    "MirroredResult",
    "ModelRegistry",
    "Observability",
    "Overloaded",
    "PlacementSpec",
    "ProtocolError",
    "RemoteServedResult",
    "RemoteWorkerError",
    "ReplicaSpec",
    "ReplicaStatus",
    "Router",
    "RoutingPolicy",
    "SLOPolicy",
    "ScaleDecision",
    "SchedulerClosed",
    "ServedResult",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "Trace",
    "Tracer",
    "WorkerLost",
    "format_events",
    "format_trace_dicts",
    "measure_pressure",
    "model_stream_seed",
    "parse_prometheus",
    "replica_stream_seed",
    "serve_deployment",
    "single_replica_deployment",
    "to_prometheus",
]
