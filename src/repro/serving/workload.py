"""Seeded serving scenarios: one runner, checked invariants.

A :class:`Scenario` says what is served, how traffic arrives, and what
goes wrong (a timeline of :class:`Fault` incidents); :func:`run_scenario`
drives it and returns one :class:`ScenarioResult`, and :func:`spike` is
the SLO spike preset.  ``febim serve`` / ``trace`` / ``events``, the
serving, autoscale, observability and cluster benchmarks and the
property tests all run through it.  Before it returns, every run checks
the serving invariants and raises :class:`InvariantViolation` naming
each one it broke:

* ``futures`` — every accepted client future or row handle is done;
* ``books`` — the client's own tallies (ok, shed, failed, cancelled)
  equal the server's (completed, shed, failed, cancelled) and sum to
  its ``submitted``; submits that raised are ``refused``, counted apart;
* ``queues`` — ``in_flight`` is 0 and no lane reports a depth;
* ``flight`` — flight-recorder sequence numbers strictly increase, and
  every ``scale_up`` follows an up ``scale_decision``;
* ``leaks`` — no thread or worker process the run started outlives its
  server.

The offline ceiling is measured on the engines that serve the traffic,
so ``served_fraction`` isolates the cost of the online layer.  The
health aging runner (:func:`run_health_workload`) steps a clock and
sweeps with no traffic, so it stays a runner of its own.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from concurrent.futures import CancelledError
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_dataset, make_gaussian_blobs
from repro.datasets.splits import train_test_split
from repro.devices.endurance import EnduranceModel
from repro.serving.autoscale import HardwarePool
from repro.serving.cluster import ClusterServer
from repro.serving.deployment import (
    Deployment,
    ReplicaSpec,
    RoutingPolicy,
    SLOPolicy,
)
from repro.serving.host import replica_engine
from repro.serving.observability import FlightRecorder, MetricsSampler
from repro.serving.policy import DOWN, HEALTHY
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import BatchPolicy, Overloaded
from repro.serving.server import FeBiMServer
from repro.serving.telemetry import TelemetrySnapshot
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive, check_positive_int

#: Dense batch size used for the offline throughput ceiling.
OFFLINE_BATCH = 256
#: One ``"synthetic"`` tenant: independent many-class blobs, large
#: enough that the numpy read, not the scheduler, dominates a batch.
SYNTHETIC_CLASSES = 32
SYNTHETIC_FEATURES = 48
#: Every ``INTERACTIVE_SHARE``-th request carries the high-priority
#: ``"interactive"`` client identity; the rest cycle through
#: ``BATCH_CLIENTS`` batch tenants (the sticky policy's affinity keys).
INTERACTIVE_SHARE = 4
BATCH_CLIENTS = 5
#: The spike preset: open-loop base rate, the burst's window as
#: fractions of the trace, and the SLO the deployment must hold.
SPIKE_BASE_RPS = 100.0
SPIKE_WINDOW = (0.3, 0.55)
SPIKE_SLO = SLOPolicy(
    target_p95_ms=150.0,
    max_queue_depth=16,
    min_replicas=1,
    max_replicas=3,
    priorities={"interactive": 10},
)
#: Spare hardware an SLO deployment scales onto, pre-worn (fractions of
#: usable life) so the least-worn placement order is observable.
POOL_WEAR = (0.6, 0.2, 0.9)
#: Consecutive calm controller steps before a scale-down.
SCALE_DOWN_PATIENCE = 3
#: Worker heartbeat period of a process-placed scenario, and the sweep
#: cadence (supervision, then the heal ladder) of the cluster story.
HEARTBEAT_S = 0.1
MAINTENANCE_S = 0.1
#: Bounds on the drain, on a drained server's last futures settling, on
#: the worker pool's respawn after a kill, and on threads and worker
#: processes exiting after the server closed.
DRAIN_TIMEOUT_S = 120.0
SETTLE_TIMEOUT_S = 5.0
RESPAWN_TIMEOUT_S = 30.0
LEAK_TIMEOUT_S = 5.0
FAULT_KINDS = (
    "kill_worker", "kill_replica", "retire_replica", "add_replica", "sweep",
    "cancel",
)


def request_pool(
    registry: ModelRegistry,
    name: str,
    version: Optional[int] = None,
    n_samples: int = 256,
    seed: int = 0,
) -> np.ndarray:
    """A deterministic pool of valid evidence-level requests for a model.

    Levels are drawn uniformly within each feature's discretisation
    width, read off the registered artifact — no dataset required, so
    deployment workloads can drive any registry directory.
    """
    model, _ = registry.load(name, version, backend=registry.backend)
    widths = [t.shape[1] for t in model.likelihood_levels]
    rng = np.random.default_rng(seed)
    pool = np.empty((n_samples, len(widths)), dtype=int)
    for f, width in enumerate(widths):
        pool[:, f] = rng.integers(0, width, size=n_samples)
    return pool


class PacedEngine:
    """An engine proxy that restores real-time service cost.

    The simulated engines answer a 16-sample batch in tens of
    microseconds — far too fast for any Python-side submitter to
    saturate, which makes overload scenarios untestable.  This wrapper
    sleeps ``batch_size * per_sample_s`` around each ``infer_batch``,
    modelling a replica with a real service rate of
    ``1 / per_sample_s`` samples/sec while keeping the numerics (and
    bit-identity) of the wrapped engine.  Install through
    ``Router.engine_wrapper``.
    """

    def __init__(self, engine, per_sample_s: float):
        check_positive(per_sample_s, "per_sample_s")
        self._engine = engine
        self._per_sample_s = float(per_sample_s)

    def infer_batch(self, levels):
        report = self._engine.infer_batch(levels)
        time.sleep(np.asarray(levels).shape[0] * self._per_sample_s)
        return report

    def __getattr__(self, name):
        return getattr(self._engine, name)


def bursty_trace(
    duration_s: float,
    base_rps: float,
    spike_factor: float = 10.0,
    spike_window: Tuple[float, float] = (0.35, 0.6),
    diurnal_amplitude: float = 0.3,
    bin_s: float = 0.01,
    seed: int = 0,
) -> np.ndarray:
    """Open-loop Poisson arrival times with a diurnal swell and a spike.

    The rate profile is ``base_rps * (1 + diurnal_amplitude *
    sin(2*pi*t/duration))``, multiplied by ``spike_factor`` while
    ``t/duration`` lies inside ``spike_window`` (fractions of the
    trace).  Arrivals are drawn per ``bin_s`` bin from a Poisson count
    and jittered uniformly within the bin; the trace is *open-loop* —
    arrival times never depend on how the server is coping, which is
    exactly what makes a spike dangerous.

    Returns sorted arrival offsets in seconds from the trace start.
    """
    check_positive(duration_s, "duration_s")
    check_positive(base_rps, "base_rps")
    check_positive(bin_s, "bin_s")
    if spike_factor < 1.0:
        raise ValueError(f"spike_factor must be >= 1, got {spike_factor}")
    lo, hi = float(spike_window[0]), float(spike_window[1])
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(
            f"spike_window must satisfy 0 <= lo <= hi <= 1, got {spike_window}"
        )
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError(
            f"diurnal_amplitude must lie in [0, 1), got {diurnal_amplitude}"
        )
    rng = np.random.default_rng(seed)
    chunks: List[np.ndarray] = []
    for t0 in np.arange(0.0, duration_s, bin_s):
        frac = t0 / duration_s
        rate = base_rps * (
            1.0 + diurnal_amplitude * np.sin(2.0 * np.pi * frac)
        )
        if lo <= frac < hi:
            rate *= spike_factor
        n = int(rng.poisson(rate * bin_s))
        if n:
            chunks.append(t0 + rng.random(n) * bin_s)
    if not chunks:
        return np.empty(0, dtype=float)
    return np.sort(np.concatenate(chunks))


# ------------------------------------------------------------------ scenario
@dataclass(frozen=True)
class Fault:
    """One incident, fired before request ``at`` is handed out.

    Faults share the submitters' request counter, so a timeline fires in
    ``at`` order whatever the thread interleaving.  ``kill_worker``
    SIGKILLs the first live worker; ``kill_replica`` hard-fails replica
    ``replica`` (``recoverable``: the replace rung can heal it);
    ``retire_replica`` drains and removes it; ``add_replica`` grows the
    deployment by a copy of its first spec; ``sweep`` runs the heal
    ladder; ``cancel`` has the client cancel every handle it holds that
    is not yet done (its record counts the cancels that took).  A fault
    the server refuses (retiring the last serviceable replica, a gone
    index) is recorded with the refusal, not raised.
    """

    kind: str
    at: int = 0
    replica: int = 0
    recoverable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault {self.kind!r} (one of {', '.join(FAULT_KINDS)})"
            )
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class Scenario:
    """A seeded serving run.

    **Served**: without ``deployment``, ``n_models`` freshly trained
    tenants of ``dataset`` (``"synthetic"``: many-class blobs) at
    ``q_f``/``q_l`` bits on ``backend``, named ``<dataset>-a``, ``-b``,
    ... on their implicit deployments; with it, its model (from the
    registry given to :func:`run_scenario`, else a trained tenant) on a
    :class:`~repro.serving.cluster.ClusterServer` for ``process``
    placement.  An ``slo`` deployment scales onto spares worn per
    :data:`POOL_WEAR`, and its controller is stepped after the drain
    until the spike capacity is back.  **Traffic**: ``n_requests`` from
    ``submitters`` closed-loop threads, or with ``duration_s`` the
    open-loop :func:`bursty_trace` (``spike_factor`` burst) from one
    paced submitter, ``block`` consecutive requests per client call
    (``1``: one ``submit`` each; more: one ``submit_many``, sent once
    its last row has arrived); round-robin across tenants per call,
    every :data:`INTERACTIVE_SHARE`-th call's first request
    ``"interactive"``.
    **Serving**: ``policy``; ``service_time_ms`` paces in-process
    engines (:class:`PacedEngine`); ``maintenance_s`` runs the sweep.
    **Observed**: ``trace_rate`` and ``metrics_s`` (the series period)
    arm observability; a flight recorder runs in every scenario.
    """

    dataset: str = "iris"
    n_models: int = 2
    q_f: int = 4
    q_l: int = 2
    backend: str = "fefet"
    deployment: Optional[Deployment] = None
    n_requests: int = 2048
    submitters: int = 4
    block: int = 1
    duration_s: Optional[float] = None
    spike_factor: float = 12.0
    policy: BatchPolicy = BatchPolicy()
    service_time_ms: Optional[float] = None
    maintenance_s: Optional[float] = None
    trace_rate: float = 0.0
    metrics_s: Optional[float] = None
    seed: int = 0
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        check_positive_int(self.n_models, "n_models")
        check_positive_int(self.n_requests, "n_requests")
        check_positive_int(self.submitters, "submitters")
        check_positive_int(self.block, "block")
        for name in ("duration_s", "service_time_ms", "maintenance_s",
                     "metrics_s"):
            if getattr(self, name) is not None:
                check_positive(getattr(self, name), name)
        kinds = {fault.kind for fault in self.faults}
        if kinds and self.deployment is None:
            raise ValueError("a fault timeline needs a deployment to act on")
        if "kill_worker" in kinds and not self.process:
            raise ValueError(
                "kill_worker needs a deployment with process placement"
            )
        if "kill_worker" in kinds and self.maintenance_s is None:
            raise ValueError(
                "kill_worker needs maintenance_s: the sweep respawns the "
                "killed worker"
            )
        if self.process and self.service_time_ms is not None:
            raise ValueError(
                "service_time_ms paces in-process engines; process "
                "placement cannot"
            )

    @property
    def process(self) -> bool:
        """Whether the deployment places its replicas on workers."""
        placement = None if self.deployment is None else self.deployment.placement
        return placement is not None and placement.kind == "process"

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        if self.deployment is not None:
            data["deployment"] = self.deployment.to_dict()
        return data


def spike(
    duration_s: float = 2.5,
    spike_factor: float = 12.0,
    slo: bool = True,
    trace_rate: float = 0.0,
    seed: int = 0,
) -> Scenario:
    """The SLO spike: a diurnal open-loop trace with a ``spike_factor``
    burst against one paced ``ideal`` replica (2 ms per sample) of an
    iris tenant.  With ``slo`` it carries :data:`SPIKE_SLO` and scales
    on the maintenance cadence, interactive traffic on the priority
    lane; without it, the control: one unbounded replica, no controller.
    """
    return Scenario(
        dataset="iris",
        n_models=1,
        backend="ideal",
        deployment=Deployment(
            model="iris-a",
            replicas=(ReplicaSpec("ideal"),),
            policy=RoutingPolicy("cost"),
            slo=SPIKE_SLO if slo else None,
        ),
        duration_s=duration_s,
        spike_factor=spike_factor,
        policy=BatchPolicy(max_batch=16),
        service_time_ms=2.0,
        maintenance_s=0.12 if slo else None,
        trace_rate=trace_rate,
        seed=seed,
    )


class InvariantViolation(AssertionError):
    """A scenario run broke serving invariants; the message names each
    one (``futures``, ``books``, ``queues``, ``flight``, ``leaks``)."""

    def __init__(self, broken: List[str]):
        super().__init__("serving invariants broken: " + "; ".join(broken))
        self.broken = tuple(broken)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one :func:`run_scenario` run.

    Every request is ``ok``, ``shed`` (a typed
    :class:`~repro.serving.scheduler.Overloaded` rejection, not a
    failure), ``failed``, ``cancelled`` or ``refused`` (its submit
    raised).  ``matched`` served predictions equal an offline read of
    the row on the serving replica's engine configuration, whose dense
    ``infer_batch`` rate is ``offline_sps`` (traffic-weighted).
    ``faults`` records the fired incidents, ``events`` the autoscale
    controller's actions, ``event_counts`` the flight-recorder events by
    kind (the events themselves are in ``flight`` when observability was
    armed), ``workers_up`` the live workers at the end.
    """

    scenario: Scenario
    models: Tuple[str, ...]
    version: int
    n_requests: int
    wall_s: float
    offline_sps: float
    matched: int
    ok: int
    shed: int
    failed: int
    cancelled: int
    refused: int
    shed_by_class: Dict[str, int]
    replicas: Tuple[dict, ...]
    workers_up: Optional[int]
    faults: Tuple[dict, ...]
    events: Tuple[dict, ...]
    event_counts: Dict[str, int]
    telemetry: TelemetrySnapshot
    traces: Tuple[dict, ...]
    flight: Tuple[dict, ...]
    metrics: Tuple[dict, ...]
    hardware: Tuple[dict, ...]

    @property
    def bench(self) -> str:
        return "serving" if self.scenario.deployment is None else "deployment"

    @property
    def served_sps(self) -> float:
        """Requests per second from the start barrier to drain-clean."""
        return self.n_requests / max(self.wall_s, 1e-12)

    @property
    def served_fraction(self) -> float:
        """Served throughput as a fraction of the offline ceiling."""
        if self.offline_sps <= 0:
            return float("nan")
        return self.served_sps / self.offline_sps

    @property
    def errors(self) -> int:
        """Client-visible errors: failed, cancelled and refused."""
        return self.failed + self.cancelled + self.refused

    @property
    def p95_ms(self) -> float:
        return float(self.telemetry.p95_latency_s * 1e3)

    @property
    def target_p95_ms(self) -> Optional[float]:
        dep = self.scenario.deployment
        return None if dep is None or dep.slo is None else dep.slo.target_p95_ms

    @property
    def held_slo(self) -> bool:
        return self.target_p95_ms is None or self.p95_ms <= self.target_p95_ms

    @property
    def final_replicas(self) -> int:
        """Serviceable replicas of the deployment at the end."""
        return sum(r["state"] in (HEALTHY, DOWN) for r in self.replicas)

    @property
    def placements(self) -> Tuple[dict, ...]:
        """Scale-ups in order, with the pool slot each landed on."""
        return tuple(
            {k: e[k] for k in ("slot", "replica", "wear_fraction")}
            for e in self.events
            if e["action"] == "up"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (``febim serve --json``)."""
        data = _plain(self)
        data.update(
            {name: getattr(self, name) for name in (
                "bench", "served_sps", "served_fraction", "errors", "p95_ms",
                "target_p95_ms", "held_slo", "final_replicas", "placements",
            )},
            scenario=self.scenario.to_dict(),
        )
        return data

    def format(self) -> str:
        """Human-readable report (``febim serve``)."""
        s = self.scenario
        dep = s.deployment
        if dep is None:
            served = f"{len(self.models)} {s.dataset} tenants [{s.backend}]"
        else:
            served = f"{dep.model}@v{self.version} [{dep.policy.kind}]"
            if s.process:
                served += f" on {dep.placement.workers} workers"
        traffic = (
            f"{s.submitters} submitters" if s.duration_s is None
            else f"open loop, x{s.spike_factor:g} spike in {s.duration_s:g} s"
        )
        lines = [
            f"{self.bench} workload: {served} — {self.n_requests} "
            f"requests, {traffic}",
            f"policy     max_batch {s.policy.max_batch}",
            f"throughput served {self.served_sps:.0f} sps vs offline ceiling "
            f"{self.offline_sps:.0f} sps ({self.served_fraction * 100:.0f}%)",
            f"outcome    {self.ok} served  {self.shed} shed  {self.failed} "
            f"failed  {self.cancelled} cancelled  {self.refused} refused  "
            f"in {self.wall_s:.2f} s",
            f"verified   {self.matched}/{self.ok} served predictions "
            f"bit-identical to offline",
        ]
        if self.target_p95_ms is not None:
            lines.append(
                f"slo        p95 {self.p95_ms:.1f} ms vs target "
                f"{self.target_p95_ms:g} ms "
                f"({'HELD' if self.held_slo else 'MISSED'}); "
                f"{self.final_replicas} replicas at end"
            )
        for cls in sorted(self.shed_by_class):
            lines.append(f"  shed {cls:12s} {self.shed_by_class[cls]}")
        for event in self.events:
            if event["action"] != "hold":
                slot = f" slot={event['slot']}" if event["slot"] else ""
                lines.append(
                    f"  step {event['step']:3d} {event['action']:4s} "
                    f"{event['replica'] or '':26s}{slot}  ({event['reason']})"
                )
        counts = self.event_counts
        for fault in self.faults:
            if fault["kind"] == "kill_worker" and "refused" not in fault:
                lines.append(
                    f"chaos: SIGKILL {fault['worker']} mid-burst — "
                    f"{counts.get('worker_lost', 0)} lost, "
                    f"{counts.get('relocate', 0)} replicas re-placed, "
                    f"{counts.get('worker_respawn', 0)} respawned, "
                    f"{self.telemetry.failovers} failovers; "
                    f"{self.workers_up}/{dep.placement.workers} workers up "
                    f"after"
                )
            else:
                refused = fault.get("refused")
                lines.append(
                    f"fault      {fault['kind']} before request {fault['at']}"
                    + (f" refused: {refused}" if refused else "")
                )
        for replica in self.replicas:
            lines.append(
                f"  {replica['replica']:26s} {replica['state']:8s} "
                f"unit delay {replica['unit_delay_s'] * 1e9:8.1f} ns  "
                f"weight {replica['weight']:g}"
            )
        lines.append(self.telemetry.format_lines())
        return "\n".join(lines)


# -------------------------------------------------------------------- runner
def _plain(result) -> dict:
    """A frozen result's fields as a dict, its telemetry snapshot too."""
    data = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    data["telemetry"] = result.telemetry.to_dict()
    return data


def _client(i: int) -> str:
    """Request ``i``'s client identity (priority lane, sticky key)."""
    if i % INTERACTIVE_SHARE == 0:
        return "interactive"
    return f"batch-{i % BATCH_CLIENTS}"


def _train_tenants(s: Scenario, registry: ModelRegistry) -> List[tuple]:
    """Train and register the scenario's tenants; returns ``(name,
    version, pool)`` per tenant, ``pool`` its discretised held-out
    rows."""
    routes = []
    for i, rng in enumerate(spawn_rngs(s.seed, s.n_models)):
        name = f"{s.dataset}-{chr(ord('a') + i)}"
        data = load_dataset(s.dataset) if s.dataset != "synthetic" else (
            make_gaussian_blobs(1500, SYNTHETIC_FEATURES, SYNTHETIC_CLASSES,
                                class_sep=2.5, seed=rng)
        )
        X_tr, X_te, y_tr, _ = train_test_split(
            data.data, data.target, test_size=0.5,
            seed=zlib.crc32(name.encode()),
        )
        pipe = FeBiMPipeline(
            q_f=s.q_f, q_l=s.q_l, seed=s.seed, backend=s.backend
        ).fit(X_tr, y_tr)
        version = pipe.register_into(registry, name)
        routes.append((name, version, pipe.transform_levels(X_te)))
    return routes


def _offline_sps(engine, pool: np.ndarray) -> float:
    """Best-of-3 dense ``infer_batch`` rate at :data:`OFFLINE_BATCH`."""
    dense = pool[np.arange(OFFLINE_BATCH) % pool.shape[0]]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        engine.infer_batch(dense)
        best = min(best, time.perf_counter() - start)
    return OFFLINE_BATCH / max(best, 1e-12)


def _spec_slot(served_by: str, n_specs: int) -> int:
    """The spec a served row's replica was built from: its index
    (``name@vN#rI``) when the spec lists it, else the first — runtime
    additions copy it — as for implicit and mirrored results."""
    _, sep, index = served_by.rpartition("#r")
    return int(index) if sep and int(index) < n_specs else 0


def _fire(server, dep: Deployment, fault: Fault, handles: list) -> dict:
    """Apply one fault; returns its record (the refusal, if any).
    ``handles`` holds the client's handles so far (``None`` where a
    call has not returned yet, its exception where it was refused)."""
    router = server.router
    record = {"kind": fault.kind, "at": fault.at}
    try:
        if fault.kind == "cancel":
            record["cancelled"] = sum(
                handle.cancel() for handle in list(handles)
                if handle is not None
                and not isinstance(handle, BaseException)
                and not handle.done()
            )
        elif fault.kind == "kill_worker":
            record["worker"] = min(server.worker_pids())
            server.kill_worker(record["worker"])
        elif fault.kind == "kill_replica":
            router.kill_replica(dep.model, fault.replica, fault.recoverable)
        elif fault.kind == "retire_replica":
            router.retire_replica(dep.model, fault.replica)
        elif fault.kind == "add_replica":
            record["replica"] = router.add_replica(
                dep.model, dep.replicas[0]
            ).replica
        else:
            router.check_all()
    except (KeyError, ValueError, RuntimeError) as exc:
        record["refused"] = f"{type(exc).__name__}: {exc}"
    return record


def _drive(submit, fire, n: int, threads: int, arrivals,
           block: int) -> Tuple[list, float]:
    """Hand request indices ``0..n-1``, ``block`` consecutive ones per
    client call, to ``threads`` submitter threads from one shared
    counter; open loop (``arrivals`` set) holds each call until its last
    index's arrival time.  ``fire(i, handles)`` runs under the counter
    lock before index ``i`` is handed out.  ``submit(i, j)`` sends indices
    ``i..j`` and returns their handles; one that raises leaves its
    exception in their slots — refused requests — and the submitter
    keeps going.  Returns the handles-or-exceptions by index and the
    clock reading at the start barrier."""
    handles: list = [None] * n
    calls = iter(range(0, n, block))
    lock = threading.Lock()
    started: List[float] = []
    barrier = threading.Barrier(
        threads + 1, action=lambda: started.append(time.perf_counter())
    )

    def submitter() -> None:
        barrier.wait()
        while True:
            with lock:
                i = next(calls, None)
                if i is None:
                    return
                j = min(i + block, n)
                fire(j - 1, handles)
            if arrivals is not None:
                lead = arrivals[j - 1] - (time.perf_counter() - started[0])
                if lead > 0:
                    time.sleep(lead)
            try:
                handles[i:j] = submit(i, j)
            except Exception as exc:  # noqa: BLE001 — tallied as refused
                handles[i:j] = [exc] * (j - i)

    workers = [
        threading.Thread(
            target=submitter, name="scenario-submitter", daemon=True
        )
        for _ in range(threads)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    for worker in workers:
        worker.join()
    return handles, started[0]


def _broken(telemetry: TelemetrySnapshot, tally: Dict[str, int],
            pending: int, flight: Tuple[dict, ...]) -> List[str]:
    """The invariants a drained run broke (see the module docstring)."""
    broken = []
    if pending:
        broken.append(
            f"futures: {pending} accepted futures or handles still pending"
        )
    client = tuple(tally[k] for k in ("ok", "shed", "failed", "cancelled"))
    books = (telemetry.completed, telemetry.shed_requests, telemetry.failed,
             telemetry.cancelled)
    if client != books or sum(client) != telemetry.submitted:
        broken.append(
            f"books: client ok/shed/failed/cancelled {client} vs server "
            f"completed/shed/failed/cancelled {books}, "
            f"{telemetry.submitted} submitted"
        )
    if telemetry.in_flight or telemetry.lane_depth:
        broken.append(
            f"queues: in_flight {telemetry.in_flight}, lane depth "
            f"{telemetry.lane_depth} after the drain"
        )
    seqs = [event["seq"] for event in flight]
    if any(a >= b for a, b in zip(seqs, seqs[1:])):
        broken.append("flight: sequence numbers do not strictly increase")
    # Each scale_up spends one earlier up decision.  A ring that dropped
    # its oldest events (first seq above 0) may have dropped the
    # decision of the first scale_up it kept.
    credit = 0 if not seqs or seqs[0] == 0 else 1
    for event in flight:
        if event["kind"] == "scale_decision" and event["action"] == "up":
            credit += 1
        elif event["kind"] == "scale_up":
            credit -= 1
            if credit < 0:
                broken.append(
                    f"flight: scale_up #{event['seq']} has no preceding up "
                    f"scale_decision"
                )
                break
    return broken


def _leaks(threads: set, children: set) -> List[str]:
    """Threads and worker processes started since the baseline that
    are still alive (a bounded poll: exits trail their joins)."""
    deadline = time.monotonic() + LEAK_TIMEOUT_S
    while True:
        alive = [t.name for t in set(threading.enumerate()) - threads]
        alive += [
            p.name for p in set(multiprocessing.active_children()) - children
        ]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    if not alive:
        return []
    return [f"leaks: {sorted(alive)} outlived the server"]


def run_scenario(
    scenario: Scenario, registry: "ModelRegistry | str | None" = None
) -> ScenarioResult:
    """Run ``scenario`` to drain-clean and check the serving invariants.

    ``registry`` (a path builds a :class:`ModelRegistry` on the
    scenario's ``backend``) holds the deployment's model; without a
    deployment the trained tenants are registered into it, and with no
    registry at all into a temporary one.  Raises
    :class:`InvariantViolation` naming every invariant the run broke.
    """
    s = scenario
    dep = s.deployment
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    with ExitStack() as stack:
        trained = registry is None or dep is None
        if registry is None:
            registry = stack.enter_context(tempfile.TemporaryDirectory())
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry, backend=s.backend)
        routes = _train_tenants(s, registry) if trained else []
        if dep is not None:
            if dep.model not in registry:
                raise KeyError(
                    f"deployment model {dep.model!r} is not registered in "
                    f"{registry.root}"
                )
            routes = [r for r in routes if r[0] == dep.model] or [(
                dep.model, registry.resolve_version(dep.model, dep.version),
                request_pool(registry, dep.model, dep.version, seed=s.seed),
            )]
        server = stack.enter_context(
            ClusterServer(
                registry, policy=s.policy, seed=s.seed,
                heartbeat_period_s=HEARTBEAT_S, maintenance_period_s=None,
            ) if s.process
            else FeBiMServer(registry, policy=s.policy, seed=s.seed)
        )
        server.router.max_implicit = max(8, 2 * s.n_models)
        observability = None
        if s.trace_rate > 0 or s.metrics_s is not None:
            observability = server.enable_observability(trace_rate=s.trace_rate)
        else:
            server.telemetry.recorder = FlightRecorder()
        if s.service_time_ms is not None:
            pace = s.service_time_ms / 1e3
            server.router.engine_wrapper = (
                lambda engine, replica: PacedEngine(engine, pace)
            )
        controller = None
        if dep is None:
            # Build every tenant's implicit deployment now, so the run
            # measures steady-state serving, not crossbar programming.
            for name, _, _ in routes:
                server.router.serving(name)
            specs = (ReplicaSpec(registry.backend),)
        else:
            routes[0] = (dep.model, server.deploy(dep).version, routes[0][2])
            specs = dep.replicas
            if dep.slo is not None:
                life = EnduranceModel().cycles_to_window_fraction(0.5)
                controller = server.enable_autoscale(
                    dep.model,
                    pool=HardwarePool(
                        (dep.replicas[0], wear * life) for wear in POOL_WEAR
                    ),
                    scale_down_patience=SCALE_DOWN_PATIENCE,
                    cooldown_steps=1,
                )
        # Reference reads on each spec's engine configuration, and the
        # offline ceiling on the first, before the clock starts.
        references, rates = {}, []
        for name, version, pool in routes:
            for slot, spec in enumerate(specs):
                engine = replica_engine(server, name, version, slot, spec)
                references[name, slot] = engine.infer_batch(pool).predictions
                if slot == 0:
                    rates.append(_offline_sps(engine, pool))
        offline_sps = float(1.0 / np.mean([1.0 / rate for rate in rates]))
        if observability is not None:
            server.sample_metrics()  # anchor the series before traffic
        if s.maintenance_s is not None:
            server.enable_maintenance(s.maintenance_s)
        if s.metrics_s is not None:
            stack.callback(MetricsSampler(
                observability.metrics, server, s.metrics_s
            ).stop, 5.0)

        arrivals = None
        if s.duration_s is not None:
            arrivals = bursty_trace(
                s.duration_s, SPIKE_BASE_RPS, spike_factor=s.spike_factor,
                spike_window=SPIKE_WINDOW, seed=s.seed,
            )
        n = s.n_requests if arrivals is None else len(arrivals)
        timeline = sorted(s.faults, key=lambda fault: fault.at)
        fired: List[dict] = []

        def fire(i: float, handles: list) -> None:
            while timeline and timeline[0].at <= i:
                fired.append(_fire(server, dep, timeline.pop(0), handles))

        def route(i: int):
            """Request ``i``'s tenant, one per client call."""
            return routes[(i // s.block) % len(routes)]

        def client(i: int) -> str:
            """Request ``i``'s client: its call's first request's."""
            return _client(i - i % s.block)

        def submit(i: int, j: int) -> list:
            name, _, pool = route(i)
            if s.block == 1:
                return [server.submit(name, pool[i % len(pool)],
                                      client=client(i))]
            return server.submit_many(
                name, pool[np.arange(i, j) % len(pool)], client=client(i)
            )

        # The default 5 ms switch interval convoys the queue workers
        # behind the submitters.
        stack.callback(sys.setswitchinterval, sys.getswitchinterval())
        sys.setswitchinterval(1e-3)
        handles, started = _drive(
            submit, fire, n, 1 if arrivals is not None else s.submitters,
            arrivals, s.block,
        )
        fire(float("inf"), handles)
        server.drain(DRAIN_TIMEOUT_S)
        wall = time.perf_counter() - started
        if any(f["kind"] == "kill_worker" and "refused" not in f for f in fired):
            # The killed worker respawns on the maintenance cadence.
            deadline = time.monotonic() + RESPAWN_TIMEOUT_S
            while time.monotonic() < deadline and not (
                len(server.worker_pids()) >= dep.placement.workers
                and server.stats().worker_respawns
            ):
                time.sleep(0.05)
        if controller is not None:
            # Let the controller observe the calm and give capacity back,
            # stepped synchronously so the scale-down half needs no
            # wall-clock polling.
            server.stop_maintenance()
            for _ in range((SCALE_DOWN_PATIENCE + 2) * (dep.slo.max_replicas + 1)):
                controller.step()

        # A drained server has settled every accepted request; give the
        # last completions a bounded moment to land.
        settle_by = time.monotonic() + SETTLE_TIMEOUT_S
        for handle in handles:
            if not isinstance(handle, BaseException) and not handle.done():
                try:
                    handle.result(
                        timeout=max(settle_by - time.monotonic(), 0.0)
                    )
                except Exception:  # noqa: BLE001 — tallied below
                    pass
        pending = 0
        tally = dict.fromkeys(("ok", "shed", "failed", "cancelled", "refused"), 0)
        shed_by_class: Dict[str, int] = {}
        matched = 0
        for i, handle in enumerate(handles):
            if isinstance(handle, BaseException):
                outcome = "refused"
            elif not handle.done():
                pending += 1
                continue
            elif handle.cancelled():
                outcome = "cancelled"
            else:
                exc = handle.exception()
                outcome = (
                    "ok" if exc is None
                    else "shed" if isinstance(exc, Overloaded)
                    else "cancelled" if isinstance(exc, CancelledError)
                    else "failed"
                )
            tally[outcome] += 1
            if outcome == "shed":
                cls = "interactive" if client(i) == "interactive" else "batch"
                shed_by_class[cls] = shed_by_class.get(cls, 0) + 1
            elif outcome == "ok":
                name, _, pool = route(i)
                result = handle.result()
                slot = _spec_slot(result.model, len(specs))
                expected = references[name, slot][i % len(pool)]
                matched += int(int(result.prediction) == expected)

        if observability is not None:
            server.sample_metrics()  # close the series on the steady state
        telemetry = server.stats()
        recorded = tuple(
            e.to_dict() for e in server.telemetry.recorder.events()
        )
        broken = _broken(telemetry, tally, pending, recorded)
        traces = flight = metrics = hardware = ()
        if observability is not None:
            flight = recorded
            traces = tuple(t.to_dict() for t in observability.tracer.traces())
            metrics = tuple(p.to_dict() for p in observability.metrics.points())
            hardware = tuple(x.to_dict() for x in observability.ledger.samples())
        result = ScenarioResult(
            scenario=s,
            models=tuple(name for name, _, _ in routes),
            version=routes[0][1],
            n_requests=n,
            wall_s=wall,
            offline_sps=offline_sps,
            matched=matched,
            shed_by_class=shed_by_class,
            replicas=() if dep is None else tuple(
                status.to_dict() for status in server.status(dep.model)
            ),
            workers_up=len(server.worker_pids()) if s.process else None,
            faults=tuple(fired),
            events=tuple(
                e.to_dict() for e in (controller.history if controller else ())
            ),
            event_counts=dict(Counter(e["kind"] for e in recorded)),
            telemetry=telemetry,
            traces=traces,
            flight=flight,
            metrics=metrics,
            hardware=hardware,
            **tally,
        )
    broken += _leaks(threads, children)
    if broken:
        raise InvariantViolation(broken)
    return result


# --------------------------------------------------------------------- health
@dataclass(frozen=True)
class HealthRunResult:
    """Outcome of one seeded aging run against a live deployment.

    The acceptance contract of ``benchmarks/bench_health.py``: in the
    *reactive* phase (margin floor off) the canary signal ratio must
    cross ``warn_ratio`` strictly before the first prediction flip; in
    the *early-warning* phase (router margin floor at ``warn_ratio``,
    same age schedule) the heal ladder must fire from the
    ``margin_warning`` — at the step where the reactive phase merely
    degraded — restore the margin bit-identically
    (``post_heal_signal_ratio == 1.0`` exactly, noise-free reads), and
    no prediction may ever flip.
    """

    warn_ratio: float
    drift_rate: float
    ages_s: Tuple[float, ...]
    reactive: Tuple[dict, ...]
    first_warning_step: Optional[int]
    first_flip_step: Optional[int]
    early: Tuple[dict, ...]
    heal_step: Optional[int]
    post_heal_signal_ratio: float
    early_flips: int
    reactive_events: Tuple[dict, ...]
    events: Tuple[dict, ...]
    ledger: Tuple[dict, ...]
    metrics: Tuple[dict, ...]
    telemetry: TelemetrySnapshot

    def to_dict(self) -> dict:
        """JSON-serialisable form (``BENCH_health.json``)."""
        return {"bench": "health", **_plain(self)}


#: Age schedule for the aging phases: log-spaced bake times, one sweep
#: per point.  Chosen with :data:`HEALTH_DRIFT_RATE` so the signal
#: ratio crosses the warning threshold a few sweeps before the first
#: prediction flip (the campaign-corner failure sequence, compressed).
HEALTH_AGES_S = tuple(float(a) for a in np.geomspace(1e-1, 1e8, 12))
#: Leaky-stack drift corner driving the aging phases — hot enough that
#: differential drift eventually flips a canary inside the horizon.
HEALTH_DRIFT_RATE = 0.2
#: Signal-ratio warning threshold (fraction of the pristine baseline).
HEALTH_WARN_RATIO = 0.7


def _run_aging_phase(
    min_signal_ratio: float,
    ages_s: Tuple[float, ...],
    drift_rate: float,
    seed: int,
    cyclic: bool,
):
    """One deployment aged along ``ages_s`` with per-step heal sweeps.

    ``min_signal_ratio`` is the router's margin floor (0 = reactive:
    the ladder only fires on a prediction flip, since the shift channel
    is off too).  ``cyclic`` restarts the age
    schedule from the top after any heal (the bake clock restarts with
    the reprogrammed array — the early-warning phase's steady state);
    the reactive phase runs the schedule straight through so the flip
    is reached.  Returns ``(steps, post_heal_ratio, events, ledger,
    metrics, telemetry)``.
    """
    from repro.devices.retention import RetentionModel
    from repro.reliability.faults import AgeClock
    from repro.serving.deployment import Deployment, ReplicaSpec, RoutingPolicy

    model = "iris"
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)  # fefet — the drift-capable reference
        data = load_dataset(model)
        X_tr, X_te, y_tr, _ = train_test_split(
            data.data, data.target, test_size=0.5, seed=seed
        )
        pipe = FeBiMPipeline(q_f=4, q_l=2, seed=seed).fit(X_tr, y_tr)
        pipe.register_into(registry, model)
        with FeBiMServer(registry, seed=seed) as server:
            observability = server.enable_observability()
            server.deploy(
                Deployment(
                    model=model,
                    replicas=(ReplicaSpec("fefet"),),
                    policy=RoutingPolicy(kind="cost"),
                )
            )
            # The router carries the margin floor; its shift channel
            # stays off, so the reactive phase fails on prediction
            # flips alone.
            server.router.min_signal_ratio = float(min_signal_ratio)
            server.router.install_canaries(
                model, pipe.transform_levels(X_te[:32])
            )
            # Baking this engine ages the serving replica the sweep
            # checks and the hardware ledger samples.
            engine = server.engine_for(model)
            clock = AgeClock(
                engine.backend, retention=RetentionModel(drift_rate=drift_rate)
            )
            steps: List[dict] = []
            post_heal_ratio = float("nan")
            pos = 0
            for step in range(len(ages_s)):
                target = float(ages_s[pos])
                clock.advance(max(target - clock.age_s, 0.0))
                pos += 1
                # The sweep refreshes the replica's margin reading
                # before the hardware ledger samples it.
                report = server.router.check_replica(model, 0)
                server.sample_metrics()
                steps.append({"step": step, "age_s": target, **report.to_dict()})
                if report.action in ("refresh", "replace"):
                    # The heal reprogrammed the array: the bake restarts
                    # from pristine, so the clock restarts too.
                    clock.reset()
                    if post_heal_ratio != post_heal_ratio:
                        # Unaged follow-up sweep: exactly 1.0 when the
                        # reprogram restored the pristine currents
                        # bit-identically.
                        post_heal_ratio = server.router.check_replica(
                            model, 0
                        ).signal_ratio
                    if cyclic:
                        pos = 0
                if pos >= len(ages_s):
                    break
            telemetry = server.stats()
            events = tuple(
                e.to_dict() for e in observability.recorder.events()
            )
            ledger = tuple(
                s.to_dict() for s in observability.ledger.samples()
            )
            metrics = tuple(
                p.to_dict() for p in observability.metrics.points()
            )
    return steps, post_heal_ratio, events, ledger, metrics, telemetry


def run_health_workload(
    warn_ratio: float = HEALTH_WARN_RATIO,
    drift_rate: float = HEALTH_DRIFT_RATE,
    ages_s: Tuple[float, ...] = HEALTH_AGES_S,
    seed: int = 0,
) -> HealthRunResult:
    """Watch an array age, twice — reactively, then with margin probes.

    **Reactive phase** (margin floor off): the deployment bakes along
    ``ages_s``; each sweep's heal ladder fires only when a canary
    prediction flips.  The per-step records show the failure sequence
    the campaigns predicted: signal ratio collapsing for sweeps on end
    while every prediction stays correct, then the flip.

    **Early-warning phase** (router margin floor at ``warn_ratio``,
    fresh identically-seeded deployment, same schedule): the ladder
    fires from the ``margin_warning`` at the step where the reactive
    phase merely degraded, the refresh restores the pristine read
    bit-identically, the bake restarts, and no prediction ever flips.
    """
    check_positive(warn_ratio, "warn_ratio")
    reactive, _, reactive_events, _, _, _ = _run_aging_phase(
        0.0, ages_s, drift_rate, seed, cyclic=False
    )
    first_warning = next(
        (
            s["step"]
            for s in reactive
            if s["action"] == "ok"
            and s["signal_ratio"] is not None
            and s["signal_ratio"] < warn_ratio
        ),
        None,
    )
    first_flip = next(
        (s["step"] for s in reactive if s["accuracy"] < 1.0), None
    )
    early, post_heal, events, ledger, metrics, telemetry = _run_aging_phase(
        warn_ratio, ages_s, drift_rate, seed, cyclic=True
    )
    heal_step = next(
        (s["step"] for s in early if s["action"] != "ok"), None
    )
    early_flips = sum(1 for s in early if s["accuracy"] < 1.0)
    return HealthRunResult(
        warn_ratio=float(warn_ratio),
        drift_rate=float(drift_rate),
        ages_s=tuple(float(a) for a in ages_s),
        reactive=tuple(reactive),
        first_warning_step=first_warning,
        first_flip_step=first_flip,
        early=tuple(early),
        heal_step=heal_step,
        post_heal_signal_ratio=post_heal,
        early_flips=early_flips,
        reactive_events=reactive_events,
        events=events,
        ledger=ledger,
        metrics=metrics,
        telemetry=telemetry,
    )


def format_health_run(result: HealthRunResult) -> str:
    """Human-readable report (``febim health``)."""
    from repro.reliability.observability import format_health_timeline

    def _r(value) -> str:
        return "-" if value is None else f"{value:.3f}"

    lines = [
        f"health workload: drift {result.drift_rate:g}, "
        f"{len(result.ages_s)} ages to {result.ages_s[-1]:.3g} s, "
        f"warn below {result.warn_ratio:g}x pristine signal",
        "reactive phase (margin floor off):",
    ]
    for s in result.reactive:
        mark = ""
        if s["step"] == result.first_warning_step:
            mark = "  <- would warn"
        if s["step"] == result.first_flip_step:
            mark = "  <- PREDICTION FLIP"
        lines.append(
            f"  step {s['step']:2d}  age {s['age_s']:.3g}s  "
            f"signal {_r(s['signal_ratio'])}  "
            f"accuracy {s['accuracy']:.3f}  {s['action']}{mark}"
        )
    lines.append(
        f"early-warning phase (floor {result.warn_ratio:g}): "
        f"heal at step {result.heal_step}, "
        f"post-heal signal {_r(result.post_heal_signal_ratio)}, "
        f"{result.early_flips} flips"
    )
    for s in result.early:
        lines.append(
            f"  step {s['step']:2d}  age {s['age_s']:.3g}s  "
            f"signal {_r(s['signal_ratio'])}  "
            f"accuracy {s['accuracy']:.3f}  {s['action']}"
        )
    lines.append("")
    lines.append(format_health_timeline(result.ledger, result.events))
    return "\n".join(lines)


