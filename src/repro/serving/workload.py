"""Synthetic serving workloads: mixed-tenant traffic against a server.

Shared by ``febim serve``, ``benchmarks/bench_serving.py`` and
``examples/serving_demo.py``: train a few tenant models, register them,
fire a stream of single-sample requests from concurrent submitter
threads, and report sustained served throughput next to the offline
``infer_batch`` ceiling the scheduler is trying to reach.

The offline ceiling is measured on the *same engines* that serve the
traffic (one dense ``infer_batch`` at ``offline_batch`` samples), so
``served_fraction`` isolates exactly the cost of the online layer:
queueing, coalescing, futures and thread handoff.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_dataset, make_gaussian_blobs
from repro.datasets.splits import train_test_split
from repro.devices.endurance import EnduranceModel
from repro.serving.observability import MetricsSampler, Observability
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import BatchPolicy, Overloaded
from repro.serving.server import FeBiMServer
from repro.serving.telemetry import TelemetrySnapshot
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive, check_positive_int

#: Dense batch size used for the offline throughput ceiling.
OFFLINE_BATCH = 256


@dataclass(frozen=True)
class ServingRunResult:
    """Outcome of one mixed-traffic serving run.

    Attributes
    ----------
    served_sps:
        Sustained served samples/sec over the whole run (submit of the
        first request to completion of the last, drain included).
    offline_sps:
        Offline ``infer_batch`` ceiling at :data:`OFFLINE_BATCH`
        samples, traffic-weighted across tenants.
    matched:
        Requests whose served prediction was verified bit-identical to
        the direct offline prediction for the same sample.
    traces / metrics:
        Sampled request traces and the periodic metrics time-series
        (as plain dicts), empty unless the run armed observability.
    """

    dataset: str
    models: Tuple[str, ...]
    policy: BatchPolicy
    n_requests: int
    submitters: int
    wall_s: float
    served_sps: float
    offline_sps: float
    matched: int
    telemetry: TelemetrySnapshot
    backend: str = "fefet"
    traces: Tuple[dict, ...] = ()
    metrics: Tuple[dict, ...] = ()

    @property
    def served_fraction(self) -> float:
        """Served throughput as a fraction of the offline ceiling."""
        if self.offline_sps <= 0:
            return float("nan")
        return self.served_sps / self.offline_sps

    def to_dict(self) -> dict:
        """JSON-serialisable form (``febim serve --json``)."""
        return {
            "bench": "serving",
            "dataset": self.dataset,
            "backend": self.backend,
            "models": list(self.models),
            "policy": {
                "max_batch": self.policy.max_batch,
                "max_wait_ms": self.policy.max_wait_ms,
            },
            "n_requests": self.n_requests,
            "submitters": self.submitters,
            "wall_s": self.wall_s,
            "served_sps": self.served_sps,
            "offline_sps": self.offline_sps,
            "served_fraction": self.served_fraction,
            "matched": self.matched,
            "telemetry": self.telemetry.to_dict(),
            "traces": [dict(t) for t in self.traces],
            "metrics": [dict(p) for p in self.metrics],
        }


def _tenant_datasets(
    dataset: str,
    n_models: int,
    seed_pool,
    synthetic_classes: int,
    synthetic_features: int,
) -> List[Tuple[str, object]]:
    """Tenant (name, dataset) pairs for the workload.

    ``"synthetic"`` draws one independent many-class blob problem per
    tenant (the serving-bench shape: enough classes/features that the
    numpy read dominates scheduler overhead); bundled datasets share
    the data but train tenants on independent splits.
    """
    tenants = []
    for i, rng in enumerate(seed_pool):
        name = f"{dataset}-{chr(ord('a') + i)}"
        if dataset == "synthetic":
            data = make_gaussian_blobs(
                n_samples=1500,
                n_features=synthetic_features,
                n_classes=synthetic_classes,
                class_sep=2.5,
                seed=rng,
            )
        else:
            data = load_dataset(dataset)
        tenants.append((name, data))
    return tenants


def _drive_submitters(
    submit_request,
    n_requests: int,
    submitters: int,
    drain,
    timeout_s: float = 120.0,
):
    """Fire ``n_requests`` from concurrent submitter threads.

    ``submit_request(i)`` submits request ``i`` and returns its future;
    ``drain(timeout)`` flushes the server.  Returns ``(futures,
    wall_s)`` measured from the submitters' start barrier to
    drain-clean.  A submitter whose submit raises stops; its remaining
    slots stay ``None`` for the caller to account as errors.  The
    shared harness of both workload runners — GIL switch-interval
    tuning included (the default 5 ms interval convoys the scheduler
    worker behind the submitters).
    """
    futures: List[Optional[object]] = [None] * n_requests
    barrier = threading.Barrier(submitters + 1)

    def submitter(worker: int) -> None:
        barrier.wait()
        try:
            for i in range(worker, n_requests, submitters):
                futures[i] = submit_request(i)
        except Exception as exc:  # noqa: BLE001 — Nones counted by callers
            # Keep the cause visible: an error-count assertion downstream
            # is undebuggable without it.
            print(
                f"workload submitter {worker} stopped: {exc!r}",
                file=sys.stderr,
            )

    threads = [
        threading.Thread(target=submitter, args=(w,), daemon=True)
        for w in range(submitters)
    ]
    prev_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)
    try:
        for t in threads:
            t.start()
        barrier.wait()
        started = time.perf_counter()
        for t in threads:
            t.join()
        if not drain(timeout_s):
            raise RuntimeError(
                f"serving workload failed to drain in {timeout_s:.0f} s"
            )
        wall = time.perf_counter() - started
    finally:
        sys.setswitchinterval(prev_switch)
    return futures, wall


def run_serving_workload(
    dataset: str = "iris",
    n_models: int = 2,
    n_requests: int = 2048,
    submitters: int = 4,
    policy: Optional[BatchPolicy] = None,
    q_f: int = 4,
    q_l: int = 2,
    registry_root: Optional[str] = None,
    offline_batch: int = OFFLINE_BATCH,
    synthetic_classes: int = 20,
    synthetic_features: int = 24,
    seed: int = 0,
    backend: str = "fefet",
    trace_rate: float = 0.0,
    metrics_period_s: Optional[float] = None,
) -> ServingRunResult:
    """Serve a mixed request stream and measure sustained throughput.

    Parameters
    ----------
    dataset:
        A bundled dataset name, or ``"synthetic"`` for independent
        many-class blob tenants.
    n_models:
        Number of tenant models registered and mixed in the traffic.
    n_requests:
        Total single-sample requests across all submitters.
    submitters:
        Concurrent submitter threads (each owns a disjoint slice of the
        request stream, round-robin across tenants).
    registry_root:
        Registry directory; a temporary one is used when omitted.
    offline_batch:
        Dense batch size for the offline ceiling measurement.
    backend:
        Array technology the registry serves (every tenant engine is
        built on it).
    trace_rate:
        When positive, arm observability and sample this fraction of
        requests into traces (``result.traces``).
    metrics_period_s:
        When set, a :class:`~repro.serving.observability.MetricsSampler`
        records the telemetry time-series on this period
        (``result.metrics``); implies arming observability.

    Returns
    -------
    :class:`ServingRunResult` — throughput, ceiling, verification and
    the final telemetry snapshot after a draining shutdown.
    """
    check_positive_int(n_models, "n_models")
    check_positive_int(n_requests, "n_requests")
    check_positive_int(submitters, "submitters")
    check_positive_int(offline_batch, "offline_batch")
    policy = policy or BatchPolicy()

    with tempfile.TemporaryDirectory() as tmp:
        root = registry_root or tmp
        registry = ModelRegistry(
            root, engine_cache_size=max(8, 2 * n_models), backend=backend
        )

        # Train and register the tenants; keep each tenant's discretised
        # request pool and its expected offline predictions.
        tenant_rngs = spawn_rngs(seed, n_models)
        names: List[str] = []
        pools: Dict[str, np.ndarray] = {}
        tenants = _tenant_datasets(
            dataset, n_models, tenant_rngs, synthetic_classes, synthetic_features
        )
        for name, data in tenants:
            X_tr, X_te, y_tr, _ = train_test_split(
                data.data, data.target, test_size=0.5, seed=zlib.crc32(name.encode())
            )
            pipe = FeBiMPipeline(
                q_f=q_f, q_l=q_l, seed=seed, backend=backend
            ).fit(X_tr, y_tr)
            pipe.register_into(registry, name)
            pools[name] = pipe.transform_levels(X_te)
            names.append(name)

        with FeBiMServer(registry, policy=policy, seed=seed) as server:
            observability = None
            sampler = None
            if trace_rate > 0 or metrics_period_s is not None:
                observability = server.enable_observability(
                    trace_rate=trace_rate
                )
                if metrics_period_s is not None:
                    sampler = MetricsSampler(
                        observability.metrics, server, metrics_period_s
                    )
            # Warm every tenant's engine so the run measures steady-state
            # serving, not one-time crossbar programming.
            engines = {name: server.engine_for(name) for name in names}
            expected = {
                name: engines[name].infer_batch(pools[name]).predictions
                for name in names
            }

            # Offline ceiling: dense infer_batch on the serving engines,
            # weighted by each tenant's share of the traffic.
            per_model_sps = []
            for name in names:
                pool = pools[name]
                idx = np.arange(offline_batch) % pool.shape[0]
                dense = pool[idx]
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    engines[name].infer_batch(dense)
                    best = min(best, time.perf_counter() - start)
                per_model_sps.append(offline_batch / max(best, 1e-12))
            offline_sps = float(
                1.0 / np.mean([1.0 / sps for sps in per_model_sps])
            )

            # The mixed request stream: submitter s owns requests
            # s, s + submitters, ... — round-robin across tenants by
            # request index so traffic interleaves models.
            plan = [
                (names[i % len(names)], i) for i in range(n_requests)
            ]

            def submit_request(i: int):
                name, req = plan[i]
                pool = pools[name]
                return server.submit(name, pool[req % pool.shape[0]])

            futures, wall = _drive_submitters(
                submit_request, n_requests, submitters, server.drain
            )

            # Verify: every future resolved exactly once with the
            # bit-identical offline prediction for its sample.
            matched = 0
            for i, future in enumerate(futures):
                name, req = plan[i]
                if future is None:
                    continue
                result = future.result(timeout=0)
                pool = pools[name]
                if result.prediction == expected[name][req % pool.shape[0]]:
                    matched += 1
            if sampler is not None:
                sampler.stop(timeout=5.0)
            telemetry = server.stats()
            traces: Tuple[dict, ...] = ()
            metrics: Tuple[dict, ...] = ()
            if observability is not None:
                traces = tuple(
                    t.to_dict() for t in observability.tracer.traces()
                )
                metrics = tuple(
                    p.to_dict() for p in observability.metrics.points()
                )

    return ServingRunResult(
        dataset=dataset,
        models=tuple(names),
        policy=policy,
        n_requests=n_requests,
        submitters=submitters,
        wall_s=wall,
        served_sps=n_requests / max(wall, 1e-12),
        offline_sps=offline_sps,
        matched=matched,
        telemetry=telemetry,
        backend=backend,
        traces=traces,
        metrics=metrics,
    )


@dataclass(frozen=True)
class DeploymentRunResult:
    """Outcome of one mixed-traffic run against a deployment.

    ``errors`` counts client-visible failures (a request that failed on
    every serviceable replica); internal replica failures that failed
    over transparently appear in ``telemetry.failovers`` instead.
    """

    deployment: dict
    version: int
    n_requests: int
    submitters: int
    wall_s: float
    served_sps: float
    errors: int
    replicas: Tuple[dict, ...]
    telemetry: TelemetrySnapshot

    def to_dict(self) -> dict:
        """JSON-serialisable form (``febim serve --deployment --json``)."""
        return {
            "bench": "deployment",
            "deployment": dict(self.deployment),
            "version": self.version,
            "n_requests": self.n_requests,
            "submitters": self.submitters,
            "wall_s": self.wall_s,
            "served_sps": self.served_sps,
            "errors": self.errors,
            "replicas": [dict(r) for r in self.replicas],
            "telemetry": self.telemetry.to_dict(),
        }


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


def _checked_run(registry, deployment, n_requests: int, submitters: int,
                 n_clients: int) -> ModelRegistry:
    """Validate a deployment run's arguments; returns the registry."""
    check_positive_int(n_requests, "n_requests")
    check_positive_int(submitters, "submitters")
    check_positive_int(n_clients, "n_clients")
    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    deployment.validate()
    if deployment.model not in registry:
        raise KeyError(
            f"deployment model {deployment.model!r} is not registered in "
            f"{registry.root}"
        )
    return registry


def _drive_deployment(server, deployment, n_requests: int, submitters: int,
                      n_clients: int, seed: int, chaos=None):
    """Apply ``deployment`` on ``server`` and fire ``n_requests`` from
    concurrent submitters, cycling ``n_clients`` client identities (the
    ``sticky`` policy's affinity keys); ``chaos(i)``, when given, runs
    before request ``i``.  Returns ``(applied, wall_s, errors)``, errors
    being client-visible failures."""
    pool = request_pool(
        server.registry, deployment.model, deployment.version, seed=seed
    )
    applied = server.deploy(deployment)

    def submit_request(i: int):
        if chaos is not None:
            chaos(i)
        return server.submit(
            deployment.model,
            pool[i % pool.shape[0]],
            client=f"client-{i % n_clients}",
        )

    futures, wall = _drive_submitters(
        submit_request, n_requests, submitters, server.drain
    )
    errors = sum(
        1 for future in futures
        if future is None
        or future.cancelled()
        or future.exception(timeout=30.0) is not None
    )
    return applied, wall, errors


def run_deployment_workload(
    registry: "ModelRegistry | str",
    deployment,
    n_requests: int = 1024,
    submitters: int = 4,
    policy: Optional[BatchPolicy] = None,
    n_clients: int = 8,
    seed: int = 0,
) -> DeploymentRunResult:
    """Drive a mixed request stream through a deployment's router.

    The deployment's model must already be registered in ``registry``
    (a path builds a :class:`ModelRegistry` with default options).
    ``n_clients`` distinct client identities are cycled through the
    traffic so the ``sticky`` policy has affinity keys to hash.

    Returns sustained served throughput, client-visible error count and
    the final telemetry snapshot — per-replica counters included, which
    is what the routing-policy benchmarks tabulate.
    """
    registry = _checked_run(registry, deployment, n_requests, submitters,
                            n_clients)
    with FeBiMServer(registry, policy=policy, seed=seed) as server:
        applied, wall, errors = _drive_deployment(
            server, deployment, n_requests, submitters, n_clients, seed
        )
        statuses = tuple(s.to_dict() for s in server.status(deployment.model))
        telemetry = server.stats()

    return DeploymentRunResult(
        deployment=deployment.to_dict(),
        version=applied.version,
        n_requests=n_requests,
        submitters=submitters,
        wall_s=wall,
        served_sps=n_requests / max(wall, 1e-12),
        errors=errors,
        replicas=statuses,
        telemetry=telemetry,
    )


def format_deployment_run(result: DeploymentRunResult) -> str:
    """Human-readable report (``febim serve --deployment``)."""
    spec = result.deployment
    return _format_run(result, [
        f"deployment workload: {spec['model']}@v{result.version} "
        f"[{spec['policy']['kind']}] — {result.n_requests} requests, "
        f"{result.submitters} submitters",
    ])


def _format_run(result: DeploymentRunResult, lines: List[str]) -> str:
    """A run report: the header ``lines[0]``, the run's throughput, the
    rest of ``lines``, then its replicas and telemetry."""
    lines.insert(1, (
        f"throughput served {result.served_sps:.0f} sps, "
        f"{result.errors} client-visible errors"
    ))
    for replica in result.replicas:
        lines.append(
            f"  {replica['replica']:26s} {replica['state']:8s} "
            f"unit delay {replica['unit_delay_s'] * 1e9:8.1f} ns  "
            f"weight {replica['weight']:g}"
        )
    lines.append(result.telemetry.format_lines())
    return "\n".join(lines)


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


@dataclass(frozen=True)
class AutoscaleRunResult:
    """Outcome of one bursty open-loop run against an SLO deployment.

    The acceptance contract of ``benchmarks/bench_autoscale.py``: the
    spike must be survived with zero *failed* requests (``shed`` are
    typed :class:`~repro.serving.scheduler.Overloaded` rejections, a
    deliberate admission decision), both a scale-up and a scale-down
    observed, and every scale-up placed on the least-worn pool slot.
    """

    n_requests: int
    ok: int
    shed: int
    failed: int
    shed_by_class: Dict[str, int]
    wall_s: float
    p95_ms: float
    target_p95_ms: Optional[float]
    held_slo: bool
    scale_ups: int
    scale_downs: int
    final_replicas: int
    events: Tuple[dict, ...]
    placements: Tuple[dict, ...]
    autoscale: bool
    base_rps: float
    spike_factor: float
    telemetry: TelemetrySnapshot
    traces: Tuple[dict, ...] = ()
    flight: Tuple[dict, ...] = ()
    metrics: Tuple[dict, ...] = ()
    hardware: Tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        """JSON-serialisable form (``BENCH_autoscale.json``)."""
        return {
            "bench": "autoscale",
            "autoscale": self.autoscale,
            "base_rps": self.base_rps,
            "spike_factor": self.spike_factor,
            "n_requests": self.n_requests,
            "ok": self.ok,
            "shed": self.shed,
            "failed": self.failed,
            "shed_by_class": dict(self.shed_by_class),
            "wall_s": self.wall_s,
            "p95_ms": self.p95_ms,
            "target_p95_ms": self.target_p95_ms,
            "held_slo": self.held_slo,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "final_replicas": self.final_replicas,
            "events": [dict(e) for e in self.events],
            "placements": [dict(p) for p in self.placements],
            "telemetry": self.telemetry.to_dict(),
            "traces": [dict(t) for t in self.traces],
            "flight": [dict(e) for e in self.flight],
            "metrics": [dict(p) for p in self.metrics],
            "hardware": [dict(s) for s in self.hardware],
        }


def run_autoscale_workload(
    duration_s: float = 2.5,
    base_rps: float = 100.0,
    spike_factor: float = 12.0,
    spike_window: Tuple[float, float] = (0.3, 0.55),
    service_time_ms: float = 2.0,
    target_p95_ms: float = 150.0,
    max_queue_depth: int = 16,
    min_replicas: int = 1,
    max_replicas: int = 3,
    pool_wear: Tuple[float, ...] = (0.6, 0.2, 0.9),
    maintenance_period_s: float = 0.12,
    scale_down_patience: int = 3,
    max_batch: int = 16,
    interactive_share: int = 4,
    seed: int = 0,
    autoscale: bool = True,
    trace_rate: float = 0.0,
) -> AutoscaleRunResult:
    """Drive a diurnal + spike trace into an SLO-scaled deployment.

    One paced replica (``PacedEngine`` at ``service_time_ms`` per
    sample — a capacity of ``1000 / service_time_ms`` samples/sec)
    serves an iris deployment whose
    :class:`~repro.serving.deployment.SLOPolicy` bounds every queue at
    ``max_queue_depth`` and allows growth to ``max_replicas``.  An
    :class:`~repro.serving.autoscale.AutoscaleController` on the
    maintenance cadence absorbs the ``spike_factor`` burst by drawing
    replicas from a :class:`~repro.serving.autoscale.HardwarePool`
    whose slots are pre-worn per ``pool_wear`` (fractions of usable
    life), so placement order is observable.  Every
    ``interactive_share``-th request carries the high-priority
    ``"interactive"`` client identity; the rest are low-priority batch
    tenants — the shed ordering the result's ``shed_by_class``
    reports.

    After the trace drains, the controller is stepped synchronously
    (no wall-clock polling) until its calm-streak logic has had every
    chance to retire the spike capacity — the scale-*down* half of the
    loop, made deterministic.

    ``autoscale=False`` runs the no-SLO baseline: one unbounded
    replica, no controller — every request is served eventually and
    the p95 shows what the spike does without the loop closed.

    ``trace_rate > 0`` arms the observability plane for the run: the
    result then carries sampled request traces (``traces``), the
    flight-recorder event log (``flight`` — scale decisions with their
    triggering snapshots, sheds, failovers in causal order) and the
    metrics time-series (``metrics``, sampled on the maintenance
    cadence plus a final post-scale-down point).
    """
    check_positive(duration_s, "duration_s")
    check_positive(service_time_ms, "service_time_ms")
    check_positive_int(max_batch, "max_batch")
    check_positive_int(interactive_share, "interactive_share")
    from repro.datasets import load_dataset as _load
    from repro.serving.autoscale import HardwarePool
    from repro.serving.deployment import (
        Deployment,
        ReplicaSpec,
        RoutingPolicy,
        SLOPolicy,
    )

    model = "iris"
    arrivals = bursty_trace(
        duration_s,
        base_rps,
        spike_factor=spike_factor,
        spike_window=spike_window,
        seed=seed,
    )
    n_requests = int(arrivals.shape[0])

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp, backend="ideal")
        data = _load(model)
        X_tr, X_te, y_tr, _ = train_test_split(
            data.data, data.target, test_size=0.5, seed=seed
        )
        pipe = FeBiMPipeline(q_f=4, q_l=2, seed=seed, backend="ideal").fit(
            X_tr, y_tr
        )
        pipe.register_into(registry, model)
        pool = pipe.transform_levels(X_te)

        policy = BatchPolicy(max_batch=max_batch, max_wait_ms=2.0)
        slo = SLOPolicy(
            target_p95_ms=target_p95_ms,
            max_queue_depth=max_queue_depth,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            priorities={"interactive": 10},
        )
        deployment = Deployment(
            model=model,
            replicas=tuple(ReplicaSpec("ideal") for _ in range(min_replicas)),
            policy=RoutingPolicy(kind="cost"),
            slo=slo if autoscale else None,
        )

        with FeBiMServer(registry, policy=policy, seed=seed) as server:
            observability = None
            if trace_rate > 0:
                observability = server.enable_observability(
                    trace_rate=trace_rate
                )
            server.router.engine_wrapper = lambda engine, replica: PacedEngine(
                engine, service_time_ms / 1e3
            )
            server.deploy(deployment)
            if observability is not None:
                # Anchor the time-series before traffic; the maintenance
                # thread's metrics hook samples during the run.
                server.sample_metrics()
            controller = None
            if autoscale:
                life = EnduranceModel().cycles_to_window_fraction(0.5)
                hw_pool = HardwarePool(
                    (ReplicaSpec("ideal"), frac * life) for frac in pool_wear
                )
                controller = server.enable_autoscale(
                    model,
                    pool=hw_pool,
                    scale_down_patience=scale_down_patience,
                    cooldown_steps=1,
                )
                server.enable_maintenance(maintenance_period_s)

            clients = [
                "interactive" if i % interactive_share == 0 else f"batch-{i % 5}"
                for i in range(n_requests)
            ]
            futures: List[Optional[object]] = [None] * n_requests
            prev_switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-3)
            started = time.perf_counter()
            try:
                for i in range(n_requests):
                    lead = arrivals[i] - (time.perf_counter() - started)
                    if lead > 0:
                        time.sleep(lead)
                    futures[i] = server.submit(
                        model,
                        pool[i % pool.shape[0]],
                        client=clients[i],
                    )
                if not server.drain(60.0):
                    raise RuntimeError(
                        "autoscale workload failed to drain in 60 s"
                    )
                wall = time.perf_counter() - started
            finally:
                sys.setswitchinterval(prev_switch)

            # Let the controller observe the calm and give capacity
            # back — stepped synchronously so the scale-down half needs
            # no wall-clock polling (and no sleeps in tests).
            if autoscale:
                server.stop_maintenance()
                for _ in range(
                    (scale_down_patience + 2) * (max_replicas + 1)
                ):
                    controller.step()

            ok = shed = failed = 0
            shed_by_class: Dict[str, int] = {}
            for i, future in enumerate(futures):
                exc = None if future is None else future.exception(timeout=30.0)
                if future is not None and exc is None:
                    ok += 1
                elif isinstance(exc, Overloaded):
                    shed += 1
                    cls = (
                        "interactive"
                        if clients[i] == "interactive"
                        else "batch"
                    )
                    shed_by_class[cls] = shed_by_class.get(cls, 0) + 1
                else:
                    failed += 1
            telemetry = server.stats()
            final_replicas = len(
                [
                    s
                    for s in server.router.status(model)
                    if s.state in ("healthy", "down")
                ]
            )
            events = tuple(
                e.to_dict() for e in (controller.history if controller else ())
            )
            traces: Tuple[dict, ...] = ()
            flight: Tuple[dict, ...] = ()
            metrics: Tuple[dict, ...] = ()
            hardware: Tuple[dict, ...] = ()
            if observability is not None:
                # Close the series on the post-scale-down steady state.
                server.sample_metrics()
                traces = tuple(
                    t.to_dict() for t in observability.tracer.traces()
                )
                flight = tuple(
                    e.to_dict() for e in observability.recorder.events()
                )
                metrics = tuple(
                    p.to_dict() for p in observability.metrics.points()
                )
                hardware = tuple(
                    s.to_dict() for s in observability.ledger.samples()
                )

    placements = tuple(
        {
            "slot": e["slot"],
            "replica": e["replica"],
            "wear_fraction": e["wear_fraction"],
        }
        for e in events
        if e["action"] == "up"
    )
    p95_ms = float(telemetry.p95_latency_s * 1e3)
    target = target_p95_ms if autoscale else None
    return AutoscaleRunResult(
        n_requests=n_requests,
        ok=ok,
        shed=shed,
        failed=failed,
        shed_by_class=shed_by_class,
        wall_s=wall,
        p95_ms=p95_ms,
        target_p95_ms=target,
        held_slo=(target is None or p95_ms <= target),
        scale_ups=telemetry.scale_ups,
        scale_downs=telemetry.scale_downs,
        final_replicas=final_replicas,
        events=events,
        placements=placements,
        autoscale=autoscale,
        base_rps=base_rps,
        spike_factor=spike_factor,
        telemetry=telemetry,
        traces=traces,
        flight=flight,
        metrics=metrics,
        hardware=hardware,
    )


def format_autoscale_run(result: AutoscaleRunResult) -> str:
    """Human-readable report (``febim serve --slo``)."""
    mode = "slo autoscale" if result.autoscale else "baseline (no slo)"
    lines = [
        f"autoscale workload [{mode}]: {result.n_requests} requests, "
        f"base {result.base_rps:g} rps, spike x{result.spike_factor:g}",
        f"outcome    {result.ok} served  {result.shed} shed  "
        f"{result.failed} failed  in {result.wall_s:.2f} s",
        f"latency    p95 {result.p95_ms:.1f} ms"
        + (
            f" vs target {result.target_p95_ms:g} ms "
            f"({'HELD' if result.held_slo else 'MISSED'})"
            if result.target_p95_ms is not None
            else ""
        ),
        f"scaling    {result.scale_ups} ups  {result.scale_downs} downs  "
        f"{result.final_replicas} replicas at end",
    ]
    for cls in sorted(result.shed_by_class):
        lines.append(f"  shed {cls:12s} {result.shed_by_class[cls]}")
    for event in result.events:
        if event["action"] == "hold":
            continue
        slot = f" slot={event['slot']}" if event["slot"] else ""
        lines.append(
            f"  step {event['step']:3d} {event['action']:4s} "
            f"{event['replica'] or '':26s}{slot}  ({event['reason']})"
        )
    lines.append(result.telemetry.format_lines())
    return "\n".join(lines)


def format_serving(result: ServingRunResult) -> str:
    """Human-readable report block (``febim serve --report``)."""
    lines = [
        f"serving workload on {result.dataset} [{result.backend}]: "
        f"{result.n_requests} requests, {result.submitters} submitters, "
        f"{len(result.models)} tenants",
        f"policy     max_batch {result.policy.max_batch}, "
        f"max_wait {result.policy.max_wait_ms} ms",
        f"throughput served {result.served_sps:.0f} sps vs offline ceiling "
        f"{result.offline_sps:.0f} sps ({result.served_fraction * 100:.0f}%)",
        f"verified   {result.matched}/{result.n_requests} predictions "
        f"bit-identical to offline",
        result.telemetry.format_lines(),
    ]
    return "\n".join(lines)


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
        return {
            "bench": "health",
            "warn_ratio": self.warn_ratio,
            "drift_rate": self.drift_rate,
            "ages_s": list(self.ages_s),
            "reactive": [dict(s) for s in self.reactive],
            "first_warning_step": self.first_warning_step,
            "first_flip_step": self.first_flip_step,
            "early": [dict(s) for s in self.early],
            "heal_step": self.heal_step,
            "post_heal_signal_ratio": self.post_heal_signal_ratio,
            "early_flips": self.early_flips,
            "reactive_events": [dict(e) for e in self.reactive_events],
            "events": [dict(e) for e in self.events],
            "ledger": [dict(s) for s in self.ledger],
            "metrics": [dict(p) for p in self.metrics],
            "telemetry": self.telemetry.to_dict(),
        }


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


# --------------------------------------------------------------------------
# cluster (cross-process placement) workload


@dataclass(frozen=True)
class ClusterRunResult(DeploymentRunResult):
    """Outcome of one traffic run against a ``placement: process`` cluster.

    ``errors`` counts client-visible failures, exactly as in
    :class:`DeploymentRunResult` — with ``killed_worker`` set the run
    SIGKILLed a worker mid-burst, so a zero here means every orphaned
    request failed over to a survivor.  ``event_counts`` tallies the
    flight-recorder kinds the incident produced (``worker_lost``,
    ``worker_respawn``, ``failover``, ``replace``, ...).
    """

    workers: int
    killed_worker: Optional[str]
    workers_up_after: int
    event_counts: Dict[str, int]

    def to_dict(self) -> dict:
        """JSON-serialisable form (``febim cluster --json``)."""
        return {
            **super().to_dict(),
            "bench": "cluster",
            "workers": self.workers,
            "killed_worker": self.killed_worker,
            "workers_up_after": self.workers_up_after,
            "event_counts": dict(self.event_counts),
        }


def run_cluster_workload(
    registry: "ModelRegistry | str",
    deployment,
    n_requests: int = 512,
    submitters: int = 4,
    policy: Optional[BatchPolicy] = None,
    n_clients: int = 8,
    seed: int = 0,
    kill_worker: bool = False,
    heartbeat_period_s: float = 0.1,
    maintenance_period_s: float = 0.1,
) -> ClusterRunResult:
    """Drive a request stream through a multi-process cluster.

    The deployment must carry ``placement: process``.  With
    ``kill_worker`` the run SIGKILLs one worker a quarter of the way
    into the burst — the supervised-failover acceptance scenario: the
    orphaned in-flight requests must fail over to survivors (zero
    client-visible errors), the dead worker's replicas re-place, and
    the supervisor respawns the process, all recorded in the flight
    ring.  After the burst the run waits for the respawn to land so
    ``workers_up_after`` reports the healed cluster.
    """
    from repro.serving.cluster import ClusterServer

    registry = _checked_run(registry, deployment, n_requests, submitters,
                            n_clients)
    placement = deployment.placement
    if placement is None or placement.kind != "process":
        raise ValueError(
            "run_cluster_workload needs a 'process' placement deployment"
        )
    kill_at = n_requests // 4
    killed: List[Optional[str]] = [None]

    with ClusterServer(
        registry,
        policy=policy,
        seed=seed,
        heartbeat_period_s=heartbeat_period_s,
        maintenance_period_s=maintenance_period_s,
    ) as cluster:
        cluster.enable_observability(trace_rate=0.0)

        def chaos(i: int) -> None:
            if kill_worker and i == kill_at and killed[0] is None:
                victim = sorted(cluster.worker_pids())[0]
                killed[0] = victim
                cluster.kill_worker(victim)

        applied, wall, errors = _drive_deployment(
            cluster, deployment, n_requests, submitters, n_clients, seed,
            chaos,
        )
        if kill_worker:
            # Wait out the supervision ladder: the killed worker must
            # respawn (or exhaust its budget) before the report reads
            # the healed cluster state.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(cluster.worker_pids()) >= placement.workers and (
                    cluster.stats().worker_respawns > 0
                ):
                    break
                time.sleep(0.05)

        statuses = tuple(
            s.to_dict() for s in cluster.status(deployment.model)
        )
        telemetry = cluster.stats()
        event_counts: Dict[str, int] = {}
        for event in cluster.observability.recorder.events():
            event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
        workers_up_after = len(cluster.worker_pids())

    return ClusterRunResult(
        deployment=deployment.to_dict(),
        version=applied.version,
        workers=placement.workers,
        n_requests=n_requests,
        submitters=submitters,
        wall_s=wall,
        served_sps=n_requests / max(wall, 1e-12),
        errors=errors,
        killed_worker=killed[0],
        workers_up_after=workers_up_after,
        replicas=statuses,
        event_counts=event_counts,
        telemetry=telemetry,
    )


def format_cluster_run(result: ClusterRunResult) -> str:
    """Human-readable report (``febim cluster``)."""
    spec = result.deployment
    lines = [
        f"cluster workload: {spec['model']}@v{result.version} "
        f"[{spec['policy']['kind']}] — {result.workers} workers, "
        f"{result.n_requests} requests, {result.submitters} submitters",
    ]
    if result.killed_worker is not None:
        counts = result.event_counts
        lines.append(
            f"chaos: SIGKILL {result.killed_worker} mid-burst — "
            f"{counts.get('worker_lost', 0)} lost, "
            f"{counts.get('replace', 0)} replicas re-placed, "
            f"{counts.get('worker_respawn', 0)} respawned, "
            f"{result.telemetry.failovers} failovers; "
            f"{result.workers_up_after}/{result.workers} workers up after"
        )
    return _format_run(result, lines)
