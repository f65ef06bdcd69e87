"""Multi-tenant online inference front end over tiled FeBiM engines.

:class:`FeBiMServer` ties the serving layers together: a
:class:`~repro.serving.registry.ModelRegistry` says *what* can be
served, the :class:`~repro.serving.router.Router` says *where* —
every request routes to a deployment, an undeployed model to its
implicit one-replica deployment — and each replica's
:class:`~repro.serving.scheduler.MicroBatchScheduler` decides *when*
requests reach the crossbar, with every tenant drawing from an
independent RNG stream so one model's noise realisation can never leak
into another's.

The per-model streams are derived the same way the engine splits its
own seed (:func:`~repro.utils.rng.spawn_rngs` /
``numpy.random.SeedSequence``): the server's base seed is extended with
a stable digest of the model name and version, so a given
``(seed, name, version)`` always materialises the identical engine —
the property the bit-identity acceptance test leans on — while distinct
tenants get statistically independent streams.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.quantization import QuantizedBayesianModel
from repro.devices.fefet import MultiLevelCellSpec
from repro.serving.deployment import Deployment, DeploymentError
from repro.serving.observability import (
    HardwareGauges,
    Observability,
    count_replicas,
)
from repro.serving.registry import ModelRegistry
from repro.serving.router import Router
from repro.serving.scheduler import BatchPolicy, RowHandle, ServedResult
from repro.serving.telemetry import Telemetry, TelemetrySnapshot


def model_stream_seed(base_seed: Optional[int], name: str, version: int) -> Optional[int]:
    """Deterministic per-tenant engine seed.

    ``None`` stays ``None`` (fresh entropy per materialisation);
    otherwise the base seed is extended with a digest of the routing
    identity through ``SeedSequence``, which is exactly how
    :func:`~repro.utils.rng.spawn_rngs` derives independent child
    streams — here keyed by name/version instead of spawn order so the
    stream survives re-programming and process restarts.
    """
    if base_seed is None:
        return None
    entropy = (int(base_seed), zlib.crc32(name.encode("utf-8")), int(version))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class MaintenanceThread:
    """Scheduled background sweeps over a server's replicas.

    The primary health path: instead of callers remembering to invoke
    :meth:`~repro.serving.router.Router.check_replica`, the thread runs
    ``router.check_all()`` — the heal ladder over every replica — every
    ``period_s`` seconds, then steps the autoscale controllers and
    samples metrics.  A replica's queue is quiesced only for its own
    check, so healthy sweeps never stall other traffic.

    Shutdown is drain-safe: :meth:`stop` wakes the sleeper, waits out
    any in-progress sweep and joins the thread *before* the server
    drains its schedulers, so a sweep can never race a closing queue.
    Each step is isolated: one that raises is counted in
    ``sweep_errors`` and the sweep moves on, and a sweep that raises
    outright costs one sweep, never the thread.
    """

    def __init__(
        self,
        period_s: float,
        router,
        telemetry=None,
        controllers=None,
        metrics_hook=None,
    ):
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        self.period_s = float(period_s)
        self.telemetry = telemetry
        self.router = router
        # Zero-arg callable returning the autoscale controllers to step
        # each sweep (resolved live so deploy/undeploy between sweeps
        # takes effect without restarting the thread).
        self.controllers = controllers
        # Zero-arg callable run at the end of every sweep — the
        # observability layer's periodic metrics sample rides the
        # maintenance cadence instead of paying for its own thread.
        self.metrics_hook = metrics_hook
        self.sweep_errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="febim-maintenance", daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            try:
                # Every replica sweeps through the heal ladder
                # (refresh -> spare repair -> replace -> evict).
                try:
                    self.router.check_all()
                except Exception:  # noqa: BLE001 — survive a bad sweep
                    self.sweep_errors += 1
                if self.controllers is not None and not self._stop.is_set():
                    # Autoscale controllers step on the same cadence,
                    # after health: a replica the heal ladder just
                    # evicted should be seen missing *this* sweep, not
                    # next.  A failing controller must not starve the
                    # ones after it.
                    for controller in self.controllers():
                        if self._stop.is_set():
                            break
                        try:
                            controller.step()
                        except Exception:  # noqa: BLE001
                            self.sweep_errors += 1
                if self.metrics_hook is not None:
                    try:
                        self.metrics_hook()
                    except Exception:  # noqa: BLE001
                        self.sweep_errors += 1
                if self.telemetry is not None:
                    self.telemetry.record_maintenance_sweep()
            except Exception:  # noqa: BLE001 — maintenance must survive
                self.sweep_errors += 1

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Stop sweeping and join the thread; idempotent.

        Returns ``True`` once the thread has exited; ``False`` when
        ``timeout`` expired with a sweep still in progress (the stop
        flag stays set, so the thread exits after that sweep)."""
        self._stop.set()
        self._thread.join(timeout)
        return not self._thread.is_alive()


class FeBiMServer:
    """Online serving over a model registry with micro-batched execution.

    Parameters
    ----------
    registry:
        The model store; a path-like builds a fresh
        :class:`ModelRegistry` rooted there.
    policy:
        Micro-batch coalescing bounds (:class:`BatchPolicy`).
    seed:
        Base seed for the per-model engine streams (``None`` for fresh
        entropy).  Two servers with the same seed and registry serve
        bit-identical results under the default noise-free models.
    max_rows:
        When given, engines materialise as hierarchical
        :class:`~repro.crossbar.tiling.TiledFeBiM` with this local-WTA
        fan-in limit; flat engines otherwise.
    maintenance_period_s:
        When given, start a background :class:`MaintenanceThread`
        immediately: the router's heal ladder sweeps every replica on
        this period (install caller-chosen canaries with
        :meth:`~repro.serving.router.Router.install_canaries`).

    Use as a context manager for guaranteed graceful shutdown::

        with FeBiMServer(registry, seed=0) as server:
            future = server.submit("iris", levels)
            result = future.result()
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str],
        policy: Optional[BatchPolicy] = None,
        seed: Optional[int] = None,
        max_rows: Optional[int] = None,
        maintenance_period_s: Optional[float] = None,
    ):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.seed = seed
        self.max_rows = max_rows
        self.telemetry = Telemetry(self.policy.max_batch)
        self.router = Router(self)
        self.observability: Optional[Observability] = None
        self.maintenance: Optional[MaintenanceThread] = None
        # Autoscale controllers by model name; stepped on the
        # maintenance cadence (see enable_maintenance).
        self._autoscalers: Dict[str, object] = {}
        if maintenance_period_s is not None:
            self.enable_maintenance(maintenance_period_s)

    # ---------------------------------------------------------------- routing
    def engine_for(self, name: str, version: Optional[int] = None):
        """The engine replica 0 of the deployment serving ``name`` reads
        (the lowest-indexed live replica once replica 0 is gone).

        Builds the route's implicit deployment if needed — useful for
        comparing served results against direct ``infer_batch`` calls.
        """
        dep = self.router.serving(name, version)
        live = [r for r in dep.replicas if not r.killed]
        return min(live or dep.replicas, key=lambda r: r.index).resolve()

    # ---------------------------------------------------------------- tenants
    def register(
        self,
        name: str,
        model: QuantizedBayesianModel,
        spec: Optional[MultiLevelCellSpec] = None,
    ) -> int:
        """Register/update a tenant model; returns its new version.

        Delegates to the registry, whose generation stamp for ``name``
        moves, so the router rebuilds the model's implicit deployment
        and no request routed after this call is served by the previous
        version's weights.
        """
        return self.registry.register(name, model, spec)

    def models(self) -> Dict[str, List[int]]:
        """Registered tenants and their versions."""
        return self.registry.list_models()

    # ------------------------------------------------------------ deployments
    def deploy(self, deployment: Deployment):
        """Apply a declarative multi-replica deployment for a model.

        Validates the spec (backends, capabilities, policy), programs
        and probes every replica, and installs it in the
        :attr:`router` — subsequent :meth:`submit`/:meth:`predict`
        calls for the model are arbitrated across the replicas by the
        deployment's routing policy, each replica coalescing on its own
        micro-batch queue.  Undeployed models are served by an implicit
        one-replica ``cost`` deployment on the registry's backend, which
        this deployment supersedes for its version.

        The resolved model version is pinned at apply time; re-apply
        after registering a new version to roll the deployment forward.
        A deployment carrying an ``slo`` block automatically gets a
        default :class:`~repro.serving.autoscale.AutoscaleController`
        (customise with :meth:`enable_autoscale`), stepped on the
        maintenance cadence once maintenance runs.
        Returns the applied deployment handle (status/introspection).
        """
        placement = deployment.placement
        process = placement is not None and placement.kind == "process"
        if process and self.router.pool is None:
            raise DeploymentError(
                f"deployment {deployment.model!r} asks for process "
                f"placement; host it on a ClusterServer (or "
                f"repro.serving.transport.serve_deployment) — FeBiMServer "
                f"hosts local placements only"
            )
        if not process and self.router.pool is not None:
            raise DeploymentError(
                "ClusterServer hosts 'process' placements; use FeBiMServer "
                "(or serve_deployment) for local ones"
            )
        applied = self.router.apply(deployment)
        self._autoscalers.pop(deployment.model, None)
        if deployment.slo is not None:
            self.enable_autoscale(deployment.model)
        return applied

    def undeploy(self, name: str, timeout: Optional[float] = None) -> bool:
        """Remove a model's deployment (drains its replica queues).

        The model falls back to its implicit one-replica deployment;
        returns ``False`` when no deployment was applied.
        """
        self._autoscalers.pop(name, None)
        return self.router.remove(name, timeout=timeout)

    def deployments(self) -> Dict[str, Deployment]:
        """Applied deployment specs by model name."""
        return self.router.deployments()

    def status(self, name: str):
        """Live per-replica view of the deployment serving ``name``."""
        return self.router.status(name)

    def enable_autoscale(self, name: str, pool=None, **controller_kwargs):
        """Attach (or replace) the autoscale controller for ``name``.

        ``pool`` is an optional
        :class:`~repro.serving.autoscale.HardwarePool` of spare slots;
        ``controller_kwargs`` forward to
        :class:`~repro.serving.autoscale.AutoscaleController` (e.g.
        ``scale_down_patience=5``).  The deployment must carry an
        ``slo`` block.  Controllers step on the maintenance cadence —
        start :meth:`enable_maintenance` for closed-loop operation, or
        call ``controller.step()`` directly.  Returns the controller.
        """
        from repro.serving.autoscale import AutoscaleController

        controller = AutoscaleController(
            self, name, pool=pool, **controller_kwargs
        )
        self._autoscalers[name] = controller
        return controller

    def autoscaler(self, name: str):
        """The autoscale controller serving ``name`` (or ``None``)."""
        return self._autoscalers.get(name)

    # --------------------------------------------------------------- requests
    def submit(
        self,
        name: str,
        evidence_levels: np.ndarray,
        version: Optional[int] = None,
        client: Optional[object] = None,
    ) -> "Future[ServedResult]":
        """Enqueue one discretised sample for ``name``; returns a future.

        The request routes through the :attr:`router`'s policy for the
        deployment serving ``name`` at ``version`` (``client`` is the
        affinity identity the ``sticky`` policy hashes; the other
        policies ignore it).  Undeployed models — and version pins other
        than the applied deployment's — are served by the route's
        implicit one-replica deployment.
        """
        return self.router.plane.submit(
            self.router.serving(name, version), evidence_levels, client
        )

    def submit_many(
        self,
        name: str,
        evidence_levels: np.ndarray,
        version: Optional[int] = None,
        client: Optional[object] = None,
    ) -> List[RowHandle]:
        """Enqueue a stack of samples; one row handle per row.

        Routes through the router's request plane — one policy pick per
        ``max_batch`` chunk, each chunk queued as one entry under one
        scheduler lock.  Each :class:`~repro.serving.scheduler.RowHandle`
        reads like a :class:`~concurrent.futures.Future` (``result``,
        ``exception``, ``done``, ``cancelled``, ``cancel``,
        ``add_done_callback``) over its chunk's one completion slot; a
        mirrored deployment's rows each get one real future (one vote
        per row).
        """
        return self.router.plane.submit_many(
            self.router.serving(name, version), evidence_levels, client
        )

    def predict(
        self,
        name: str,
        evidence_levels: np.ndarray,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        client: Optional[object] = None,
    ):
        """Blocking single-sample convenience: submit and wait."""
        return self.submit(name, evidence_levels, version, client=client).result(
            timeout
        )

    # ---------------------------------------------------------- observability
    def enable_observability(
        self, observability: Optional[Observability] = None, **kwargs
    ) -> Observability:
        """Arm tracing, the flight recorder, and the metrics ring.

        Pass an existing :class:`~repro.serving.observability.
        Observability` bundle, or ``kwargs`` to build one here (e.g.
        ``trace_rate=0.05``).  Wiring: the tracer attaches to the router
        (requests are traced across failover hops by the request plane
        itself), the flight recorder
        hangs off :attr:`telemetry` so every layer's ``emit`` lands in
        it, and the metrics ring is sampled on the maintenance cadence
        once maintenance runs (or by a
        :class:`~repro.serving.observability.MetricsSampler`).
        Returns the armed bundle; idempotent per bundle.
        """
        if observability is not None and kwargs:
            raise ValueError(
                "pass kwargs only when the bundle is created here"
            )
        if observability is None:
            observability = Observability(**kwargs)
        self.observability = observability
        self.telemetry.recorder = observability.recorder
        self.router.tracer = observability.tracer
        self.router.ledger = getattr(observability, "ledger", None)
        return observability

    def disable_observability(self) -> None:
        """Detach all observability surfaces (hot path back to zero)."""
        self.observability = None
        self.telemetry.recorder = None
        self.router.tracer = None
        self.router.ledger = None

    def sample_hardware(self):
        """One device-health sweep over the replicas of every deployment
        the router serves, implicit ones included.

        Returns the flat list of
        :class:`~repro.reliability.observability.DeviceHealthSample`
        rows (recorded into the armed ledger), or ``None`` when
        observability is off.
        """
        if self.observability is None:
            return None
        router = self.router
        return [
            router._hardware_sample(dep, replica)
            for dep in router._all()
            for replica in dep.replicas
        ]

    def sample_metrics(self):
        """Fold one telemetry snapshot into the metrics ring (no-op
        without observability); returns the new point or ``None``.

        Hardware gauges ride along: the device-health sweep runs first,
        and its worst-case fold (weakest margin, deepest wear) lands on
        the same metrics point the Prometheus exporter publishes."""
        observability = self.observability
        if observability is None:
            return None
        hardware = None
        samples = self.sample_hardware()
        if samples:
            hardware = HardwareGauges.from_samples(samples)
        return observability.metrics.sample(
            self.telemetry.snapshot(),
            replicas=count_replicas(self),
            hardware=hardware,
        )

    # ------------------------------------------------------------ maintenance
    def enable_maintenance(self, period_s: float) -> MaintenanceThread:
        """Start (or restart) the background sweep thread: the router's
        heal ladder over every replica, autoscale stepping and metrics
        sampling on one cadence.  Returns the thread."""
        if period_s <= 0:
            # Checked before the running thread stops: a bad argument
            # must leave live maintenance untouched.
            raise ValueError(f"period_s must be positive, got {period_s}")
        self.stop_maintenance()
        self.maintenance = MaintenanceThread(
            period_s,
            telemetry=self.telemetry,
            router=self.router,
            controllers=lambda: list(self._autoscalers.values()),
            metrics_hook=self.sample_metrics,
        )
        return self.maintenance

    def stop_maintenance(self, timeout: Optional[float] = None) -> bool:
        """Stop the background sweeps (``router.check_all`` stays usable
        directly); idempotent.

        Returns ``True`` when no sweep thread is left running.  On a
        ``timeout`` expiring mid-sweep the handle is *kept* (and
        ``False`` returned) so a later ``stop_maintenance()`` /
        ``close()`` still waits the thread out — dropping it would
        allow a healing sweep to race the scheduler drain.
        """
        if self.maintenance is None:
            return True
        if not self.maintenance.stop(timeout):
            return False
        self.maintenance = None
        return True

    # ------------------------------------------------------------- lifecycle
    def stats(self) -> TelemetrySnapshot:
        """Current serving telemetry (requests, batches, latency)."""
        return self.telemetry.snapshot()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Serve everything queued on every replica queue; returns False
        on timeout.

        ``timeout`` bounds the whole drain with one shared deadline.
        """
        return self.router.drain(timeout)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful (draining) shutdown by default; idempotent.

        The maintenance thread stops (and any in-flight sweep
        finishes) *before* the schedulers drain, so a healing repair
        can never race the shutdown.  ``timeout`` bounds each phase:
        when set, a sweep mid-heal may be left finishing on its daemon
        thread (the stop flag is set, so it exits right after) instead
        of blocking the close indefinitely.
        """
        self.stop_maintenance(timeout)
        self.router.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "FeBiMServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:
        return (
            f"FeBiMServer({len(self.models())} models, "
            f"max_batch={self.policy.max_batch})"
        )
