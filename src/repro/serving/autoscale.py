"""SLO-driven autoscaling: close the loop the telemetry left open.

The router probes per-replica unit cost and live queue depth, telemetry
tracks p50/p95 latency and shed counts, and deployments are declarative
— this module is the controller that reads those signals and *acts*:
an :class:`AutoscaleController` runs on the server's maintenance
cadence (or is stepped manually in tests), compares the deployment's
live pressure against its :class:`~repro.serving.deployment.SLOPolicy`,
and grows or shrinks the replica set through the router's
``add_replica`` / ``retire_replica`` machinery.

Scaling is wear-aware.  A :class:`HardwarePool` models the spare array
slots a scale-up can draw from, each carrying a persistent
:class:`~repro.reliability.faults.WearState` ledger (crossbar-less —
pure cycle bookkeeping, the live template is never touched) and an
:class:`~repro.reliability.faults.AgeClock`; the controller always
places a new replica on the **least-worn** free slot, and wear
accumulated while a slot served survives its release — scaling
decisions manage hardware lifetime, not just latency.

Decision rules (deliberately simple, deliberately inspectable):

* **Scale up** when the deployment is shedding (``shed_requests``
  grew since the last step), a serviceable queue is at its admission
  bound, or p95 latency exceeds ``target_p95_ms`` — bounded by
  ``max_replicas`` and the pool's free slots.
* **Scale down** when the deployment has been fully idle (zero queued)
  for ``scale_down_patience`` consecutive steps above
  ``min_replicas``.  Latency is *not* a scale-down signal: the p95
  window is sticky after a spike, and draining capacity because old
  samples look calm would flap.
* After any action the controller holds for ``cooldown_steps`` steps
  so a replica's effect is observed before the next decision.

Every decision lands in :attr:`AutoscaleController.history` as an
:class:`AutoscaleEvent` — the benchmark's audit trail for "the spike
was absorbed by a scale-up onto the least-worn slot".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.reliability.faults import AgeClock, WearState
from repro.serving.deployment import DeploymentError, ReplicaSpec, SLOPolicy
from repro.serving.policy import DOWN, HEALTHY


@dataclass
class HardwareSlot:
    """One spare physical array slot a scale-up can program.

    Attributes
    ----------
    spec:
        The :class:`~repro.serving.deployment.ReplicaSpec` a replica
        placed here serves with.
    label:
        Operator-facing slot name (rack position, die id, ...).
    wear:
        Persistent cycle ledger; survives acquire/release so a slot
        that served through ten spikes ranks worse than a fresh one.
    age:
        Bake-time ledger for the slot's retention bookkeeping.
    replica_index:
        Index of the replica currently on this slot (``None`` = free).
    """

    spec: ReplicaSpec
    label: str = ""
    wear: WearState = field(default_factory=WearState)
    age: AgeClock = field(default_factory=AgeClock)
    replica_index: Optional[int] = None

    @property
    def free(self) -> bool:
        return self.replica_index is None


class HardwarePool:
    """The spare slots one deployment's autoscaler may draw from.

    Construction accepts ready slots, bare specs, or ``(spec, cycles)``
    pre-worn pairs — the latter seed each slot's ledger with the cycles
    its hardware has already lived through.
    """

    def __init__(self, slots):
        self.slots: List[HardwareSlot] = []
        for i, entry in enumerate(slots):
            if isinstance(entry, HardwareSlot):
                slot = entry
            elif isinstance(entry, ReplicaSpec):
                slot = HardwareSlot(spec=entry)
            else:
                spec, cycles = entry
                slot = HardwareSlot(spec=spec, wear=WearState(cycles=cycles))
            if not slot.label:
                slot.label = f"slot{i}"
            self.slots.append(slot)

    def __len__(self) -> int:
        return len(self.slots)

    def free_slots(self) -> List[HardwareSlot]:
        return [s for s in self.slots if s.free]

    def least_worn(self) -> Optional[HardwareSlot]:
        """The free slot with the most remaining lifetime, or ``None``.

        Ties break on pool order so placement is deterministic.
        """
        free = self.free_slots()
        if not free:
            return None
        return min(free, key=lambda s: (s.wear.fraction_used, s.label))

    def acquire(self, slot: HardwareSlot, replica_index: int) -> HardwareSlot:
        if not slot.free:
            raise DeploymentError(
                f"slot {slot.label!r} already serves replica "
                f"{slot.replica_index}"
            )
        slot.replica_index = int(replica_index)
        return slot

    def release(self, replica_index: int) -> Optional[HardwareSlot]:
        """Free the slot serving ``replica_index`` (wear persists)."""
        for slot in self.slots:
            if slot.replica_index == replica_index:
                slot.replica_index = None
                return slot
        return None


@dataclass(frozen=True)
class DeploymentPressure:
    """Aggregate load view of one deployment's replica set.

    The autoscale controller's decision input, derived purely from
    :class:`~repro.serving.router.ReplicaStatus` rows so synthetic
    statuses drive it in tests without a live router.

    Attributes
    ----------
    replicas:
        Replicas in the routing set (any state).
    serviceable:
        Replicas accepting traffic (healthy or down-but-retriable).
    queued:
        Total requests pending across serviceable replicas.
    deepest:
        The single deepest serviceable queue — the admission bound is
        per replica, so one saturated queue sheds even while the
        deployment-wide mean looks calm.
    """

    replicas: int
    serviceable: int
    queued: int
    deepest: int


def measure_pressure(statuses) -> DeploymentPressure:
    """Fold replica statuses into a :class:`DeploymentPressure`.

    Accepts any iterable of objects with ``state`` / ``pending``
    attributes (the router's ``status()`` rows or test doubles).
    """
    statuses = list(statuses)
    serviceable = [s for s in statuses if s.state in (HEALTHY, DOWN)]
    pending = [int(s.pending) for s in serviceable]
    return DeploymentPressure(
        replicas=len(statuses),
        serviceable=len(serviceable),
        queued=sum(pending),
        deepest=max(pending, default=0),
    )


@dataclass(frozen=True)
class ScaleDecision:
    """What the controller wants to do, and why (the explainable half —
    :meth:`AutoscaleController.evaluate` returns one before any router
    call happens)."""

    action: str  # "up" | "down" | "hold"
    reason: str


@dataclass(frozen=True)
class AutoscaleEvent:
    """One acted-on decision in the controller's history."""

    step: int
    action: str  # "up" | "down" | "hold"
    reason: str
    replica: Optional[str] = None
    slot: Optional[str] = None
    wear_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "reason": self.reason,
            "replica": self.replica,
            "slot": self.slot,
            "wear_fraction": self.wear_fraction,
        }


class AutoscaleController:
    """Per-deployment feedback controller over the router's replica set.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.FeBiMServer` whose router,
        telemetry and deployment table the controller acts on.
    model:
        Deployment (model name) under control; its applied spec must
        carry an :class:`~repro.serving.deployment.SLOPolicy`.
    pool:
        Spare hardware for scale-ups; ``None`` means scale-ups reuse
        the deployment's first replica spec on anonymous hardware
        (fresh ledger per placement).
    scale_down_patience:
        Consecutive fully-idle steps required before a scale-down.
    cooldown_steps:
        Steps to hold after any scale action.

    The controller is deliberately split into a pure decision half
    (:meth:`evaluate` — synthetic snapshots/statuses in, decision out,
    no wall clock, no router) and an acting half (:meth:`step`) so
    tests exercise the policy without serving a single request.
    """

    def __init__(
        self,
        server,
        model: str,
        pool: Optional[HardwarePool] = None,
        scale_down_patience: int = 3,
        cooldown_steps: int = 1,
    ):
        dep = server.router.deployment_for(model)
        if dep is None:
            raise KeyError(f"no deployment for model {model!r}")
        if dep.spec.slo is None:
            raise DeploymentError(
                f"deployment {model!r} has no slo block; nothing to control"
            )
        if scale_down_patience < 1:
            raise ValueError(
                f"scale_down_patience must be >= 1, got {scale_down_patience}"
            )
        if cooldown_steps < 0:
            raise ValueError(
                f"cooldown_steps must be >= 0, got {cooldown_steps}"
            )
        self.server = server
        self.model = model
        self.pool = pool
        self.scale_down_patience = int(scale_down_patience)
        self.cooldown_steps = int(cooldown_steps)
        self.history: List[AutoscaleEvent] = []
        self._step = 0
        self._calm_steps = 0
        self._cooldown = 0
        # Sheds before this controller existed are not its problem:
        # scale on the *delta* since the last step, not the lifetime
        # counter.
        self._last_shed = server.telemetry.snapshot().shed_requests

    @property
    def slo(self) -> SLOPolicy:
        dep = self.server.router.deployment_for(self.model)
        if dep is None or dep.spec.slo is None:
            raise KeyError(
                f"deployment {self.model!r} is gone (or lost its slo)"
            )
        return dep.spec.slo

    # ------------------------------------------------------------- decisions
    def evaluate(self, snapshot, statuses) -> ScaleDecision:
        """Pure decision step: pressure + telemetry in, decision out.

        Mutates only the controller's own bookkeeping (shed watermark,
        calm streak, cooldown) — never the router.  ``snapshot`` is a
        :class:`~repro.serving.telemetry.TelemetrySnapshot`;
        ``statuses`` any rows :func:`measure_pressure` accepts.
        """
        self._step += 1
        slo = self.slo
        pressure: DeploymentPressure = measure_pressure(statuses)
        shed_delta = snapshot.shed_requests - self._last_shed
        self._last_shed = snapshot.shed_requests

        if pressure.queued == 0 and shed_delta == 0:
            self._calm_steps += 1
        else:
            self._calm_steps = 0

        if self._cooldown > 0:
            self._cooldown -= 1
            return ScaleDecision("hold", "cooling down after a scale action")

        n = pressure.serviceable
        if n < slo.min_replicas:
            return ScaleDecision(
                "up", f"below min_replicas ({n} < {slo.min_replicas})"
            )

        # --- scale up: shedding, a saturated queue, or a missed p95.
        if n < slo.max_replicas:
            if shed_delta > 0:
                return ScaleDecision(
                    "up", f"shed {shed_delta} requests since last step"
                )
            if (
                slo.max_queue_depth is not None
                and pressure.deepest >= slo.max_queue_depth
            ):
                return ScaleDecision(
                    "up",
                    f"deepest queue at admission bound "
                    f"({pressure.deepest}/{slo.max_queue_depth})",
                )
            if (
                slo.target_p95_ms is not None
                and snapshot.p95_latency_s * 1e3 > slo.target_p95_ms
                and pressure.queued > 0
            ):
                # Latency is a scale-up-only signal, and only while
                # traffic is actually queued: the percentile window is
                # sticky after a burst.
                return ScaleDecision(
                    "up",
                    f"p95 {snapshot.p95_latency_s * 1e3:.1f} ms over "
                    f"target {slo.target_p95_ms:g} ms",
                )

        # --- scale down: sustained calm above the floor.
        if n > slo.min_replicas and self._calm_steps >= self.scale_down_patience:
            return ScaleDecision(
                "down",
                f"idle for {self._calm_steps} consecutive steps",
            )

        return ScaleDecision("hold", "within slo")

    # ---------------------------------------------------------------- acting
    def step(self) -> AutoscaleEvent:
        """One full control step: observe, decide, act, record."""
        router = self.server.router
        statuses = router.status(self.model)
        snapshot = self.server.telemetry.snapshot()
        decision = self.evaluate(snapshot, statuses)
        if decision.action != "hold":
            # The triggering snapshot rides along: a post-incident dump
            # must show *why* the controller moved, not just that it
            # did.  Holds are not recorded — every maintenance sweep
            # evaluates, and a ring of holds would drown the signal.
            self.server.telemetry.emit(
                "scale_decision",
                model=self.model,
                action=decision.action,
                reason=decision.reason,
                snapshot=snapshot.to_dict(),
            )
        event = AutoscaleEvent(self._step, decision.action, decision.reason)
        if decision.action == "up":
            event = self._scale_up(decision)
        elif decision.action == "down":
            event = self._scale_down(decision, statuses)
        self.history.append(event)
        return event

    def _scale_up(self, decision: ScaleDecision) -> AutoscaleEvent:
        router = self.server.router
        if self.pool is not None:
            slot = self.pool.least_worn()
            if slot is None:
                return AutoscaleEvent(
                    self._step,
                    "hold",
                    f"wanted up ({decision.reason}) but the pool is "
                    f"exhausted",
                )
            status = router.add_replica(self.model, slot.spec, wear=slot.wear)
            self.pool.acquire(slot, status.index)
            slot_label = slot.label
        else:
            dep = router.deployment_for(self.model)
            status = router.add_replica(self.model, dep.spec.replicas[0])
            slot_label = None
        self.server.telemetry.record_scale_up()
        self.server.telemetry.emit(
            "scale_up",
            model=self.model,
            replica=status.replica,
            slot=slot_label,
            wear_fraction=status.wear_fraction,
            reason=decision.reason,
        )
        self._cooldown = self.cooldown_steps
        return AutoscaleEvent(
            self._step,
            "up",
            decision.reason,
            replica=status.replica,
            slot=slot_label,
            wear_fraction=status.wear_fraction,
        )

    def _scale_down(self, decision: ScaleDecision, statuses) -> AutoscaleEvent:
        router = self.server.router
        serviceable = [s for s in statuses if s.state in ("healthy", "down")]
        if len(serviceable) <= 1:
            return AutoscaleEvent(
                self._step, "hold", "refusing to retire the last replica"
            )
        # Retire the newest replica first (LIFO): the spec-declared
        # floor replicas keep their sticky clients and their arrays.
        victim = max(serviceable, key=lambda s: s.index)
        status = router.retire_replica(self.model, victim.index)
        slot_label = None
        if self.pool is not None:
            released = self.pool.release(victim.index)
            if released is not None:
                slot_label = released.label
        self.server.telemetry.record_scale_down()
        self.server.telemetry.emit(
            "scale_down",
            model=self.model,
            replica=status.replica,
            slot=slot_label,
            reason=decision.reason,
        )
        self._cooldown = self.cooldown_steps
        self._calm_steps = 0
        return AutoscaleEvent(
            self._step,
            "down",
            decision.reason,
            replica=status.replica,
            slot=slot_label,
            wear_fraction=status.wear_fraction,
        )
