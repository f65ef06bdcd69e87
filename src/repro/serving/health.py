"""Health reporting and deployment pressure: what a sweep found.

A programmed array does not stay correct forever — cells get stuck,
V_TH drifts over bake time (:mod:`repro.reliability`) — and the serving
layer is where that has to be *caught*.  The catching runs in one place,
:meth:`~repro.serving.router.Router.check_replica`'s heal ladder, over
every replica of every deployment (an undeployed model is served by an
implicit one-replica deployment, so it is swept the same way).  This
module holds what that ladder and the autoscaler report:
:class:`HealthReport` (one replica's pass) and
:class:`DeploymentPressure` (the autoscaler's load view).

Every sweep and repair lands in the server's
:class:`~repro.serving.telemetry.Telemetry`, so ``febim serve`` /
``--json`` surfaces fault and repair counters next to throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.observability import _or_none


@dataclass(frozen=True)
class HealthReport:
    """One replica's heal-ladder pass (``Router.check_replica``).

    ``accuracy`` (canary agreement with the replica's baseline),
    ``current_shift`` (mean relative wordline-current shift from the
    baseline read), ``signal_ratio`` and ``margin`` describe the state
    the sweep *found*: its first canary read, before any repair (NaN
    when the replica could not be read).  ``action`` is the deepest rung
    taken (``"ok"``, ``"refresh"``, ``"spare_repair"``, ``"replace"`` or
    ``"evict"``; ``"wait"`` for a worker-hosted replica between workers,
    which no rung touches), ``healed`` whether the replica left the pass
    reading clean canaries, and ``state`` its routing state afterwards.
    """

    replica: str
    state: str
    accuracy: float
    action: str
    healed: bool
    current_shift: float = float("nan")
    signal_ratio: float = float("nan")
    margin: float = float("nan")

    @property
    def ok(self) -> bool:
        """True when the replica passed without needing repair."""
        return self.action == "ok"

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "state": self.state,
            "accuracy": self.accuracy,
            "current_shift": _or_none(self.current_shift),
            "signal_ratio": _or_none(self.signal_ratio),
            "margin": _or_none(self.margin),
            "action": self.action,
            "healed": self.healed,
            "ok": self.ok,
        }


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
    State strings are compared literally — this module cannot import
    the router's constants (the router imports us).
    """
    statuses = list(statuses)
    serviceable = [s for s in statuses if s.state in ("healthy", "down")]
    pending = [int(s.pending) for s in serviceable]
    return DeploymentPressure(
        replicas=len(statuses),
        serviceable=len(serviceable),
        queued=sum(pending),
        deepest=max(pending, default=0),
    )
