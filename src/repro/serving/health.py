"""Self-healing serving: canary sweeps plus automatic refresh/replace.

A programmed array does not stay correct forever — cells get stuck,
V_TH drifts over bake time (:mod:`repro.reliability`) — and the serving
layer is where that has to be *caught*.  :class:`HealthMonitor` runs the
maintenance loop a production deployment schedules between traffic:

1. **canaries** — at install time a small input set is run through the
   pristine engine and its predictions (and wordline currents) become
   the baseline;
2. **checks** — each sweep re-runs the canaries directly against the
   engine currently serving the model (bypassing the scheduler queue —
   a maintenance read must not contend with traffic) and compares
   predictions bit-for-bit plus the mean relative current shift, which
   catches the common-mode retention drift that erodes sensing margin
   without yet flipping a decision;
3. **healing** — on a failed check the monitor escalates through the
   repair ladder: *refresh* (reprogram in place, clears drift) and, if
   canaries still fail, *replace* (drop the registry's cached engine
   and re-materialise — the simulator's stand-in for swapping in a
   spare macro; same seed, so the replacement is the pristine array
   bit-for-bit).

Every sweep and repair lands in the server's
:class:`~repro.serving.telemetry.Telemetry`, so ``febim serve`` /
``--json`` surfaces fault and repair counters next to throughput.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.reliability.mitigation import refresh_engine
from repro.reliability.observability import (
    MarginProbe,
    MarginReading,
    report_currents,
)

if TYPE_CHECKING:  # import cycle: server -> router -> health
    from repro.serving.server import FeBiMServer


@dataclass(frozen=True)
class HealthReport:
    """Outcome of one canary sweep (and any healing it triggered).

    ``accuracy`` / ``current_shift`` / ``signal_ratio`` / ``margin``
    describe the state *found* (the margin pair comes from the same
    canary read, so the probe costs no extra hardware access);
    ``action`` is the deepest repair taken (``"ok"``, ``"refresh"``,
    ``"replace"``, or ``"degraded"`` when healing was off or failed)
    and ``healed`` whether the post-repair sweep passed.
    """

    model: str
    version: int
    canaries: int
    failed: int
    accuracy: float
    current_shift: float
    action: str
    healed: bool
    signal_ratio: float = float("nan")
    margin: float = float("nan")

    @property
    def ok(self) -> bool:
        """True when the engine passed without needing repair."""
        return self.action == "ok"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "version": self.version,
            "canaries": self.canaries,
            "failed": self.failed,
            "accuracy": self.accuracy,
            "current_shift": self.current_shift,
            "action": self.action,
            "healed": self.healed,
            # NaN is not JSON; absent margins serialise as null.
            "signal_ratio": (
                None if self.signal_ratio != self.signal_ratio
                else self.signal_ratio
            ),
            "margin": None if self.margin != self.margin else self.margin,
        }


@dataclass
class _CanaryState:
    levels: np.ndarray
    predictions: np.ndarray
    currents: np.ndarray
    probe: MarginProbe


def agreement_from_predictions(
    predictions: np.ndarray, baseline_predictions: np.ndarray
) -> Tuple[int, float]:
    """``(failed, accuracy)`` of canary predictions vs their pristine
    baseline — the one implementation of agreement scoring, shared by
    the single-engine :class:`HealthMonitor` and the deployment
    :class:`~repro.serving.router.Router`'s per-replica heal ladder."""
    predictions = np.asarray(predictions)
    baseline = np.asarray(baseline_predictions)
    failed = int(np.count_nonzero(predictions != baseline))
    return failed, 1.0 - failed / baseline.shape[0]


def measure_agreement(
    engine, levels: np.ndarray, baseline_predictions: np.ndarray
) -> Tuple[int, float]:
    """Run ``levels`` through ``engine`` and score prediction agreement
    (:func:`agreement_from_predictions` over a fresh canary read)."""
    return agreement_from_predictions(
        engine.infer_batch(levels).predictions, baseline_predictions
    )


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


class HealthMonitor:
    """Canary health checks with an automatic repair ladder.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.FeBiMServer` whose engines to
        watch.
    min_accuracy:
        Canary agreement (vs the pristine baseline) below which a check
        fails.  The default 1.0 demands bit-identical predictions —
        right for the noise-free default models; relax it for
        configurations with per-read noise.
    max_current_shift:
        Mean relative wordline-current shift above which a check fails
        even with every prediction intact.  This channel does the heavy
        lifting: FeBiM decisions are *robust* — on iris at the paper's
        operating point even several dead bitlines flip no prediction —
        so faults and drift show up in the analog read signature long
        before they show up in accuracy.  Canary reads are noise-free
        and bit-stable, so the default 10 % is already far outside any
        benign residual.
    min_signal_ratio:
        Read-margin floor: mean canary signal relative to the pristine
        install-time baseline below which a check fails even with every
        prediction intact and the shift channel calm.  Retention drift
        is common-mode, so the signal ratio collapses smoothly while
        decisions hold — this is the early-warning channel that arms
        the heal ladder *before* predictions flip.  The default 0.5
        never changes which checks fail under the default shift
        threshold (a 50 % signal collapse implies a ~50 % mean shift,
        far past ``max_current_shift``); raise it to make the margin
        channel lead.
    auto_heal:
        Escalate failed checks through refresh -> replace; when False,
        checks only observe and report.
    quiesce_timeout_s:
        How long a repair may wait for the scheduler's in-flight batch
        to clear before giving up (``TimeoutError``).  Repairs run
        under :meth:`~repro.serving.scheduler.MicroBatchScheduler.
        quiesce`, so live traffic can never read a half-reprogrammed
        array.
    """

    def __init__(
        self,
        server: FeBiMServer,
        min_accuracy: float = 1.0,
        max_current_shift: float = 0.1,
        min_signal_ratio: float = 0.5,
        auto_heal: bool = True,
        quiesce_timeout_s: float = 30.0,
    ):
        if not 0.0 <= min_accuracy <= 1.0:
            raise ValueError("min_accuracy must lie in [0, 1]")
        if max_current_shift < 0:
            raise ValueError("max_current_shift must be >= 0")
        if min_signal_ratio < 0:
            raise ValueError("min_signal_ratio must be >= 0")
        self.server = server
        self.min_accuracy = float(min_accuracy)
        self.max_current_shift = float(max_current_shift)
        self.min_signal_ratio = float(min_signal_ratio)
        self.auto_heal = bool(auto_heal)
        self.quiesce_timeout_s = float(quiesce_timeout_s)
        self._canaries: Dict[Tuple[str, int], _CanaryState] = {}

    # ------------------------------------------------------------ canaries
    def _resolve(self, name: str, version: Optional[int]) -> int:
        return self.server.registry.resolve_version(name, version)

    def install(
        self, name: str, levels: np.ndarray, version: Optional[int] = None
    ) -> int:
        """Capture the pristine baseline for ``name`` from ``levels``.

        Runs the canary set once through the currently served engine —
        install right after registration, while the array is known
        good — and pins the resolved version.  Returns it.
        """
        version = self._resolve(name, version)
        levels = np.asarray(levels, dtype=int)
        if levels.ndim != 2 or levels.shape[0] == 0:
            raise ValueError(
                f"canary levels must be a non-empty (n, features) matrix, "
                f"got shape {levels.shape}"
            )
        engine = self.server.engine_for(name, version)
        report = engine.infer_batch(levels)
        currents = report_currents(report).copy()
        self._canaries[(name, version)] = _CanaryState(
            levels=levels.copy(),
            predictions=np.asarray(report.predictions).copy(),
            currents=currents,
            probe=MarginProbe(currents),
        )
        return version

    def installed(self) -> List[Tuple[str, int]]:
        """The (name, version) pairs with canary baselines."""
        return sorted(self._canaries)

    # -------------------------------------------------------------- checking
    def _measure(
        self, state: _CanaryState, engine
    ) -> Tuple[int, float, float, MarginReading]:
        report = engine.infer_batch(state.levels)
        failed, accuracy = agreement_from_predictions(
            report.predictions, state.predictions
        )
        currents = report_currents(report)
        baseline = np.abs(state.currents)
        shift = float(
            np.mean(
                np.abs(currents - state.currents)
                / np.maximum(baseline, 1e-30)
            )
        )
        return failed, accuracy, shift, state.probe.observe(currents)

    def _healthy(self, accuracy: float, shift: float, ratio: float) -> bool:
        # ``not (ratio < floor)`` so a NaN ratio (degenerate canary
        # geometry, no runner-up class) never fails the margin channel.
        return (
            accuracy >= self.min_accuracy
            and shift <= self.max_current_shift
            and not (ratio < self.min_signal_ratio)
        )

    def check(self, name: str, version: Optional[int] = None) -> HealthReport:
        """One canary sweep against the serving engine; heals on failure.

        Raises ``KeyError`` when no canaries were installed for the
        resolved version.
        """
        version = self._resolve(name, version)
        try:
            state = self._canaries[(name, version)]
        except KeyError:
            raise KeyError(
                f"no canaries installed for {name!r} v{version}; "
                f"call install() first"
            ) from None
        engine = self.server.engine_for(name, version)
        failed, accuracy, shift, reading = self._measure(state, engine)
        ratio = reading.signal_ratio
        margin = reading.margin_p50
        self.server.telemetry.record_health_check(failed)
        # Early-warning channels: fire while predictions are still
        # intact, so operators (and the heal ladder, when the floors
        # are configured to lead) see the collapse *before* it flips
        # a decision.
        if accuracy >= self.min_accuracy:
            if ratio < self.min_signal_ratio:
                self.server.telemetry.emit(
                    "margin_warning",
                    model=name, version=version,
                    signal_ratio=ratio, margin_p50=margin,
                )
            if shift > self.max_current_shift:
                self.server.telemetry.emit(
                    "drift_alarm",
                    model=name, version=version,
                    shift=shift,
                    signal_ratio=ratio if ratio == ratio else None,
                )
        if self._healthy(accuracy, shift, ratio):
            return HealthReport(
                name, version, state.predictions.shape[0], failed,
                accuracy, shift, action="ok", healed=True,
                signal_ratio=ratio, margin=margin,
            )
        self.server.telemetry.emit(
            "canary_failure",
            model=name, version=version, failed=failed,
            accuracy=accuracy, shift=shift,
            signal_ratio=ratio if ratio == ratio else None,
            margin_p50=margin if margin == margin else None,
        )
        if not self.auto_heal:
            return HealthReport(
                name, version, state.predictions.shape[0], failed,
                accuracy, shift, action="degraded", healed=False,
                signal_ratio=ratio, margin=margin,
            )
        # Repairs mutate the live engine (erase + rewrite) and swap the
        # registry cache, so the scheduler is quiesced for the ladder:
        # the in-flight batch finishes on the consistent old state,
        # queued traffic waits, and no request can ever read a
        # half-reprogrammed array.  A deployment's replica 0 can share
        # this very engine object (same registry cache entry), so its
        # replica queues quiesce too.
        router = getattr(self.server, "router", None)
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                self.server.scheduler.quiesce(timeout=self.quiesce_timeout_s)
            )
            if router is not None:
                stack.enter_context(
                    router.quiesce_model(name, timeout=self.quiesce_timeout_s)
                )
            # Rung 1: refresh-by-reprogram — clears retention drift and
            # accumulated disturb, cannot fix stuck hardware.
            refresh_engine(engine)
            self.server.telemetry.record_refresh()
            self.server.telemetry.emit("refresh", model=name, version=version)
            r_failed, r_accuracy, r_shift, r_reading = self._measure(
                state, engine
            )
            if self._healthy(r_accuracy, r_shift, r_reading.signal_ratio):
                return HealthReport(
                    name, version, state.predictions.shape[0], failed,
                    accuracy, shift, action="refresh", healed=True,
                    signal_ratio=ratio, margin=margin,
                )
            # Rung 2: replace — drop the cached engine and re-materialise
            # from the registry artifact (fresh pristine hardware, same
            # per-tenant stream, so served results stay bit-stable).
            self.server.registry.invalidate(name)
            engine = self.server.engine_for(name, version)
            self.server.telemetry.record_replacement()
            self.server.telemetry.emit("replace", model=name, version=version)
            _, f_accuracy, f_shift, f_reading = self._measure(state, engine)
            return HealthReport(
                name, version, state.predictions.shape[0], failed,
                accuracy, shift, action="replace",
                healed=self._healthy(
                    f_accuracy, f_shift, f_reading.signal_ratio
                ),
                signal_ratio=ratio, margin=margin,
            )

    def check_all(self) -> List[HealthReport]:
        """Sweep every installed canary set (stable name/version order)."""
        return [self.check(name, version) for name, version in self.installed()]
