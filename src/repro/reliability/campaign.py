"""Monte-Carlo fault/aging campaigns over a process pool.

A campaign sweeps *lifetime conditions* (fault rates, bake ages, wear
cycles) the way the paper's Fig. 8(c) sweeps V_TH variation: every
point is evaluated over independent trials, each trial retraining,
reprogramming, degrading and (optionally) repairing a fresh engine.

Determinism contract
--------------------

Trials are embarrassingly parallel, so the runner fans them out over a
``multiprocessing`` pool — but *reproducibility cannot depend on the
schedule*.  Every trial derives its entire randomness from one
``numpy.random.SeedSequence`` child (:func:`trial_seeds`), spawned
up-front in trial order and carried inside the trial payload; results
come back in payload order regardless of which worker ran what.  A
campaign is therefore **bit-identical at ``workers=1`` and
``workers=N``** (asserted by ``scripts/ci.sh`` on every run), and the
``workers=1`` path is a plain serial loop — no pool, no pickling — so
small sweeps stay cheap.

:func:`parallel_map` is the generic payload mapper; the V_TH variation
sweep (:mod:`repro.analysis.montecarlo`) rides the same runner for its
parallel mode.
"""

from __future__ import annotations

import multiprocessing
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import Capability, backend_capabilities
from repro.core.engine import FeBiMEngine
from repro.core.pipeline import FeBiMPipeline
from repro.crossbar.tiling import TiledFeBiM
from repro.datasets import load_dataset
from repro.datasets.splits import train_test_split
from repro.devices.endurance import EnduranceModel
from repro.devices.retention import RetentionModel
from repro.reliability.faults import AgeClock, FaultSpec, WearState, inject_into_engine
from repro.reliability.mitigation import MITIGATIONS, apply_mitigation
from repro.reliability.observability import report_currents
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive_int


def trial_seeds(seed: Optional[int], n: int) -> List[int]:
    """``n`` independent per-trial integer seeds from one root seed.

    Spawned through ``numpy.random.SeedSequence`` in trial order, so a
    trial's stream depends only on ``(seed, trial index)`` — never on
    scheduling.  ``None`` draws fresh OS entropy (a non-reproducible
    campaign, deliberately mirroring the library-wide seed semantics).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(n)]


def runs_in_process(workers: int, n_payloads: int) -> bool:
    """Whether :func:`parallel_map` will dispatch serially in-process.

    The single source of truth for that decision: callers that install
    process-global state through the initializer (the shared-model
    campaign path) consult it to know whether the install lands in
    *their* process and needs in-process locking/cleanup.
    """
    return workers <= 1 or n_payloads <= 1


def parallel_map(
    fn: Callable,
    payloads: Sequence,
    workers: int = 1,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
) -> list:
    """Order-preserving map over a process pool (serial at ``workers<=1``).

    ``fn`` must be a module-level callable and every payload picklable;
    results arrive indexed by payload position, so any worker count
    yields the identical list when ``fn`` is a pure function of its
    payload (and of state ``initializer`` installed).

    ``initializer(*initargs)`` runs once per worker — the place to ship
    a large shared object (e.g. a dataset) *once* instead of embedding
    it in every payload.  On the serial path it runs once in-process,
    so ``fn`` sees the same world either way.
    """
    payloads = list(payloads)
    if runs_in_process(workers, len(payloads)):
        if initializer is not None:
            initializer(*initargs)
        return [fn(p) for p in payloads]
    workers = min(workers, len(payloads))
    with multiprocessing.Pool(
        processes=workers, initializer=initializer, initargs=initargs
    ) as pool:
        return pool.map(fn, payloads)


# --------------------------------------------------------------------- config
@dataclass(frozen=True)
class CampaignPoint:
    """One lifetime condition: a fault population plus an age/wear state."""

    label: str
    fault: FaultSpec = field(default_factory=FaultSpec)
    age_s: float = 0.0
    wear_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.age_s < 0:
            raise ValueError("age_s must be >= 0")
        if self.wear_cycles < 0:
            raise ValueError("wear_cycles must be >= 0")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "fault": self.fault.to_dict(),
            "age_s": self.age_s,
            "wear_cycles": self.wear_cycles,
        }


@dataclass(frozen=True)
class CampaignConfig:
    """A full campaign: the sweep points plus the shared trial recipe.

    ``backend`` selects the array technology every trial engine is
    built on.  The configuration is validated against the backend's
    declared capability set up front: sweeping ages on a backend
    without analog drift, wear on one without a swappable template, or
    requesting spare-row repair where no spares exist all fail here
    with the missing capability named — explicit degradation instead
    of a crash ten layers down a trial.

    ``shared_model`` switches the trial recipe: instead of an
    independent split + retrain per trial (the default, which the
    golden campaign regressions pin), the model is trained and
    quantised **once per campaign** and every trial programs *fresh
    hardware* from it — isolating hardware variance (fault draws,
    variation, repair) from train-split variance, and roughly halving
    the campaign cost.
    """

    points: Tuple[CampaignPoint, ...]
    dataset: str = "iris"
    trials: int = 20
    q_f: int = 4
    q_l: int = 2
    test_size: float = 0.7
    mitigation: str = "none"
    spare_rows: int = 2
    max_rows: Optional[int] = None
    retention: RetentionModel = field(default_factory=RetentionModel)
    endurance: EnduranceModel = field(default_factory=EnduranceModel)
    backend: str = "fefet"
    shared_model: bool = False

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("campaign needs at least one point")
        object.__setattr__(self, "points", tuple(self.points))
        check_positive_int(self.trials, "trials")
        if self.mitigation not in MITIGATIONS:
            raise ValueError(
                f"mitigation must be one of {MITIGATIONS}, got {self.mitigation!r}"
            )
        if self.mitigation == "retire-tiles" and self.max_rows is None:
            raise ValueError("retire-tiles needs max_rows (a tiled engine)")
        if self.mitigation == "spare-rows" and self.max_rows is not None:
            raise ValueError(
                "spare-rows repairs a flat engine's array; with "
                "max_rows (tiled engines) use retire-tiles instead"
            )
        self._check_backend_capabilities()

    def _check_backend_capabilities(self) -> None:
        """Fail fast when the sweep needs what the backend lacks."""
        caps = backend_capabilities(self.backend)  # validates the name too

        def need(capability: str, why: str) -> None:
            if capability not in caps:
                raise ValueError(
                    f"backend {self.backend!r} does not support capability "
                    f"{capability!r}, needed for {why}; run this sweep on a "
                    f"backend that declares it (e.g. 'fefet')"
                )

        if any(not p.fault.is_null for p in self.points):
            need(Capability.STUCK_FAULTS, "the fault-injection points")
        if any(p.age_s > 0 for p in self.points):
            need(Capability.VTH_DRIFT, "the retention-aging points")
        if any(p.wear_cycles > 0 for p in self.points):
            need(Capability.WEAR, "the write-wear points")
        if self.mitigation == "spare-rows":
            need(Capability.SPARE_ROWS, "spare-row repair")


def fault_rate_points(
    rates: Sequence[float], dead_col_mode: str = "off"
) -> Tuple[CampaignPoint, ...]:
    """Accuracy-vs-fault-rate sweep: each rate split evenly between the
    stuck polarities (the mix hardware qual reports usually assume)."""
    return tuple(
        CampaignPoint(
            label=f"rate={rate:g}",
            fault=FaultSpec(
                stuck_on_rate=rate / 2.0,
                stuck_off_rate=rate / 2.0,
                dead_col_mode=dead_col_mode,
            ),
        )
        for rate in rates
    )


def aging_points(ages_s: Sequence[float]) -> Tuple[CampaignPoint, ...]:
    """Time-to-refresh sweep: pure retention bake, no hard faults."""
    return tuple(CampaignPoint(label=f"age={age:g}s", age_s=age) for age in ages_s)


# --------------------------------------------------------------------- trial
def _prediction_crc(predictions: np.ndarray) -> int:
    """Order-stable 32-bit digest of a prediction vector.

    CRCs travel through the process pool for free and make the
    ``workers=1`` vs ``workers=N`` equality check genuinely
    bit-for-bit, not merely accuracy-equal.
    """
    return zlib.crc32(np.ascontiguousarray(predictions, dtype=np.int64).tobytes())


@dataclass(frozen=True)
class TrialResult:
    """One trial's lifecycle: pristine -> degraded -> mitigated.

    ``*_signal`` is the mean winning wordline current (amperes): the
    sensing margin proxy that catches common-mode retention drift,
    which erodes read current long before it flips a decision.
    """

    point: int
    trial: int
    pristine_acc: float
    degraded_acc: float
    mitigated_acc: float
    pristine_signal: float
    degraded_signal: float
    mitigated_signal: float
    faulty_cells: int
    repaired_rows: int
    retired_tiles: int
    refreshed: int
    degraded_crc: int
    mitigated_crc: int


#: Shared-model campaign state, installed once per worker process by
#: :func:`_install_shared_model` (and once in-process on the serial
#: path) — the trained/quantised model every trial programs fresh
#: hardware from, plus the fixed evaluation split.  On the serial path
#: the slot lives in *this* process: :data:`_SHARED_SERIAL_LOCK`
#: serialises concurrent in-process shared-model campaigns against
#: each other, and :func:`run_campaign` clears the slot afterwards so
#: the model/dataset are not retained for the life of the process.
_SHARED_MODEL = None
_SHARED_SERIAL_LOCK = threading.Lock()


def _build_shared_model(config: "CampaignConfig", shared_seed: int):
    """Train/quantise once per campaign (shared-model mode).

    ``shared_seed`` is a concrete integer resolved once by
    :func:`run_campaign` in the parent process (the ``SeedSequence``
    child *after* the trial children, so the per-trial payload seeds
    are identical to the per-trial-retrain mode's).  Resolving in the
    parent matters for ``seed=None`` campaigns: every pool worker must
    install the *same* fresh-entropy model, not one of its own.
    """
    split_rng, model_rng = spawn_rngs(int(shared_seed), 2)
    data = load_dataset(config.dataset)
    X_tr, X_te, y_tr, y_te = train_test_split(
        data.data, data.target, test_size=config.test_size, seed=split_rng
    )
    pipe = FeBiMPipeline(
        q_f=config.q_f,
        q_l=config.q_l,
        seed=model_rng,
        backend=config.backend,
    ).fit(X_tr, y_tr)
    return (
        pipe.quantized_model_,
        pipe.engine_.spec,
        pipe.transform_levels(X_te),
        np.asarray(y_te),
    )


def _install_shared_model(config: "CampaignConfig", shared_seed: int) -> None:
    global _SHARED_MODEL
    _SHARED_MODEL = _build_shared_model(config, shared_seed)


def _run_trial(payload) -> TrialResult:
    """One campaign trial (module-level: pickled into pool workers).

    The default recipe is the paper's epoch protocol extended with a
    lifetime: independent split -> retrain -> program -> measure
    pristine -> inject faults/wear/age -> measure degraded -> apply the
    campaign's mitigation -> measure repaired.  In ``shared_model``
    mode the first two steps are hoisted out of the trial: the
    worker-installed model is programmed onto fresh per-trial hardware
    and scored on the campaign's fixed test split.
    """
    config, point_idx, trial_idx, seed = payload
    point = config.points[point_idx]
    spare_rows = config.spare_rows if config.mitigation == "spare-rows" else 0

    # Both recipe modes spawn the same four children — the split
    # stream goes unused in shared-model mode — so the fault/repair
    # draws at a given (seed, trial) are identical in both: shared-
    # model campaigns isolate hardware variance against the *same*
    # fault populations the per-trial-retrain mode samples.
    split_rng, engine_rng, fault_rng, repair_rng = spawn_rngs(int(seed), 4)
    engine = None
    if config.shared_model:
        model, spec, levels_te, y_te = _SHARED_MODEL
    else:
        data = load_dataset(config.dataset)
        X_tr, X_te, y_tr, y_te = train_test_split(
            data.data, data.target, test_size=config.test_size, seed=split_rng
        )
        pipe = FeBiMPipeline(
            q_f=config.q_f,
            q_l=config.q_l,
            spare_rows=spare_rows,
            seed=engine_rng,
            backend=config.backend,
        ).fit(X_tr, y_tr)
        model, spec = pipe.quantized_model_, pipe.engine_.spec
        levels_te = pipe.transform_levels(X_te)
        y_te = np.asarray(y_te)
        if config.max_rows is None:
            engine = pipe.engine_  # already programmed from engine_rng
    if engine is None:
        if config.max_rows is not None:
            engine = TiledFeBiM(
                model,
                max_rows=config.max_rows,
                spec=spec,
                seed=engine_rng,
                backend=config.backend,
            )
        else:
            engine = FeBiMEngine(
                model,
                spec=spec,
                spare_rows=spare_rows,
                seed=engine_rng,
                backend=config.backend,
            )

    def accuracy(predictions):
        return float(np.mean(predictions == y_te))

    def measure():
        """(predictions, mean winning current) from one batched read."""
        report = engine.infer_batch(levels_te)
        currents = report_currents(report)
        return report.predictions, float(np.mean(np.max(currents, axis=1)))

    pristine_pred, pristine_signal = measure()
    pristine = accuracy(pristine_pred)

    arrays = [tile.backend for tile in getattr(engine, "tiles", [engine])]
    faulty_cells = 0
    if not point.fault.is_null:
        faulty_cells = inject_into_engine(engine, point.fault, fault_rng)
    if point.wear_cycles > 0:
        for array in arrays:
            WearState(array, config.endurance).add_cycles(point.wear_cycles)
    clocks = []
    if point.age_s > 0:
        for array in arrays:
            clock = AgeClock(array, config.retention)
            clock.advance(point.age_s)
            clocks.append(clock)

    degraded_pred, degraded_signal = measure()
    degraded = accuracy(degraded_pred)

    if config.mitigation == "none":
        mitigated_pred, mitigated_signal = degraded_pred, degraded_signal
        stats = {"refreshed": 0, "repaired_rows": [], "retired_tiles": []}
    else:
        stats = apply_mitigation(
            config.mitigation, engine, age_clock=clocks or None, seed=repair_rng
        )
        mitigated_pred, mitigated_signal = measure()

    return TrialResult(
        point=point_idx,
        trial=trial_idx,
        pristine_acc=pristine,
        degraded_acc=degraded,
        mitigated_acc=accuracy(mitigated_pred),
        pristine_signal=pristine_signal,
        degraded_signal=degraded_signal,
        mitigated_signal=mitigated_signal,
        faulty_cells=faulty_cells,
        repaired_rows=len(stats["repaired_rows"]),
        retired_tiles=len(stats["retired_tiles"]),
        refreshed=int(stats["refreshed"]),
        degraded_crc=_prediction_crc(degraded_pred),
        mitigated_crc=_prediction_crc(mitigated_pred),
    )


# --------------------------------------------------------------------- result
@dataclass(frozen=True)
class CampaignResult:
    """Aggregated campaign outcome, trial results in (point, trial) order."""

    config: CampaignConfig
    seed: Optional[int]
    workers: int
    results: Tuple[TrialResult, ...]

    def _per_point(self, attr: str) -> List[np.ndarray]:
        out = []
        for p in range(len(self.config.points)):
            out.append(
                np.array(
                    [getattr(r, attr) for r in self.results if r.point == p]
                )
            )
        return out

    def pristine_accuracy(self) -> List[np.ndarray]:
        return self._per_point("pristine_acc")

    def degraded_accuracy(self) -> List[np.ndarray]:
        return self._per_point("degraded_acc")

    def mitigated_accuracy(self) -> List[np.ndarray]:
        return self._per_point("mitigated_acc")

    def accuracy_curve(self) -> List[dict]:
        """Per-point summary rows — the accuracy-vs-condition curve."""
        # One scan of the results per attribute, not one per point.
        pristine_all = self._per_point("pristine_acc")
        degraded_all = self._per_point("degraded_acc")
        mitigated_all = self._per_point("mitigated_acc")
        faults_all = self._per_point("faulty_cells")
        p_sig_all = self._per_point("pristine_signal")
        d_sig_all = self._per_point("degraded_signal")
        m_sig_all = self._per_point("mitigated_signal")
        rows = []
        for p, point in enumerate(self.config.points):
            pristine = pristine_all[p]
            degraded = degraded_all[p]
            mitigated = mitigated_all[p]
            faults = faults_all[p]
            p_sig = p_sig_all[p]
            d_sig = d_sig_all[p]
            m_sig = m_sig_all[p]
            rows.append(
                {
                    "label": point.label,
                    "age_s": point.age_s,
                    "mean_faulty_cells": float(faults.mean()),
                    "pristine_mean": float(pristine.mean()),
                    "degraded_mean": float(degraded.mean()),
                    "degraded_min": float(degraded.min()),
                    "mitigated_mean": float(mitigated.mean()),
                    "recovered": float(mitigated.mean() - degraded.mean()),
                    "signal_ratio": float(np.mean(d_sig / p_sig)),
                    "mitigated_signal_ratio": float(np.mean(m_sig / p_sig)),
                }
            )
        return rows

    def time_to_refresh(
        self, max_drop: float = 0.02, min_signal: float = 0.5
    ) -> Optional[float]:
        """Earliest swept age needing a refresh — the refresh deadline.

        A point needs refresh when its mean degraded accuracy has
        fallen more than ``max_drop`` below pristine **or** its mean
        winning wordline current has dropped below ``min_signal`` of
        pristine.  The second condition matters: retention drift is
        largely common-mode, so the read *margin* collapses well before
        predictions start flipping — exactly what a retention screen
        must catch.  ``None`` when no aged point crosses either
        threshold inside the swept horizon.
        """
        aged = [row for row in self.accuracy_curve() if row["age_s"] > 0]
        for row in sorted(aged, key=lambda r: r["age_s"]):
            degraded = row["degraded_mean"] < row["pristine_mean"] - max_drop
            dimmed = row["signal_ratio"] < min_signal
            if degraded or dimmed:
                return row["age_s"]
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable form (``febim reliability --json``)."""
        ttr = self.time_to_refresh()
        return {
            "bench": "reliability",
            "dataset": self.config.dataset,
            "backend": self.config.backend,
            "shared_model": self.config.shared_model,
            "trials": self.config.trials,
            "mitigation": self.config.mitigation,
            "seed": self.seed,
            "workers": self.workers,
            "points": [p.to_dict() for p in self.config.points],
            "curve": self.accuracy_curve(),
            "time_to_refresh_s": ttr,
        }


def run_campaign(
    config: CampaignConfig, seed: Optional[int] = 0, workers: int = 1
) -> CampaignResult:
    """Execute every (point, trial) pair; see the determinism contract.

    ``workers=1`` runs serially in-process; ``workers>1`` fans the same
    payloads over a ``multiprocessing`` pool.  Both orderings and all
    trial streams are fixed up-front, so the two are bit-identical.

    In ``shared_model`` mode the once-per-campaign training runs in the
    pool initializer (once per worker, from a dedicated stream), so the
    bit-identity contract holds there too — every worker derives the
    identical model.
    """
    check_positive_int(workers, "workers")
    n_points = len(config.points)
    n_trials = n_points * config.trials
    # One SeedSequence root for everything: children 0..n-1 seed the
    # trials (identical in both recipe modes — spawn children are
    # index-stable), child n seeds the shared-model training.  The
    # shared seed is resolved HERE, in the parent: with seed=None each
    # worker would otherwise draw its own entropy and install a
    # different model, silently breaking the bit-identity contract.
    seeds = trial_seeds(seed, n_trials + 1 if config.shared_model else n_trials)
    payloads = [
        (config, p, t, seeds[p * config.trials + t])
        for p in range(n_points)
        for t in range(config.trials)
    ]

    def _map():
        initializer = initargs = None
        if config.shared_model:
            initializer, initargs = _install_shared_model, (config, seeds[n_trials])
        return parallel_map(
            _run_trial,
            payloads,
            workers,
            initializer=initializer,
            initargs=initargs or (),
        )

    if config.shared_model and runs_in_process(workers, len(payloads)):
        # parallel_map runs these in-process, installing the shared
        # model into *this* process's slot: hold the lock so
        # concurrent in-process campaigns cannot clobber each other
        # mid-run, and clear the slot afterwards so the model/dataset
        # are not pinned in memory for the life of the process.
        global _SHARED_MODEL
        with _SHARED_SERIAL_LOCK:
            try:
                results = _map()
            finally:
                _SHARED_MODEL = None
    else:
        results = _map()
    return CampaignResult(
        config=config, seed=seed, workers=workers, results=tuple(results)
    )


def format_campaign(result: CampaignResult) -> str:
    """Human-readable campaign table (``febim reliability``)."""
    lines = [
        f"reliability campaign on {result.config.dataset} "
        f"[{result.config.backend}]: "
        f"{len(result.config.points)} points x {result.config.trials} trials, "
        f"mitigation={result.config.mitigation}, workers={result.workers}"
        + (", shared model" if result.config.shared_model else ""),
        "condition        faults  pristine  degraded   (min)   mitigated  "
        "recovered  signal",
    ]
    for row in result.accuracy_curve():
        lines.append(
            f"{row['label']:<16s} {row['mean_faulty_cells']:6.1f}  "
            f"{row['pristine_mean'] * 100:7.2f}%  "
            f"{row['degraded_mean'] * 100:7.2f}%  "
            f"{row['degraded_min'] * 100:6.2f}%  "
            f"{row['mitigated_mean'] * 100:8.2f}%  "
            f"{row['recovered'] * 100:+8.2f}%  "
            f"{row['signal_ratio'] * 100:5.1f}%"
        )
    ttr = result.time_to_refresh()
    if any(p.age_s > 0 for p in result.config.points):
        lines.append(
            "time-to-refresh: "
            + (f"{ttr:g} s" if ttr is not None else "beyond swept horizon")
        )
    return "\n".join(lines)
