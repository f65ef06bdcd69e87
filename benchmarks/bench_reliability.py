"""Reliability acceptance gates: campaigns, determinism, self-healing.

Three gates (see RELIABILITY.md for the measured numbers):

1. **campaign** — a stuck-cell fault-rate sweep with spare-row
   mitigation must show real degradation at the heavy rate *and* real
   recovery from the repair; an aging sweep must produce a finite
   time-to-refresh from the read-margin criterion.
2. **determinism** — the same campaign run at ``workers=1`` and
   ``workers=4`` must return bit-identical trial results (accuracies
   *and* prediction CRCs).
3. **healing** — a served model with an injected stuck (dead) bitline
   must be *detected* by the health monitor's canary sweep and healed
   automatically: refresh is correctly insufficient for stuck hardware,
   the monitor escalates to replacement, and the served predictions
   return to the pristine baseline bit-for-bit.

Runnable directly (the CI smoke/determinism stages)::

    PYTHONPATH=src python benchmarks/bench_reliability.py --smoke
    PYTHONPATH=src python benchmarks/bench_reliability.py --determinism

or under pytest-benchmark (full size)::

    pytest benchmarks/bench_reliability.py --benchmark-only
"""

import argparse
import json
import tempfile

import numpy as np
import pytest

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.devices.retention import RetentionModel
from repro.reliability import (
    CampaignConfig,
    FaultInjector,
    aging_points,
    fault_rate_points,
    format_campaign,
    run_campaign,
)
from repro.serving import FeBiMServer, ModelRegistry

FAULT_RATES = (0.0, 0.01, 0.05)
AGES_S = (1e4, 1e6, 3.15e7, 3.15e8)  # 2.8 h .. 10 years
DRIFT_RATE = 0.02  # 20 mV/decade: a leaky-stack corner, not the 5 mV typical
FULL_TRIALS = 20
SMOKE_TRIALS = 3
WORKERS = 4


# ------------------------------------------------------------------ campaigns
def run_fault_campaign(trials: int = FULL_TRIALS, workers: int = WORKERS):
    config = CampaignConfig(
        points=fault_rate_points(FAULT_RATES),
        trials=trials,
        mitigation="spare-rows",
        spare_rows=3,
    )
    return run_campaign(config, seed=0, workers=workers)


def check_fault_campaign(result) -> None:
    curve = result.accuracy_curve()
    clean, heavy = curve[0], curve[-1]
    # The null point is transparent: no faults, no accuracy change.
    assert clean["mean_faulty_cells"] == 0
    assert clean["degraded_mean"] == clean["pristine_mean"]
    # The heavy rate must hurt, and the spare-row repair must claw a
    # real fraction back.
    assert heavy["mean_faulty_cells"] > 0
    assert heavy["degraded_mean"] < heavy["pristine_mean"] - 0.05
    assert heavy["mitigated_mean"] > heavy["degraded_mean"] + 0.05


def run_aging_campaign(trials: int = FULL_TRIALS, workers: int = WORKERS):
    config = CampaignConfig(
        points=aging_points(AGES_S),
        trials=trials,
        mitigation="refresh",
        retention=RetentionModel(drift_rate=DRIFT_RATE),
    )
    return run_campaign(config, seed=0, workers=workers)


def check_aging_campaign(result) -> None:
    # Drift is common-mode: accuracy barely moves, but the read margin
    # collapses — the refresh deadline must come from the signal
    # criterion, inside the swept horizon, and refresh must restore the
    # margin completely.
    deadline = result.time_to_refresh()
    assert deadline is not None and deadline <= AGES_S[-1]
    aged = result.accuracy_curve()[-1]
    assert aged["signal_ratio"] < 0.5
    assert aged["mitigated_signal_ratio"] > 0.999


# ---------------------------------------------------------------- determinism
def run_determinism_check(trials: int = SMOKE_TRIALS):
    """workers=1 vs workers=4 must be bit-identical, trial for trial.

    Covers both campaign runners on the shared seeding protocol: the
    reliability fault campaign and the Fig. 8c ``variation_sweep``
    (whose legacy serial stream was retired — this stage is now the
    single source of truth for the worker-count contract).
    """
    config = CampaignConfig(
        points=fault_rate_points((0.0, 0.02)),
        trials=trials,
        mitigation="spare-rows",
    )
    serial = run_campaign(config, seed=11, workers=1)
    pooled = run_campaign(config, seed=11, workers=WORKERS)
    assert serial.results == pooled.results, (
        "campaign results diverged between workers=1 and "
        f"workers={WORKERS}"
    )

    from repro.analysis import variation_sweep

    data = load_iris()
    swept_serial = variation_sweep(
        data, sigmas_mv=(0.0, 15.0), epochs=trials, seed=11, workers=1
    )
    swept_pooled = variation_sweep(
        data, sigmas_mv=(0.0, 15.0), epochs=trials, seed=11, workers=WORKERS
    )
    for sigma, acc in swept_serial.items():
        assert np.array_equal(acc, swept_pooled[sigma]), (
            f"variation_sweep diverged at sigma={sigma} between workers=1 "
            f"and workers={WORKERS}"
        )
    return len(serial.results) + sum(len(a) for a in swept_serial.values())


# -------------------------------------------------------------------- healing
def run_healing_demo():
    """Stuck-column fault on a served model: detect -> escalate -> heal.

    Returns (detect_report, final_report, bit_identical_served) for the
    caller to print/assert.
    """
    data = load_iris()
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        pipe.register_into(registry, "iris")
        with FeBiMServer(registry, seed=42) as server:
            server.router.max_current_shift = 0.05
            canaries = pipe.transform_levels(X_te[:32])
            server.router.install_canaries("iris", canaries)
            engine = server.engine_for("iris")
            baseline = engine.infer_batch(canaries).predictions.copy()

            # Kill the bitline the most canaries depend on.
            masks = engine.layout.active_columns_batch(canaries)
            column = int(np.argmax(masks.sum(axis=0)))
            FaultInjector(engine.crossbar, seed=5).inject_dead_column(
                column, mode="off"
            )

            detect = server.router.check_replica("iris", 0)
            final = server.router.check_replica("iris", 0)
            served = np.array(
                [
                    server.predict("iris", level).prediction
                    for level in canaries[:16]
                ]
            )
            bit_identical = bool(np.array_equal(served, baseline[:16]))
            snapshot = server.stats()
    return detect, final, bit_identical, snapshot


def check_healing(detect, final, bit_identical, snapshot) -> None:
    # Detected: the sweep saw the stuck column...
    assert detect.action == "replace", detect
    # ...refresh alone was correctly insufficient (stuck hardware), so
    # the heal ladder escalated to replacement, which healed it.
    assert detect.healed
    assert snapshot.refreshes >= 1 and snapshot.replacements >= 1
    # Pristine accuracy restored: the post-heal sweep is clean and the
    # *served* path returns the pristine predictions bit-for-bit.
    assert final.ok and final.accuracy == 1.0
    assert bit_identical


# ------------------------------------------------------------ pytest entries
@pytest.mark.slow
def test_reliability_fault_campaign(once):
    result = once(run_fault_campaign)
    print()
    print(format_campaign(result))
    check_fault_campaign(result)


@pytest.mark.slow
def test_reliability_aging_campaign(once):
    result = once(run_aging_campaign)
    print()
    print(format_campaign(result))
    check_aging_campaign(result)


def test_reliability_self_healing(once):
    detect, final, bit_identical, snapshot = once(run_healing_demo)
    check_healing(detect, final, bit_identical, snapshot)


# ------------------------------------------------------------------- __main__
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small trial counts (the CI gate); full campaigns otherwise",
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help="run only the workers=1 vs workers=N bit-identity check",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable snapshot instead of the report",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the snapshot as JSON (checks still run afterwards)",
    )
    args = parser.parse_args(argv)
    trials = SMOKE_TRIALS if args.smoke else FULL_TRIALS

    if args.determinism:
        n = run_determinism_check(trials)
        print(
            f"determinism: {n} trials bit-identical at workers=1 and "
            f"workers={WORKERS} -> PASS"
        )
        return 0

    fault = run_fault_campaign(trials=trials)
    aging = run_aging_campaign(trials=trials)
    detect, final, bit_identical, snapshot = run_healing_demo()
    report = {
        "bench": "reliability",
        "trials": trials,
        "drift_rate": DRIFT_RATE,
        "fault_curve": fault.accuracy_curve(),
        "aging_curve": aging.accuracy_curve(),
        "time_to_refresh_s": aging.time_to_refresh(),
        "healing": {
            "detect_action": detect.action,
            "detect_shift": detect.current_shift,
            "healed": detect.healed,
            "post_heal_accuracy": final.accuracy,
            "served_bit_identical": bit_identical,
            "refreshes": snapshot.refreshes,
            "replacements": snapshot.replacements,
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"snapshot written to {args.out}")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_campaign(fault))
        print(format_campaign(aging))
        print(
            f"healing: detected shift {detect.current_shift:.2f} -> "
            f"action={detect.action}, healed={detect.healed}; post-heal "
            f"canary accuracy {final.accuracy * 100:.1f}%, served "
            f"bit-identical={bit_identical} "
            f"({snapshot.refreshes} refreshes, {snapshot.replacements} "
            f"replacements)"
        )
    check_fault_campaign(fault)
    check_aging_campaign(aging)
    check_healing(detect, final, bit_identical, snapshot)
    print("reliability gates -> PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
