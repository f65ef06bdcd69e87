"""Hardware-observability gate: warn before the flip, heal from the warning.

The device-health plane (CI stage 10, see RELIABILITY.md) earns its keep
only if the margin probes buy real lead time.  Four contracts:

1. **early warning** — in a seeded aging run at a leaky-stack drift
   corner, the canary signal ratio crosses ``HEALTH_WARN_RATIO``
   strictly before the first accuracy-affecting prediction flip (drift
   is common-mode: the margin collapses for sweeps on end while every
   prediction stays right — that lead time is the entire product);
2. **heal from the warning** — re-run with the monitor's margin floor
   armed: the heal ladder fires at the schedule step where the reactive
   run merely degraded, the ``margin_warning`` flight event precedes
   the ``refresh`` in sequence order, the reprogram restores the
   pristine read *bit-identically* (post-heal signal ratio exactly
   1.0 — fefet default reads are noise-free), and no prediction ever
   flips;
3. **export round-trip** — the hardware gauges (margin, signal ratio,
   wear, spares, faults) ride the Prometheus rendering and survive the
   strict parser next to the heal-ladder counters, and the
   device-health ledger renders a non-empty timeline;
4. **off means off** — with observability disabled the read path pays
   nothing for any of this.  Asserted on the tight-loop routed submit
   path (no tracer vs rate-0 tracer — the margin span attrs live inside the
   traced-only block) plus, in full mode, an end-to-end A/B backstop:
   the same probe and A/B ``bench_observability.py`` gates, imported
   from it.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_health.py --smoke
    PYTHONPATH=src python benchmarks/bench_health.py --json
"""

import argparse
import json

from bench_observability import (
    check_overhead,
    check_submit_path,
    measure_overhead,
    measure_submit_path,
)
from repro.serving.observability import (
    EVENT_KINDS,
    parse_prometheus,
    to_prometheus,
)
from repro.reliability.observability import format_health_timeline
from repro.serving.workload import HEALTH_WARN_RATIO, run_health_workload


def run_aging(seed: int = 0):
    """The two-phase aging campaign — the gate's evidence run."""
    return run_health_workload(seed=seed)


# ------------------------------------------------------------------ contracts
def check_early_warning(result) -> None:
    assert result.first_flip_step is not None, (
        "the reactive aging run never flipped a prediction — the corner "
        "is too mild to prove lead time"
    )
    assert result.first_warning_step is not None, (
        "the signal ratio never crossed the warning threshold"
    )
    assert result.first_warning_step < result.first_flip_step, (
        f"margin warning at step {result.first_warning_step} did not "
        f"precede the first prediction flip at step "
        f"{result.first_flip_step} — no lead time, the probe is useless"
    )
    # Every sweep before the flip was accuracy-clean: the collapse is
    # invisible to a prediction-only monitor for that entire window.
    for s in result.reactive[: result.first_flip_step]:
        assert s["accuracy"] == 1.0, s


def check_heal_from_warning(result) -> None:
    assert result.heal_step is not None, (
        "armed margin floor never fired the heal ladder"
    )
    assert result.heal_step == result.first_warning_step, (
        f"ladder fired at step {result.heal_step}, not at the warning "
        f"step {result.first_warning_step} the reactive run identified"
    )
    heal = result.early[result.heal_step]
    assert heal["action"] == "refresh" and heal["healed"], heal
    assert heal["accuracy"] == 1.0, (
        "the ladder fired from the margin channel, yet a prediction had "
        "already flipped — that is reactive, not early"
    )
    assert result.early_flips == 0, (
        f"{result.early_flips} predictions flipped with the margin floor "
        f"armed — the early warning did not prevent the failure"
    )
    assert result.post_heal_signal_ratio == 1.0, (
        f"post-heal signal ratio {result.post_heal_signal_ratio!r} != 1.0 "
        f"— refresh did not restore the pristine currents bit-identically"
    )


def check_flight(result) -> None:
    events = list(result.events)
    assert events, "armed run recorded no flight events"
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), (
        "event sequence numbers are not strictly increasing"
    )
    kinds = {e["kind"] for e in events}
    assert kinds <= EVENT_KINDS, f"unknown kinds leaked: {kinds - EVENT_KINDS}"
    warnings = [e["seq"] for e in events if e["kind"] == "margin_warning"]
    refreshes = [e["seq"] for e in events if e["kind"] == "refresh"]
    assert warnings and refreshes, (
        f"expected margin_warning and refresh events, got kinds {kinds}"
    )
    assert min(warnings) < min(refreshes), (
        "the first refresh was not announced by a margin_warning — the "
        "flight ring does not show the early-warning causality"
    )
    for e in events:
        if e["kind"] == "margin_warning":
            assert e["signal_ratio"] is not None, e
    # The reactive phase's flip produced a canary_failure with its
    # accuracy and current-shift detail attached.
    failures = [
        e for e in result.reactive_events if e["kind"] == "canary_failure"
    ]
    assert failures, "reactive flip did not emit a canary_failure event"
    assert all(
        "accuracy" in e and "shift" in e for e in failures
    ), failures[0]


def check_ledger(result) -> None:
    assert result.ledger, "device-health ledger sampled nothing"
    for sample in result.ledger:
        assert sample["replica"], sample
        assert 0.0 <= sample["wear_fraction"] <= 1.0, sample
    ratios = [
        s["signal_ratio"]
        for s in result.ledger
        if s["signal_ratio"] is not None
    ]
    assert ratios and min(ratios) < 1.0, (
        "ledger never saw the margin move — the hardware sampler is not "
        "reading the replica the campaign aged"
    )
    timeline = format_health_timeline(result.ledger, result.events)
    assert "margin_warning" in timeline and "refresh" in timeline, timeline


def check_prometheus(result) -> None:
    hardware = next(
        (p["hardware"] for p in reversed(result.metrics) if p.get("hardware")),
        None,
    )
    assert hardware is not None, "no metrics point carried hardware gauges"
    text = to_prometheus(result.telemetry, replicas=1, hardware=hardware)
    series = parse_prometheus(text)  # raises on NaN / malformed lines
    for name in (
        "febim_signal_ratio",
        "febim_margin_p50",
        "febim_wear_fraction",
        "febim_spares_free",
    ):
        assert name in series, f"{name} missing from the Prometheus text"
    # Gauges render at %g precision (6 significant digits), so the
    # round-trip is tolerance-checked; counters below stay exact.
    assert abs(series["febim_signal_ratio"] - hardware["signal_ratio"]) <= (
        1e-5 * max(1.0, abs(hardware["signal_ratio"]))
    )
    # Heal-ladder counters round-trip next to the gauges.
    assert series["febim_refreshes_total"] == result.telemetry.refreshes
    assert (
        series["febim_maintenance_sweeps_total"]
        == result.telemetry.maintenance_sweeps
    )
    # The metrics ring's per-period deltas rebuild the same counter.
    assert (
        sum(p["refreshes"] for p in result.metrics)
        == result.telemetry.refreshes
    )


# ------------------------------------------------------------ pytest entries
def test_health_early_warning(once):
    result = once(run_aging)
    check_early_warning(result)
    check_heal_from_warning(result)


def test_health_flight_and_ledger(once):
    result = once(run_aging)
    check_flight(result)
    check_ledger(result)


def test_health_prometheus(once):
    result = once(run_aging)
    check_prometheus(result)


def test_health_read_path(once):
    bare_sps, armed0_sps = once(measure_submit_path)
    check_submit_path(bare_sps, armed0_sps)


# ------------------------------------------------------------------- __main__
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip the end-to-end A/B overhead run (CI stage 10)",
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
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    result = run_aging(seed=args.seed)
    bare_sps, armed0_sps = measure_submit_path(seed=args.seed)
    snapshot = {
        "bench": "health",
        "warn_ratio": HEALTH_WARN_RATIO,
        "drift_rate": result.drift_rate,
        "first_warning_step": result.first_warning_step,
        "first_flip_step": result.first_flip_step,
        "heal_step": result.heal_step,
        "post_heal_signal_ratio": result.post_heal_signal_ratio,
        "early_flips": result.early_flips,
        "flight_events": len(result.events),
        "ledger_samples": len(result.ledger),
        "metrics_points": len(result.metrics),
        "read_path_ratio": armed0_sps / max(bare_sps, 1e-12),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"snapshot written to {args.out}")
    try:
        check_early_warning(result)
        check_heal_from_warning(result)
        check_flight(result)
        check_ledger(result)
        check_prometheus(result)
        check_submit_path(bare_sps, armed0_sps)
        if not args.smoke:
            base_sps, armed_sps = measure_overhead(seed=args.seed)
            check_overhead(base_sps, armed_sps)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1

    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        print(
            f"health gate: warning at step {result.first_warning_step} vs "
            f"flip at step {result.first_flip_step} "
            f"({result.first_flip_step - result.first_warning_step} sweeps "
            f"of lead time); armed run healed at step {result.heal_step} "
            f"with {result.early_flips} flips, post-heal signal "
            f"{result.post_heal_signal_ratio:.3f}"
        )
        print(
            f"read path: bare {bare_sps:.0f}/s vs probes-disabled "
            f"{armed0_sps:.0f}/s ({armed0_sps / bare_sps:.2f}x)"
        )
        if not args.smoke:
            print(
                f"overhead A/B: unarmed {base_sps:.0f} sps vs armed-at-0 "
                f"{armed_sps:.0f} sps ({armed_sps / base_sps:.2f}x)"
            )
    print("health gate -> PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
