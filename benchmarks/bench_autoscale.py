"""Autoscale acceptance gate: the SLO loop survives a traffic spike.

The closed-loop serving gate (CI stage 8, see SERVING.md): a bursty
open-loop trace — diurnal baseline with a mid-run ``spike_factor``
burst — is driven into a one-replica deployment whose
:class:`~repro.serving.deployment.SLOPolicy` bounds every queue and
whose :class:`~repro.serving.autoscale.AutoscaleController` may grow
the replica set from a wear-tracked hardware pool.  The run must show

1. **survival** — zero *failed* requests; overload is absorbed as typed
   :class:`~repro.serving.scheduler.Overloaded` load-shed (an admission
   decision, never a broken future), and only the low-priority batch
   lane sheds while interactive traffic rides the priority lane;
2. **elasticity** — at least one scale-up during the spike *and* at
   least one scale-down after it (the controller returns to the
   minimum, paying back the pool);
3. **SLO** — completed-request p95 latency stays under the policy
   target through the burst;
4. **wear-aware placement** — every scale-up lands on the least-worn
   free pool slot (the pool is seeded with unequal wear, so the order
   is fully determined).

Full mode also runs the no-SLO control (unbounded queue, fixed single
replica) for the contrast table and writes ``BENCH_autoscale.json``.
Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_autoscale.py --smoke
    PYTHONPATH=src python benchmarks/bench_autoscale.py --json
"""

import argparse
import json

from repro.serving.workload import run_scenario, spike

SMOKE_DURATION_S = 1.5
FULL_DURATION_S = 2.5


def run_bench(duration_s: float = FULL_DURATION_S, seed: int = 0):
    return run_scenario(spike(duration_s, seed=seed))


def run_baseline(duration_s: float = FULL_DURATION_S, seed: int = 0):
    """The control: same trace, no SLO, one fixed unbounded replica."""
    return run_scenario(spike(duration_s, slo=False, seed=seed))


def check(result, smoke: bool = False) -> None:
    # Survival: the spike is absorbed, never crashed through — every
    # non-served request is a typed shed, and none of them interactive.
    assert result.failed == 0, f"{result.failed} requests failed outright"
    assert result.ok > 0, "no requests served at all"
    # Priority skew: interactive carries ~25 % of the trace but must
    # account for almost none of the shed — batch lanes go first.  (A
    # handful of interactive door-rejects are legitimate: under the
    # spike a queue can transiently fill with interactive-only work,
    # leaving nothing lower-priority to displace.)
    interactive_shed = result.shed_by_class.get("interactive", 0)
    assert interactive_shed <= max(8, 0.1 * result.shed), (
        f"priority lanes failed to protect interactive traffic: "
        f"{result.shed_by_class}"
    )
    # Elasticity: the controller reacted to the spike.
    assert result.telemetry.scale_ups >= 1, "spike produced no scale-up"
    if smoke:
        return
    # ...and returned the capacity after it.
    assert result.telemetry.scale_downs >= 1, "no scale-down after the spike"
    assert result.final_replicas == 1, (
        f"did not return to min_replicas: {result.final_replicas}"
    )
    # SLO: p95 of completed requests held through the burst.
    assert result.held_slo, (
        f"p95 {result.p95_ms:.1f} ms missed the "
        f"{result.target_p95_ms:.0f} ms target"
    )
    # Wear-aware placement: ups walk the pool (POOL_WEAR) in wear order
    # (slot1 at 0.2, then slot0 at 0.6, then slot2 at 0.9).
    order = [p["slot"] for p in result.placements]
    expected = ["slot1", "slot0", "slot2"][: len(order)]
    assert order == expected, f"placements not least-worn-first: {order}"


def check_baseline(result, scaled) -> None:
    # The control never sheds (unbounded queue) and never scales — and
    # pays for it in tail latency: the spike queues behind one replica.
    assert result.failed == 0 and result.shed == 0, (
        f"baseline shed/failed unexpectedly: {result.shed}/{result.failed}"
    )
    assert result.telemetry.scale_ups == 0 and result.final_replicas == 1
    assert result.p95_ms > scaled.p95_ms, (
        f"baseline p95 {result.p95_ms:.1f} ms not worse than scaled "
        f"{scaled.p95_ms:.1f} ms — the spike is too gentle to gate on"
    )


def test_autoscale_smoke(once):
    result = once(lambda: run_bench(duration_s=SMOKE_DURATION_S))
    print()
    print(result.format())
    check(result, smoke=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short trace, survival + scale-up assertions only (CI stage 8)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable snapshot instead of the report",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON snapshot here (e.g. BENCH_autoscale.json)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    duration = SMOKE_DURATION_S if args.smoke else FULL_DURATION_S
    result = run_bench(duration_s=duration, seed=args.seed)
    snapshot = {"slo": result.to_dict()}
    if not args.smoke:
        baseline = run_baseline(duration_s=duration, seed=args.seed)
        snapshot["baseline"] = baseline.to_dict()
    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        print(result.format())
        if not args.smoke:
            print()
            print(baseline.format())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
    try:
        check(result, smoke=args.smoke)
        if not args.smoke:
            check_baseline(baseline, result)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    mode = "smoke" if args.smoke else "full"
    print(
        f"autoscale {mode} gate PASS: {result.ok} served, {result.shed} shed, "
        f"0 failed; {result.telemetry.scale_ups} ups / "
        f"{result.telemetry.scale_downs} downs; "
        f"p95 {result.p95_ms:.1f} ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
