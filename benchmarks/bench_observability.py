"""Observability acceptance gate: traces account, events replay, free when off.

The debugging plane (CI stage 9, see SERVING.md) must satisfy four
contracts before anyone is allowed to trust it during an incident:

1. **span accounting** — a traced bursty autoscale run samples real
   traces, every opened span is closed after the drain (shed and error
   paths included), and for served requests the sum of span durations
   explains the end-to-end latency to within ``SPAN_SUM_REL_TOL``
   (spans are laid end to end, never nested — whatever the spans do
   not cover, the tracer is hiding);
2. **flight replay** — the recorder's JSONL replays the spike's
   1 -> 3 -> 1 replica transition in causal order: strictly increasing
   sequence numbers, every ``scale_up``/``scale_down`` agreeing with
   the telemetry counters, every ``scale_decision`` carrying the
   telemetry snapshot that triggered it, and all ups before all downs
   (one spike, one recovery);
3. **export round-trip** — the Prometheus text rendering of the final
   snapshot parses under the strict reader (no NaN samples, no
   malformed lines) and reproduces every counter exactly, and the
   metrics series' request-outcome deltas sum to the counters and
   account for every submitted request;
4. **off means off** — with tracing disabled the serving hot path pays
   one attribute read and one integer comparison.  Asserted at two
   levels: a tight loop over the routed ``FeBiMServer.submit`` path
   (no tracer vs a rate-0 tracer on the router, interleaved chunk by
   chunk — the resolution where a per-request allocation or lock would
   actually show), and a loose end-to-end A/B on the serving scenario as a
   gross-regression backstop (workload throughput swings ~30 %
   run-to-run from batching dynamics, so only the submit-path bound
   is tight).  ``bench_health.py`` gates the same probe.

The spike runs through :func:`~repro.serving.workload.run_scenario`,
whose invariants cover the flight order on every run: sequence numbers
strictly increase and every ``scale_up`` follows an up
``scale_decision``.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_observability.py --smoke
    PYTHONPATH=src python benchmarks/bench_observability.py --json
"""

import argparse
import json
import time

from repro.serving.observability import (
    EVENT_KINDS,
    Tracer,
    parse_prometheus,
    to_prometheus,
)
from repro.serving.telemetry import COUNTERS
from repro.serving.workload import Scenario, run_scenario, spike

TRACE_RATE = 0.1
SMOKE_DURATION_S = 1.5
FULL_DURATION_S = 2.5
#: Served-trace span sum must land within 5 % of the trace's wall clock
#: (absolute floor for sub-millisecond traces where 5 % is below timer
#: and thread-handoff granularity).
SPAN_SUM_REL_TOL = 0.05
SPAN_SUM_ABS_TOL_MS = 0.5
#: Disabled-tracing submit hot path vs no tracer at all: fastest-chunk
#: submit rates, the two arms interleaved round by round (the precise
#: form of "off the hot path").
SUBMIT_PATH_MARGIN = 0.80
SUBMIT_PATH_ROUNDS = 192
SUBMIT_PATH_CHUNK = 250
#: Rounds discarded while caches and the allocator warm up.
SUBMIT_PATH_WARMUP = 2
#: Armed-at-rate-0 vs unarmed *end-to-end* serving throughput — a
#: gross-regression backstop only; workload throughput swings ~30 %
#: run-to-run from batching dynamics, so the tight assertion lives on
#: the submit path above.
OVERHEAD_MARGIN = 0.60
OVERHEAD_REQUESTS = 2048
#: Where a drained run's submitted requests end; with ``submitted``,
#: the metrics-point deltas that sum exactly to the final counters.
REQUEST_OUTCOMES = ("completed", "failed", "shed", "cancelled")


def run_spike(duration_s: float = FULL_DURATION_S, seed: int = 0):
    """The bench_autoscale spike, traced — the gate's evidence run."""
    return run_scenario(spike(duration_s, trace_rate=TRACE_RATE, seed=seed))


# ------------------------------------------------------------------ contracts
def check_traces(result) -> None:
    assert result.traces, "traced spike run sampled no traces"
    served = 0
    for trace in result.traces:
        assert trace["finished"], f"trace {trace['trace_id']} never finished"
        for span in trace["spans"]:
            assert span["closed"], (
                f"trace {trace['trace_id']} leaked an open "
                f"{span['name']!r} span (outcome {trace['outcome']})"
            )
        if trace["outcome"] != "served":
            continue
        served += 1
        names = [s["name"] for s in trace["spans"]]
        assert names[0] == "admit" and "execute" in names, names
        gap_ms = abs(trace["duration_ms"] - trace["span_total_ms"])
        limit_ms = max(
            SPAN_SUM_ABS_TOL_MS, SPAN_SUM_REL_TOL * trace["duration_ms"]
        )
        assert gap_ms <= limit_ms, (
            f"trace {trace['trace_id']}: spans account for "
            f"{trace['span_total_ms']:.3f} ms of a "
            f"{trace['duration_ms']:.3f} ms request "
            f"(gap {gap_ms:.3f} ms > {limit_ms:.3f} ms)"
        )
    assert served > 0, "no served trace among the samples"


def check_flight(result) -> None:
    flight = list(result.flight)
    assert flight, "flight recorder captured nothing"
    kinds = {e["kind"] for e in flight}
    assert kinds <= EVENT_KINDS, f"unknown kinds leaked: {kinds - EVENT_KINDS}"
    assert "shed" in kinds, "the spike shed nothing — no storm to debug"

    ups = [e["seq"] for e in flight if e["kind"] == "scale_up"]
    downs = [e["seq"] for e in flight if e["kind"] == "scale_down"]
    counted = (result.telemetry.scale_ups, result.telemetry.scale_downs)
    assert (len(ups), len(downs)) == counted, (
        f"recorder saw {len(ups)} ups / {len(downs)} downs but telemetry "
        f"counted {counted[0]} / {counted[1]}"
    )
    # One spike, one recovery: capacity grows, then comes back.
    if ups and downs:
        assert max(ups) < min(downs), (
            "scale-downs interleaved with scale-ups — causal order broken"
        )
    assert 1 + len(ups) - len(downs) == result.final_replicas, (
        "replaying the scale events does not reproduce the final replica "
        "count"
    )
    # Every decision carries its evidence (the runner checked that each
    # scale_up follows an up decision).
    for decision in flight:
        if decision["kind"] == "scale_decision":
            assert isinstance(decision.get("snapshot"), dict), (
                "scale_decision without its triggering telemetry snapshot"
            )


def check_prometheus(result) -> None:
    text = to_prometheus(result.telemetry, replicas=result.final_replicas)
    series = parse_prometheus(text)  # raises on NaN / malformed lines
    for counter in COUNTERS:
        name = f"febim_{counter.stem}_total"
        value = getattr(result.telemetry, counter.name)
        assert series.get(name) == value, (
            f"{name}: {series.get(name)} exported, {value} counted"
        )
    assert series["febim_replicas"] == result.final_replicas
    assert "febim_latency_p95_seconds" in series


def check_metrics_series(result) -> None:
    points = list(result.metrics)
    assert len(points) >= 2, "metrics ring has no time-series to read"
    # The series must surface the spike: a p95 excursion somewhere in
    # the middle, and request-outcome deltas that sum to the counters
    # and account for every submitted request.  (Maintenance may tick
    # its own counters between the last sample and the snapshot.)
    counted = {c.stem: getattr(result.telemetry, c.name) for c in COUNTERS}
    summed = {
        stem: sum(p[stem] for p in points)
        for stem in ("submitted", *REQUEST_OUTCOMES)
    }
    for stem, total in summed.items():
        assert total == counted[stem], (
            f"summed {stem} deltas {total} != {counted[stem]} counted"
        )
    outcomes = sum(summed[stem] for stem in REQUEST_OUTCOMES)
    assert summed["submitted"] == outcomes, (
        f"the series submitted {summed['submitted']} requests but "
        f"completed, failed, shed or cancelled {outcomes}"
    )
    assert any(p["p95_ms"] is not None for p in points)
    assert points[-1]["in_flight"] == 0, "series did not close after drain"


def measure_submit_path(
    rounds: int = SUBMIT_PATH_ROUNDS,
    chunk: int = SUBMIT_PATH_CHUNK,
    seed: int = 0,
):
    """Tight-loop ``FeBiMServer.submit`` rate: no tracer vs rate-0 tracer.

    This is the assertion the "free when off" claim reduces to: with
    ``sample_rate=0`` the per-submit tracing cost is one attribute read
    and one integer comparison, which a tight loop over the submit path
    that serves traffic — the router's request plane into an undeployed
    model's implicit deployment — can actually resolve (unlike
    end-to-end workload throughput, which is dominated by batching
    dynamics).

    Both arms' servers stay alive for the whole measurement and are
    interleaved: each round times one chunk of submits per arm, with
    that arm's replica paused so no batch runs meanwhile, the arm that
    goes first alternating, and drains both servers untimed.  A
    drift or a noisy neighbour then hits both arms alike, and the
    fastest chunk per arm filters the multi-millisecond preemption
    spikes a shared box injects.  Returns submits/sec
    ``(untraced, rate0)``.
    """
    import tempfile

    from repro.core.pipeline import FeBiMPipeline
    from repro.datasets import load_dataset, train_test_split
    from repro.serving import BatchPolicy, FeBiMServer, ModelRegistry

    data = load_dataset("iris")
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.5, seed=seed
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=seed, backend="ideal").fit(
        X_tr, y_tr
    )
    sample = pipe.transform_levels(X_te)[0]
    # Each arm's replica is paused while its chunk is timed, so the
    # timing sees the submit path alone, not GIL contention with batch
    # execution; a batch bound above the chunk reads it in one batch.
    policy = BatchPolicy(max_batch=2 * chunk)
    best = [float("inf"), float("inf")]
    with tempfile.TemporaryDirectory() as root:
        arms = []
        held = []
        try:
            for arm, tracer in enumerate((None, Tracer(0.0))):
                server = FeBiMServer(
                    ModelRegistry(f"{root}/{arm}", backend="ideal"),
                    policy=policy, seed=seed,
                )
                arms.append(server)
                server.register("iris", pipe.quantized_model_, pipe.engine_.spec)
                server.engine_for("iris")  # the implicit deployment, untimed
                server.router.tracer = tracer
                held.append(server.router.serving("iris").replicas[0].scheduler)
            for round_ in range(rounds):
                order = (0, 1) if round_ % 2 == 0 else (1, 0)
                for arm in order:
                    submit = arms[arm].submit
                    held[arm].pause()
                    start = time.perf_counter()
                    for _ in range(chunk):
                        submit("iris", sample)
                    elapsed = time.perf_counter() - start
                    held[arm].resume()
                    if round_ >= SUBMIT_PATH_WARMUP:
                        best[arm] = min(best[arm], elapsed)
                for server in arms:
                    server.drain(30.0)
        finally:
            for server in arms:
                server.close()
    untraced, rate0 = (chunk / max(b, 1e-12) for b in best)
    return untraced, rate0


def check_submit_path(untraced_sps: float, rate0_sps: float) -> None:
    assert rate0_sps >= SUBMIT_PATH_MARGIN * untraced_sps, (
        f"submit path with a rate-0 tracer runs at {rate0_sps:.0f}/s vs "
        f"{untraced_sps:.0f}/s untraced "
        f"({rate0_sps / untraced_sps:.2f}x < {SUBMIT_PATH_MARGIN}x) — "
        f"disabled tracing is not free"
    )


def measure_overhead(seed: int = 0, repeats: int = 3):
    """A/B serving throughput: unarmed vs armed with tracing at rate 0.

    A single pair of runs is useless — the first workload in a process
    is a cold start (training, caches) and can sit 2-3x below steady
    state — so both arms are warmed once and then measured best-of-N,
    the standard dodge for scheduling noise on a shared box.
    """

    def run(armed: bool) -> float:
        # metrics_s (longer than the run) arms the observability plane
        # while the tracer stays at rate 0 — the disabled-tracing hot
        # path under test, with zero sampling work during the run.
        result = run_scenario(Scenario(
            n_requests=OVERHEAD_REQUESTS,
            seed=seed,
            metrics_s=60.0 if armed else None,
        ))
        return result.served_sps

    run(False), run(True)  # cold-start warm-up, discarded
    base = max(run(False) for _ in range(repeats))
    armed = max(run(True) for _ in range(repeats))
    return base, armed


def check_overhead(base_sps: float, armed_sps: float) -> None:
    assert armed_sps >= OVERHEAD_MARGIN * base_sps, (
        f"tracing-off serving throughput dropped to {armed_sps:.0f} sps "
        f"vs {base_sps:.0f} sps unarmed "
        f"({armed_sps / base_sps:.2f}x < {OVERHEAD_MARGIN}x) — "
        f"observability is doing work while disabled"
    )


# ------------------------------------------------------------ pytest entries
def test_observability_gate(once):
    result = once(lambda: run_spike(duration_s=SMOKE_DURATION_S))
    check_traces(result)
    check_flight(result)
    check_prometheus(result)
    check_metrics_series(result)


def test_observability_submit_path(once):
    untraced_sps, rate0_sps = once(measure_submit_path)
    check_submit_path(untraced_sps, rate0_sps)


def test_observability_overhead(once):
    base_sps, armed_sps = once(measure_overhead)
    check_overhead(base_sps, armed_sps)


# ------------------------------------------------------------------- __main__
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short spike + skip the A/B overhead run (CI stage 9)",
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

    duration = SMOKE_DURATION_S if args.smoke else FULL_DURATION_S
    result = run_spike(duration_s=duration, seed=args.seed)
    served = [t for t in result.traces if t["outcome"] == "served"]
    snapshot = {
        "bench": "observability",
        "traces": len(result.traces),
        "served_traces": len(served),
        "flight_events": len(result.flight),
        "metrics_points": len(result.metrics),
        "scale_ups": result.telemetry.scale_ups,
        "scale_downs": result.telemetry.scale_downs,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"snapshot written to {args.out}")
    try:
        check_traces(result)
        check_flight(result)
        check_prometheus(result)
        check_metrics_series(result)
        untraced_sps, rate0_sps = measure_submit_path(seed=args.seed)
        check_submit_path(untraced_sps, rate0_sps)
        if not args.smoke:
            base_sps, armed_sps = measure_overhead(seed=args.seed)
            check_overhead(base_sps, armed_sps)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1

    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        worst = max(
            (
                abs(t["duration_ms"] - t["span_total_ms"])
                / max(t["duration_ms"], 1e-9)
                for t in served
            ),
            default=0.0,
        )
        print(
            f"observability gate: {len(result.traces)} traces "
            f"({len(served)} served, worst span gap {worst * 100:.2f}%), "
            f"{len(result.flight)} flight events, "
            f"{len(result.metrics)} metrics points"
        )
        print(
            f"submit path: untraced {untraced_sps:.0f}/s vs rate-0 tracer "
            f"{rate0_sps:.0f}/s ({rate0_sps / untraced_sps:.2f}x)"
        )
        if not args.smoke:
            print(
                f"overhead A/B: unarmed {base_sps:.0f} sps vs armed-at-0 "
                f"{armed_sps:.0f} sps ({armed_sps / base_sps:.2f}x)"
            )
    print("observability gate -> PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
