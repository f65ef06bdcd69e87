#!/usr/bin/env bash
# Tier-1 CI gate (documented in ROADMAP.md).
#
# Fourteen stages, strictly ordered so the cheapest failure fires first:
#   1. compile-all  — every file under src/ must byte-compile; then two
#      informational lines, never gates, so every CI log carries them:
#      the code-line total of src/repro/serving (scripts/code_lines.py),
#      the size ROADMAP aim 2 tracks, and the worker boot, the median
#      wall time of three fresh `import repro.serving.worker` runs (what
#      each spawned or respawned worker pays before its hello);
#   2. tier-1       — the fast default suite (slow marks skipped);
#   3. slow-tier check — the --runslow split must stay wired: slow-marked
#      tests have to exist and collect cleanly (run them too with
#      CI_RUNSLOW=1, the nightly configuration);
#   4. reliability smoke — bench_reliability.py --smoke: small fault and
#      aging campaigns plus the serving self-heal gate;
#   5. campaign determinism — bench_reliability.py --determinism: the
#      workers=1 vs workers=4 bit-identity contract, covering both the
#      reliability campaigns and the Fig. 8c variation_sweep (the one
#      place the worker-count stream contract is enforced);
#   6. backend parity — bench_backends.py --parity: every registered
#      array backend trains + infers on iris and round-trips bit-for-bit
#      through a registry pinned to it;
#   7. router smoke — bench_router.py: a two-replica deployment on
#      different backends loses a replica mid-burst with zero failed
#      requests, a recorded failover and a ladder eviction;
#   8. autoscale smoke — bench_autoscale.py --smoke: a 12x traffic
#      spike against an SLO deployment is survived with zero failed
#      requests (only typed load-shed) and at least one scale-up;
#      stages 8, 9 and 12 (and stage 10's full-mode A/B) drive their
#      traffic through repro.serving.workload.run_scenario, which fails
#      a run that leaves a future pending, books that disagree with
#      the clients, a queued row, flight events out of causal order,
#      or a thread or worker process alive after its server;
#   9. observability smoke — bench_observability.py --smoke: a traced
#      spike yields spans that partition every sampled request, a
#      flight ring that replays the scale story in causal order with
#      snapshots attached, a metrics series whose request-outcome
#      deltas (submitted, completed, failed, shed, cancelled) sum to
#      the counters and account for every submitted request, a
#      Prometheus export that round-trips the strict parser with
#      every counter of the telemetry table, a result (traces, flight
#      events, metrics points, hardware samples) that serialises as
#      strict JSON with json.dumps(..., allow_nan=False), the rule the
#      shared bounded log and the CLI's JSONL files follow, and a
#      submit path that tracing-disabled does not slow:
#      the path served traffic takes (FeBiMServer.submit into an
#      undeployed model's implicit deployment), no router tracer vs a
#      rate-0 one, the two arms interleaved chunk by chunk, each arm's
#      replica paused while its chunk is timed, gated at 0.8x;
#  10. health smoke — bench_health.py --smoke: a seeded aging run where
#      the margin gauge crosses the warning threshold strictly before
#      the first accuracy-affecting flip, the armed margin floor heals
#      from the early warning with zero flips and a bit-identical
#      margin restore, the hardware gauges round-trip Prometheus, and
#      the probes-disabled read path pays nothing (stage 9's submit-path
#      probe and gate, imported from bench_observability.py);
#  11. kernel smoke — bench_kernels.py --smoke: the fast read kernels
#      (affine GEMM, fused read+decide) beat the reference elementwise
#      path >= 3x on the synthetic shape at 100 % argmax parity, and
#      backends without tables (memristor, noisy FeFET) refuse explicit
#      fast kernels while "auto" degrades to the reference kernel; the
#      bench pins BLAS to one thread before numpy loads (a
#      multi-threaded BLAS on a small shared host read gemm below 1x);
#  12. cluster smoke — bench_cluster.py: a two-worker multi-process
#      deployment absorbs the SIGKILL of one worker mid-burst with zero
#      client-visible errors, the dead worker's replicas re-placed onto
#      the survivor (relocate events) and the process respawned, all on
#      the flight record;
#      the heal ladder reached the workers (health_checks >= 4, one
#      canary sweep per worker-hosted replica at least) and no sweep
#      overlapping the kill evicted a replica (zero evict events);
#  13. layer-ledger gate — perfbench/run.py --workload iris-bulk --trace 1
#      (2 s): routed FeBiMServer.submit_many keeps within reach of the
#      undeployed model's path on the same rows (now an implicit
#      one-replica deployment), ledger.router_sps >= 0.7 x
#      ledger.legacy_sps, and of a bare MicroBatchScheduler,
#      ledger.router_sps >= 0.7 x ledger.scheduler_sps; the same rows
#      over the wire (ClusterServer.submit_many to one worker process,
#      block frames) keep within reach of the routed path,
#      ledger.cluster_sps >= 0.5 x ledger.router_sps; and the routed
#      path keeps the block-native request plane's gain over the
#      engine's own batched read, ledger.router_sps >= 0.08 x
#      ledger.engine_sps — ratios between layers measured in one run,
#      never an absolute rate; it also prints, never gating, what
#      coalescing the idle-flush rule leaves: the median queue span of
#      the traced run's paced burst (scheduler.queue_ms.p50) and the
#      probe server's average batch (scheduler.avg_batch);
#  14. examples — every examples/*.py runs to a zero exit (the
#      user-facing flows, serving_demo.py and reliability_demo.py among
#      them, drive the public API end to end).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1/14: compile-all =="
python -m compileall -q src
# Informational only: a failure here never fails the gate.
echo "serving code lines: $(python scripts/code_lines.py src/repro/serving | tail -1 || true)"
boot=$(python - <<'EOF' || true
import statistics
import subprocess
import sys
import time


def boot():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.serving.worker"],
                   check=True)
    return time.perf_counter() - start


print(f"{statistics.median(boot() for _ in range(3)):.2f} s")
EOF
)
echo "worker boot (median of 3 fresh imports): ${boot}"

echo "== stage 2/14: tier-1 (pytest -x -q) =="
python -m pytest -x -q

echo "== stage 3/14: --runslow marker check =="
# The slow tier must collect without errors and must not be empty —
# an accidental marker rename would otherwise silently skip it forever.
collected=$(python -m pytest --runslow -m slow --collect-only -q tests | tail -1)
echo "slow tier: ${collected}"
case "${collected}" in
    *" tests collected"*|*" test collected"*) ;;
    *"no tests"*|*error*)
        echo "error: slow tier failed to collect" >&2
        exit 1
        ;;
esac
if [[ "${CI_RUNSLOW:-0}" == "1" ]]; then
    echo "== stage 3b: running the slow tier (CI_RUNSLOW=1) =="
    python -m pytest --runslow -m slow -q tests
fi

echo "== stage 4/14: reliability smoke bench =="
python benchmarks/bench_reliability.py --smoke

echo "== stage 5/14: campaign --workers determinism =="
python benchmarks/bench_reliability.py --determinism

echo "== stage 6/14: backend parity smoke =="
python benchmarks/bench_backends.py --parity

echo "== stage 7/14: router smoke gate =="
python benchmarks/bench_router.py

echo "== stage 8/14: autoscale smoke gate =="
python benchmarks/bench_autoscale.py --smoke

echo "== stage 9/14: observability smoke gate =="
python benchmarks/bench_observability.py --smoke

echo "== stage 10/14: health smoke gate =="
python benchmarks/bench_health.py --smoke

echo "== stage 11/14: kernel smoke gate =="
python benchmarks/bench_kernels.py --smoke

echo "== stage 12/14: cluster smoke gate =="
python benchmarks/bench_cluster.py

echo "== stage 13/14: layer-ledger gate =="
# The benchmark's last output line is its JSON result.
ledger=$(python3 perfbench/run.py --workload iris-bulk --seconds 2 --trace 1 | tail -n 1)
python3 - "${ledger}" <<'EOF'
import json
import sys

result = json.loads(sys.argv[1])
router = result["metrics"]["ledger.router_sps"]["value"]
legacy = result["metrics"]["ledger.legacy_sps"]["value"]
scheduler = result["metrics"]["ledger.scheduler_sps"]["value"]
cluster = result["metrics"]["ledger.cluster_sps"]["value"]
engine = result["metrics"]["ledger.engine_sps"]["value"]
print(f"ledger: router {router:.0f} sps / legacy {legacy:.0f} sps "
      f"= {router / legacy:.2f} (gate >= 0.70)")
print(f"ledger: router {router:.0f} sps / scheduler {scheduler:.0f} sps "
      f"= {router / scheduler:.2f} (gate >= 0.70)")
print(f"ledger: cluster {cluster:.0f} sps / router {router:.0f} sps "
      f"= {cluster / router:.2f} (gate >= 0.50)")
print(f"ledger: router {router:.0f} sps / engine {engine:.0f} sps "
      f"= {router / engine:.3f} (gate >= 0.08)")
queue_ms = result["metrics"]["scheduler.queue_ms.p50"]["value"]
avg_batch = result["metrics"]["scheduler.avg_batch"]["value"]
print(f"coalescing (never gates): paced-burst queue p50 {queue_ms:.3f} ms, "
      f"avg batch {avg_batch:.1f} rows")
if not result["correct"]:
    sys.exit("error: the traced benchmark run served wrong answers")
if router < 0.7 * legacy:
    sys.exit("error: routed submit_many fell below 0.7x the legacy path")
if router < 0.7 * scheduler:
    sys.exit("error: routed submit_many fell below 0.7x a bare scheduler")
if cluster < 0.5 * router:
    sys.exit("error: cluster submit_many fell below 0.5x the routed path")
if router < 0.08 * engine:
    sys.exit("error: routed submit_many fell below 0.08x the engine read")
EOF

echo "== stage 14/14: examples =="
for example in examples/*.py; do
    echo "-- ${example}"
    python "${example}" > /dev/null
done

echo "CI gate passed."
