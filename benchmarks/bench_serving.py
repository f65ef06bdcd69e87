"""Served throughput vs the offline ``infer_batch`` ceiling.

The serving acceptance gate (see SERVING.md): a mixed-tenant stream of
single-sample requests, coalesced by the micro-batch scheduler at
``max_batch=64``, must sustain at least half the offline batch-256
throughput of the same engines — with every request served exactly
once, bit-identically to the direct offline result, and a drain-clean
shutdown.

Runs on two serving-scale synthetic tenants (32-class, 48-feature
blobs -> 32 x 769 crossbars) where per-sample numpy work, not Python
per-request overhead, dominates — the regime an online deployment
actually batches for.  Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --json --out BENCH_serving.json
"""

import argparse
import json

from repro.serving.scheduler import BatchPolicy
from repro.serving.workload import Scenario, run_scenario

REQUIRED_FRACTION = 0.5
N_REQUESTS = 2048


def run_bench():
    return run_scenario(Scenario(
        dataset="synthetic",
        n_requests=N_REQUESTS,
        policy=BatchPolicy(max_batch=64),
    ))


def check(result) -> None:
    telemetry = result.telemetry
    # Drain-clean: every submitted request completed, nothing dropped,
    # cancelled or failed — and futures resolve exactly once by
    # construction, so completed == submitted rules out duplication too.
    assert telemetry.submitted == N_REQUESTS
    assert telemetry.completed == N_REQUESTS
    assert telemetry.failed == 0 and telemetry.cancelled == 0
    assert telemetry.in_flight == 0
    # Every served prediction bit-identical to the direct offline call.
    assert result.matched == N_REQUESTS
    # The throughput gate.
    assert result.served_fraction >= REQUIRED_FRACTION, (
        f"served {result.served_sps:.0f} sps is only "
        f"{result.served_fraction:.2f}x of the offline ceiling "
        f"{result.offline_sps:.0f} sps (required {REQUIRED_FRACTION}x)"
    )


def test_serving_throughput(once):
    result = once(run_bench)
    print()
    print(result.format())
    check(result)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable snapshot instead of the report",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON snapshot here (e.g. BENCH_serving.json)",
    )
    args = parser.parse_args()
    result = run_bench()
    snapshot = result.to_dict()
    print(json.dumps(snapshot, indent=2) if args.json else result.format())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
    ok = (
        result.served_fraction >= REQUIRED_FRACTION
        and result.matched == N_REQUESTS
        and result.telemetry.completed == N_REQUESTS
    )
    print(
        f"served/offline: {result.served_fraction:.2f}x "
        f"(required >= {REQUIRED_FRACTION}x) -> {'PASS' if ok else 'FAIL'}"
    )
    raise SystemExit(0 if ok else 1)
