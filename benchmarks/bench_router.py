"""Router smoke gate: replicated serving survives losing a replica.

The deployment acceptance gate (CI stage 7, see SERVING.md): one model
served by a two-replica deployment on *different* backends must

1. spread round-robin traffic across both replicas (per-replica
   telemetry counters both advance);
2. keep answering with **zero client-visible errors** when one replica
   is killed mid-burst — the router fails the stranded requests over
   and records the failovers in telemetry;
3. evict the dead replica through the heal ladder and keep serving on
   the survivor;
4. pick the cheaper healthy replica under the ``cost`` policy and
   majority-vote under ``mirror``.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_router.py
    PYTHONPATH=src python benchmarks/bench_router.py --json --out BENCH_router.json
"""

import argparse
import json
import tempfile

import numpy as np

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_dataset, train_test_split
from repro.serving import (
    BatchPolicy,
    Deployment,
    FeBiMServer,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.workload import request_pool

N_BURST = 128


def _resolve_all(futures):
    """(results, errors) — every future waited out."""
    results, errors = [], 0
    for future in futures:
        try:
            results.append(future.result(timeout=60.0))
        except Exception:  # noqa: BLE001 — the gate counts, not raises
            errors += 1
    return results, errors


def run_bench() -> dict:
    checks = {}
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        data = load_dataset("iris")
        X_tr, _, y_tr, _ = train_test_split(
            data.data, data.target, test_size=0.7, seed=0
        )
        FeBiMPipeline(seed=0).fit(X_tr, y_tr).register_into(registry, "iris")
        pool = request_pool(registry, "iris", seed=0)

        with FeBiMServer(
            registry, policy=BatchPolicy(max_batch=16), seed=0
        ) as server:
            server.deploy(
                Deployment(
                    "iris",
                    [ReplicaSpec("ideal"), ReplicaSpec("cmos")],
                    RoutingPolicy("round_robin"),
                )
            )

            # Phase 1: healthy two-replica traffic.
            futures = server.submit_many("iris", pool[:N_BURST])
            _, errors = _resolve_all(futures)
            snapshot = server.stats()
            checks["healthy_errors"] = errors
            checks["healthy_spread"] = sorted(snapshot.per_replica.values())

            # Phase 2: kill one replica with the next burst in flight.
            server.router.kill_replica("iris", 0)
            futures = server.submit_many("iris", pool[:N_BURST])
            _, errors = _resolve_all(futures)
            snapshot = server.stats()
            checks["kill_errors"] = errors
            checks["failovers"] = snapshot.failovers
            checks["dead_state"] = server.router.status("iris")[0].state

            # Phase 3: heal ladder evicts the corpse; survivor serves.
            report = server.router.check_replica("iris", 0)
            checks["ladder_action"] = report.action
            futures = server.submit_many("iris", pool[:N_BURST])
            _, errors = _resolve_all(futures)
            checks["evicted_errors"] = errors
            checks["evictions"] = server.stats().replica_evictions

        # Cost policy: sequential traffic lands on the cheaper replica.
        with FeBiMServer(
            registry, policy=BatchPolicy(max_batch=16), seed=0
        ) as server:
            server.deploy(
                Deployment(
                    "iris",
                    [ReplicaSpec("ideal"), ReplicaSpec("memristor")],
                    RoutingPolicy("cost"),
                )
            )
            for i in range(8):
                server.predict("iris", pool[i], timeout=30.0)
            per_replica = server.stats().per_replica
            checks["cost_cheap"] = per_replica.get("iris@v1#r0[ideal]", 0)
            checks["cost_dear"] = per_replica.get("iris@v1#r1[memristor]", 0)

            # Mirror policy: three technologies, one majority vote.
            server.deploy(
                Deployment(
                    "iris",
                    [ReplicaSpec("ideal"), ReplicaSpec("cmos"), ReplicaSpec("fefet")],
                    RoutingPolicy("mirror"),
                )
            )
            result = server.predict("iris", pool[0], timeout=30.0)
            checks["mirror_votes"] = len(result.votes)
            checks["mirror_agreement"] = result.agreement
            direct = server.router.deployment_for("iris").replicas[0].engine
            checks["mirror_matches_direct"] = bool(
                result.prediction
                == direct.infer_batch(np.asarray(pool[0])[None, :]).predictions[0]
            )
    return checks


def check(checks: dict) -> None:
    assert checks["healthy_errors"] == 0, checks
    assert len(checks["healthy_spread"]) == 2, checks
    assert min(checks["healthy_spread"]) == N_BURST // 2, checks
    # The kill: zero client-visible errors, recorded failovers.
    assert checks["kill_errors"] == 0, checks
    assert checks["failovers"] >= 1, checks
    assert checks["dead_state"] == "down", checks
    # The ladder: eviction, survivor keeps serving clean.
    assert checks["ladder_action"] == "evict", checks
    assert checks["evictions"] == 1, checks
    assert checks["evicted_errors"] == 0, checks
    # Cost policy prefers the cheaper technology outright.
    assert checks["cost_cheap"] == 8 and checks["cost_dear"] == 0, checks
    # Mirror: full fan-out, unanimous exact backends, right answer.
    assert checks["mirror_votes"] == 3, checks
    assert checks["mirror_agreement"] == 1.0, checks
    assert checks["mirror_matches_direct"], checks


def test_router_smoke(once):
    checks = once(run_bench)
    print()
    print("router smoke:", checks)
    check(checks)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable snapshot instead of the table",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON snapshot here (e.g. BENCH_router.json)",
    )
    args = parser.parse_args()
    checks = run_bench()
    snapshot = {"bench": "router", **checks}
    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        for key, value in checks.items():
            print(f"{key:24s} {value}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
    try:
        check(checks)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    print("router smoke gate PASS")
    raise SystemExit(0)
