"""Cluster smoke gate: a multi-process deployment survives a SIGKILL.

The cross-process serving acceptance gate (CI stage 12, see
SERVING.md): a two-worker ``placement: process`` cluster absorbs the
SIGKILL of one worker mid-burst with

1. **zero client-visible errors** — every orphaned in-flight request
   fails over to a surviving worker's replica;
2. the incident on the record — a ``worker_lost`` flight event, the
   dead worker's replicas re-placed onto survivors (``replace``
   events, same cluster-wide indices so the stream seeds are
   unchanged), and at least one recorded failover;
3. the supervisor healing the fleet — the killed worker respawns
   (``worker_respawn``) and the cluster reports its full worker
   complement after the burst;
4. every replica healthy again once the dust settles;
5. the heal ladder reaching the workers — the maintenance sweeps ran a
   canary check on every worker-hosted replica (``health_checks`` at
   least the replica count), and none was evicted: a sweep that
   overlaps the SIGKILL leaves re-placement to the worker pool.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --json --out BENCH_cluster.json
"""

import argparse
import json
import tempfile

import numpy as np

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    ModelRegistry,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.workload import run_cluster_workload

N_REQUESTS = 200


def make_model(k=3, m=4, seed=1):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


def run_bench() -> dict:
    checks = {}
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.register("iris", make_model())
        deployment = Deployment(
            "iris",
            [ReplicaSpec("fefet")] * 4,
            RoutingPolicy("cost"),
            placement=PlacementSpec(kind="process", workers=2),
        )
        result = run_cluster_workload(
            registry,
            deployment,
            n_requests=N_REQUESTS,
            submitters=4,
            policy=BatchPolicy(max_batch=8, max_wait_ms=1.0),
            seed=7,
            kill_worker=True,
        )
    counts = result.event_counts
    checks["errors"] = result.errors
    checks["killed_worker"] = result.killed_worker
    checks["served_sps"] = round(result.served_sps, 1)
    checks["workers_lost"] = result.telemetry.workers_lost
    checks["worker_respawns"] = result.telemetry.worker_respawns
    checks["failovers"] = result.telemetry.failovers
    checks["worker_lost_events"] = counts.get("worker_lost", 0)
    checks["replace_events"] = counts.get("replace", 0)
    checks["respawn_events"] = counts.get("worker_respawn", 0)
    checks["health_checks"] = result.telemetry.health_checks
    checks["evict_events"] = counts.get("evict", 0)
    checks["workers_up_after"] = result.workers_up_after
    checks["replica_states"] = sorted(
        r["state"] for r in result.replicas
    )
    return checks


def check(checks: dict) -> None:
    # The kill is absorbed: no client ever sees an error.
    assert checks["errors"] == 0, checks
    assert checks["killed_worker"] is not None, checks
    # The incident is on the record.
    assert checks["workers_lost"] == 1, checks
    assert checks["worker_lost_events"] == 1, checks
    assert checks["replace_events"] >= 1, checks
    assert checks["failovers"] >= 1, checks
    # The supervisor heals the fleet back to full strength.
    assert checks["worker_respawns"] >= 1, checks
    assert checks["respawn_events"] >= 1, checks
    assert checks["workers_up_after"] == 2, checks
    assert checks["replica_states"] == ["healthy"] * 4, checks
    # The heal ladder swept every worker-hosted replica, and a sweep
    # overlapping the kill evicted nothing.
    assert checks["health_checks"] >= 4, checks
    assert checks["evict_events"] == 0, checks


def test_cluster_smoke(once):
    checks = once(run_bench)
    print()
    print("cluster smoke:", checks)
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
        help="also write the JSON snapshot here (e.g. BENCH_cluster.json)",
    )
    args = parser.parse_args()
    checks = run_bench()
    snapshot = {"bench": "cluster", **checks}
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
    print("cluster smoke gate PASS")
    raise SystemExit(0)
