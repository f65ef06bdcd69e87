"""Cluster smoke gate: a multi-process deployment survives a SIGKILL.

The cross-process serving acceptance gate (CI stage 12, see
SERVING.md): a two-worker ``placement: process`` cluster absorbs the
SIGKILL of one worker mid-burst with

1. **zero client-visible errors** — every orphaned in-flight request
   fails over to a surviving worker's replica;
2. the incident on the record — a ``worker_lost`` flight event, the
   dead worker's replicas re-placed onto survivors (``relocate``
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
from repro.serving.workload import MAINTENANCE_S, Fault, Scenario, run_scenario

N_REQUESTS = 200


def make_model(k=3, m=4, seed=1):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


def run_bench():
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.register("iris", make_model())
        scenario = Scenario(
            deployment=Deployment(
                "iris",
                [ReplicaSpec("fefet")] * 4,
                RoutingPolicy("cost"),
                placement=PlacementSpec(kind="process", workers=2),
            ),
            n_requests=N_REQUESTS,
            submitters=4,
            policy=BatchPolicy(max_batch=8),
            maintenance_s=MAINTENANCE_S,
            seed=7,
            faults=(Fault("kill_worker", at=N_REQUESTS // 4),),
        )
        return run_scenario(scenario, registry)


def check(result) -> None:
    counts, telemetry = result.event_counts, result.telemetry
    # The kill is absorbed: no client ever sees an error.
    assert result.errors == 0, result.faults
    assert "worker" in result.faults[0], result.faults
    # The incident is on the record.
    assert telemetry.workers_lost == 1, counts
    assert counts.get("worker_lost") == 1, counts
    assert counts.get("relocate", 0) >= 1, counts
    assert telemetry.failovers >= 1, counts
    # The supervisor heals the fleet back to full strength.
    assert telemetry.worker_respawns >= 1, counts
    assert counts.get("worker_respawn", 0) >= 1, counts
    assert result.workers_up == 2, result.workers_up
    states = [replica["state"] for replica in result.replicas]
    assert states == ["healthy"] * 4, states
    # The heal ladder swept every worker-hosted replica, and a sweep
    # overlapping the kill evicted nothing.
    assert telemetry.health_checks >= 4, telemetry.health_checks
    assert counts.get("evict", 0) == 0, counts


def test_cluster_smoke(once):
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
        help="also write the JSON snapshot here (e.g. BENCH_cluster.json)",
    )
    args = parser.parse_args()
    result = run_bench()
    snapshot = result.to_dict()
    print(json.dumps(snapshot, indent=2) if args.json else result.format())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
    try:
        check(result)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    print("cluster smoke gate PASS")
    raise SystemExit(0)
