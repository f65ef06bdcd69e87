"""Gradual sticky drain: retire_replica(drain_steps=N) over sweeps."""

import numpy as np
import pytest

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    DeploymentError,
    FeBiMServer,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)

POLICY = BatchPolicy(max_batch=8)
SAMPLE = np.array([0, 1, 2])
CLIENTS = [f"tenant-{i}" for i in range(48)]


def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(
        ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0
    ) as srv:
        srv.register("iris", make_model(seed=1))
        srv.deploy(Deployment(
            "iris",
            [ReplicaSpec("fefet"), ReplicaSpec("ideal"), ReplicaSpec("cmos")],
            RoutingPolicy("sticky"),
        ))
        yield srv


def sticky_pick(server, client):
    dep = server.router.deployment_for("iris")
    from repro.serving import policy as routing_policy

    candidates = routing_policy.serviceable(dep.replicas)
    draining = [r for r in dep.replicas if r.state == "draining"]
    return routing_policy.pick_sticky(candidates, client, draining).index


class TestGradualDrain:
    def test_cohorts_remap_one_sweep_at_a_time(self, server):
        router = server.router
        before = {c: sticky_pick(server, c) for c in CLIENTS}
        # Drain the replica with the most sticky clients (the HRW
        # spread is deterministic but uneven).
        victim_index = max(set(before.values()),
                           key=lambda i: sum(v == i for v in before.values()))
        victims = [c for c in CLIENTS if before[c] == victim_index]
        keepers = [c for c in CLIENTS if before[c] != victim_index]
        assert victims, "fixture must route some tenants to the victim"

        status = router.retire_replica("iris", victim_index, drain_steps=3)
        assert status.state == "draining"
        # Step 0: the draining replica still owns every one of its
        # clients; everyone else is untouched.
        after = {c: sticky_pick(server, c) for c in CLIENTS}
        assert after == before

        moved_counts = []
        for sweep in range(3):
            finalised = router.advance_drains()
            current = {c: sticky_pick(server, c) for c in CLIENTS}
            assert all(current[c] == before[c] for c in keepers)
            moved_counts.append(
                sum(1 for c in victims if current[c] != victim_index)
            )
        # Monotone cohort progress, complete by the final sweep.
        assert moved_counts == sorted(moved_counts)
        assert moved_counts[-1] == len(victims)
        # The final sweep removed the replica from the deployment.
        assert finalised and finalised[0].state == "retired"
        survivors = [i for i in (0, 1, 2) if i != victim_index]
        assert [s.index for s in router.status("iris")] == survivors

    def test_serving_never_breaks_during_the_drain(self, server):
        router = server.router
        router.retire_replica("iris", 0, drain_steps=2)
        for sweep in range(3):
            for client in CLIENTS[:12]:
                result = server.predict("iris", SAMPLE, timeout=10, client=client)
                assert result.prediction in (0, 1, 2)
            router.advance_drains()

    def test_per_step_retire_events(self, server):
        server.enable_observability(trace_rate=0.0)
        router = server.router
        router.retire_replica("iris", 0, drain_steps=3)
        for _ in range(3):
            router.advance_drains()
        retires = [
            e for e in server.observability.recorder.events()
            if e.kind == "retire"
        ]
        steps = [e.detail["step"] for e in retires]
        assert steps == [0, 1, 2, 3]
        assert all(e.detail["drain_steps"] == 3 for e in retires)

    def test_drained_client_lands_on_its_final_home(self, server):
        router = server.router
        before = {c: sticky_pick(server, c) for c in CLIENTS}
        victim_index = max(set(before.values()),
                           key=lambda i: sum(v == i for v in before.values()))
        victims = [c for c in CLIENTS if before[c] == victim_index]
        router.retire_replica("iris", victim_index, drain_steps=2)
        seen_during = {}
        for _ in range(2):
            router.advance_drains()
            for c in victims:
                pick = sticky_pick(server, c)
                if pick != victim_index:
                    seen_during.setdefault(c, pick)
        final = {c: sticky_pick(server, c) for c in victims}
        # Each client moved exactly once, straight to its final home.
        assert seen_during == final

    def test_gradual_drain_needs_sticky(self, tmp_path):
        with FeBiMServer(
            ModelRegistry(tmp_path / "reg2"), policy=POLICY, seed=0
        ) as srv:
            srv.register("iris", make_model(seed=1))
            srv.deploy(Deployment(
                "iris",
                [ReplicaSpec("fefet"), ReplicaSpec("ideal")],
                RoutingPolicy("cost"),
            ))
            with pytest.raises(DeploymentError, match="sticky"):
                srv.router.retire_replica("iris", 0, drain_steps=4)

    def test_immediate_retire_still_works(self, server):
        status = server.router.retire_replica("iris", 0)
        assert status.state == "retired"
        assert [s.index for s in server.router.status("iris")] == [1, 2]
