"""Router behaviour: policies, failover, heal ladder, bit-identity."""

import contextlib
import time
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from repro.core import quantize_model
from repro.reliability import FaultInjector
from repro.serving import (
    BatchPolicy,
    Deployment,
    FeBiMServer,
    MirroredResult,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
    SchedulerClosed,
)


def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


POLICY = BatchPolicy(max_batch=8, max_wait_ms=1.0)
SAMPLE = np.array([0, 1, 2])


class CountingEngine:
    """Engine proxy counting the rows its replica actually reads."""

    def __init__(self, engine):
        self.engine = engine
        self.rows = 0

    def infer_batch(self, levels):
        self.rows += len(levels)
        return self.engine.infer_batch(levels)

    def __getattr__(self, name):
        return getattr(self.engine, name)


@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0) as srv:
        srv.register("iris", make_model(seed=1))
        yield srv


def deploy(server, *specs, policy=None):
    return server.deploy(
        Deployment("iris", list(specs), policy or RoutingPolicy("cost"))
    )


@contextlib.contextmanager
def quiesced(server, name="iris"):
    """Pause every replica queue of ``name``'s deployment for the body;
    requests keep queueing."""
    with contextlib.ExitStack() as stack:
        for replica in server.router.deployment_for(name).replicas:
            stack.enter_context(replica.scheduler.quiesce())
        yield


class TestSingleReplicaBitIdentity:
    def test_matches_legacy_path(self, tmp_path, server):
        """A single-replica deployment on the registry backend serves
        the bit-identical result of the legacy register/predict path —
        same derived stream seed, same registry configuration."""
        legacy = server.predict("iris", SAMPLE, timeout=5)
        legacy_engine = server.engine_for("iris")

        with FeBiMServer(
            ModelRegistry(tmp_path / "reg2"), policy=POLICY, seed=0
        ) as other:
            other.register("iris", make_model(seed=1))
            other.deploy(
                Deployment("iris", [ReplicaSpec("fefet")], RoutingPolicy("cost"))
            )
            deployed = other.predict("iris", SAMPLE, timeout=5)
            assert deployed.prediction == legacy.prediction
            assert deployed.delay == legacy.delay  # bit-identical
            assert deployed.energy_total == legacy.energy_total
            np.testing.assert_array_equal(
                deployed.report().wordline_currents,
                legacy.report().wordline_currents,
            )

    def test_deployment_programs_its_own_array(self, server):
        """A deployment over a served implicit replica programs its own
        array: a dead column in the implicit replica's array is not in
        the new replica's hardware inventory."""
        server.predict("iris", SAMPLE, timeout=5)
        implicit = server.engine_for("iris")
        FaultInjector(implicit.backend, seed=5).inject_dead_column(0, "off")
        dep = deploy(server, ReplicaSpec("fefet"))
        assert server.router.hardware_status("iris")[0].faulty_cells == 0
        assert dep.replicas[0].engine is not implicit

    def test_reapply_programs_new_arrays_bit_identically(self, server):
        """Re-applying a spec programs every replica anew — no new
        replica reads an array the draining old deployment still holds
        — from the same stream seeds, so answers stay bit-identical."""
        specs = (ReplicaSpec("fefet"), ReplicaSpec("fefet"))
        policy = RoutingPolicy("round_robin")
        rows = np.random.default_rng(3).integers(0, 4, size=(16, 3))

        def served():
            return [
                (r.model, int(r.prediction), r.delay, r.energy_total)
                for r in (f.result(timeout=10)
                          for f in server.submit_many("iris", rows))
            ]

        old = deploy(server, *specs, policy=policy)
        held = [replica.engine for replica in old.replicas]
        before = served()
        new = deploy(server, *specs, policy=policy)
        assert not any(
            replica.engine is engine
            for replica in new.replicas for engine in held
        )
        assert served() == before


class TestRoutingPolicies:
    def test_cost_picks_cheaper_healthy_replica(self, server):
        """Sequential traffic (empty queues) must all land on the
        replica whose own cost model is cheapest — asserted through the
        per-replica telemetry counters."""
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("memristor"))
        for _ in range(10):
            server.predict("iris", SAMPLE, timeout=5)
        per_replica = server.stats().per_replica
        assert per_replica.get("iris@v1#r0[ideal]") == 10
        assert "iris@v1#r1[memristor]" not in per_replica

    def test_cost_respects_weight(self, server):
        """An overwhelming weight on the expensive replica flips the
        cost decision — weight scales capacity."""
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("memristor", weight=1e9),
        )
        server.predict("iris", SAMPLE, timeout=5)
        assert server.stats().per_replica == {"iris@v1#r1[memristor]": 1}

    def test_round_robin_alternates(self, server):
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("round_robin"),
        )
        for _ in range(6):
            server.predict("iris", SAMPLE, timeout=5)
        per_replica = server.stats().per_replica
        assert per_replica["iris@v1#r0[ideal]"] == 3
        assert per_replica["iris@v1#r1[cmos]"] == 3

    def test_sticky_pins_client_to_one_replica(self, server):
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("sticky"),
        )
        for _ in range(5):
            server.predict("iris", SAMPLE, timeout=5, client="alice")
        per_replica = server.stats().per_replica
        assert len(per_replica) == 1
        assert next(iter(per_replica.values())) == 5

    def test_sticky_spreads_distinct_clients(self, server):
        deploy(
            server,
            *[ReplicaSpec("ideal") for _ in range(4)],
            policy=RoutingPolicy("sticky"),
        )
        for client in range(32):
            server.predict("iris", SAMPLE, timeout=5, client=f"c{client}")
        assert len(server.stats().per_replica) >= 2

    def test_rendezvous_membership_change_moves_one_share(self, server):
        """HRW sticky: retiring a replica remaps ONLY the clients it
        anchored (~1/N of them); everyone else keeps their replica.
        The walk-forward scheme this replaced reshuffled ~half."""
        deploy(
            server,
            *[ReplicaSpec("ideal") for _ in range(4)],
            policy=RoutingPolicy("sticky"),
        )
        router = server.router
        dep = router.deployment_for("iris")
        clients = [f"tenant-{i}" for i in range(200)]
        before = {c: router.plane.pick(dep, c).index for c in clients}
        # Every replica should anchor a non-trivial share.
        shares = {i: sum(1 for v in before.values() if v == i) for i in range(4)}
        assert all(share >= 10 for share in shares.values()), shares

        router.retire_replica("iris", 2)
        after = {c: router.plane.pick(dep, c).index for c in clients}
        moved = [c for c in clients if before[c] != after[c]]
        # Minimal disruption: exactly the orphaned clients move, no one
        # else — and they are ~1/N of the population.
        assert all(before[c] == 2 for c in moved), "non-orphan client moved"
        assert len(moved) == shares[2]
        assert 0.10 <= len(moved) / len(clients) <= 0.45

    def test_rendezvous_growth_steals_one_share(self, server):
        deploy(
            server,
            *[ReplicaSpec("ideal") for _ in range(4)],
            policy=RoutingPolicy("sticky"),
        )
        router = server.router
        dep = router.deployment_for("iris")
        clients = [f"tenant-{i}" for i in range(200)]
        before = {c: router.plane.pick(dep, c).index for c in clients}
        router.add_replica("iris", ReplicaSpec("ideal"))
        after = {c: router.plane.pick(dep, c).index for c in clients}
        moved = [c for c in clients if before[c] != after[c]]
        # Growth only pulls clients toward the new replica.
        assert all(after[c] == 4 for c in moved), "client moved sideways"
        assert 0.05 <= len(moved) / len(clients) <= 0.40

    def test_mirror_majority_vote(self, server):
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            ReplicaSpec("fefet"),
            policy=RoutingPolicy("mirror"),
        )
        direct = server.router.deployment_for("iris").replicas[0].engine
        expected = direct.infer_batch(SAMPLE[None, :]).predictions[0]
        result = server.predict("iris", SAMPLE, timeout=5)
        assert isinstance(result, MirroredResult)
        assert result.prediction == expected
        assert len(result.votes) == 3
        assert result.agreement == 1.0  # exact backends agree
        snapshot = server.stats()
        assert snapshot.mirror_votes == 1
        assert snapshot.mirror_disagreements == 0
        assert len(snapshot.per_replica) == 3

    def test_seedless_server_replicas_get_distinct_engines(self, tmp_path):
        """With seed=None every replica draws fresh entropy — replicas
        must be independent physical arrays, never one shared engine
        voting against itself."""
        with FeBiMServer(ModelRegistry(tmp_path / "reg"), policy=POLICY) as srv:
            srv.register("iris", make_model(seed=1))
            dep = deploy(srv, ReplicaSpec("ideal"), ReplicaSpec("ideal"))
            assert dep.replicas[0].engine is not dep.replicas[1].engine

    def test_mirror_dead_participant_counts_against_agreement(self, server):
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("mirror"),
        )
        server.router.kill_replica("iris", 0)
        result = server.predict("iris", SAMPLE, timeout=5)
        assert result.agreement == 0.5
        assert not result.unanimous
        assert dict(result.votes)["iris@v1#r0[ideal]"] is None
        snapshot = server.stats()
        assert snapshot.mirror_disagreements == 1
        # The corpse is marked down and dropped from the next fan-out.
        states = {s.replica: s.state for s in server.router.status("iris")}
        assert states["iris@v1#r0[ideal]"] == "down"
        follow_up = server.predict("iris", SAMPLE, timeout=5)
        assert len(follow_up.votes) == 1

    def test_mirror_counts_each_client_request_once(self, server):
        """A mirrored request is one client request however many
        replicas vote on it — also when a participant dies and when the
        client cancels."""
        deploy(
            server,
            *[ReplicaSpec("ideal") for _ in range(3)],
            policy=RoutingPolicy("mirror"),
        )

        def balanced(snap):
            return snap.submitted == (
                snap.completed + snap.failed + snap.shed_requests
                + snap.cancelled
            )

        for _ in range(10):
            server.submit("iris", SAMPLE).result(timeout=10)
        snapshot = server.stats()
        assert snapshot.submitted == snapshot.completed == 10
        assert snapshot.mirror_votes == 10

        server.router.kill_replica("iris", 2)
        futures = [server.submit("iris", SAMPLE) for _ in range(10)]
        assert all(f.exception(timeout=10) is None for f in futures)
        assert server.drain(timeout=10)
        snapshot = server.stats()
        assert snapshot.failed == 0
        assert snapshot.submitted == snapshot.completed == 20
        assert balanced(snapshot)

        with quiesced(server):
            doomed = server.submit("iris", SAMPLE)
            assert doomed.cancel()
        assert server.drain(timeout=10)
        snapshot = server.stats()
        assert snapshot.cancelled == 1
        assert snapshot.mirror_votes == 20
        assert balanced(snapshot) and snapshot.in_flight == 0

    def test_mirror_close_without_drain_cancels_the_votes(self, tmp_path):
        """A non-draining close that cancels every participant of a
        mirrored request cancels the request: it is counted cancelled,
        as a routed row in the same close is, not failed."""
        server = FeBiMServer(
            ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0
        )
        server.register("iris", make_model(seed=1))
        dep = deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("mirror"),
        )
        for replica in dep.replicas:
            assert replica.scheduler.pause(timeout=5)
        futures = [server.submit("iris", SAMPLE) for _ in range(5)]
        server.close(drain=False)
        for future in futures:
            with pytest.raises(CancelledError):
                future.result(timeout=5)
        snapshot = server.stats()
        assert snapshot.cancelled == 5 and snapshot.failed == 0
        assert snapshot.in_flight == 0

    def test_mirror_fanout_limits_participants(self, server):
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            ReplicaSpec("fefet"),
            policy=RoutingPolicy("mirror", mirror_fanout=2),
        )
        result = server.predict("iris", SAMPLE, timeout=5)
        assert len(result.votes) == 2


class TestFailover:
    def test_killed_replica_fails_over_transparently(self, server):
        """A dead replica's requests reroute with zero client-visible
        errors, a recorded failover, and the replica marked down."""
        deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("round_robin"),
        )
        server.router.kill_replica("iris", 0)
        futures = server.submit_many("iris", np.tile(SAMPLE, (8, 1)))
        results = [f.result(timeout=10) for f in futures]
        assert len({r.prediction for r in results}) == 1
        snapshot = server.stats()
        assert snapshot.failovers >= 1
        states = {s.replica: s.state for s in server.router.status("iris")}
        assert states["iris@v1#r0[ideal]"] == "down"
        assert states["iris@v1#r1[cmos]"] == "healthy"
        # New traffic routes around the dead replica without failover.
        before = server.stats().failovers
        server.predict("iris", SAMPLE, timeout=5)
        assert server.stats().failovers == before

    def test_request_failing_everywhere_surfaces_error(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        bad = np.array([0, 1])  # wrong evidence width: fails on any replica
        future = server.submit("iris", bad)
        with pytest.raises(Exception):
            future.result(timeout=10)
        # A request problem must not poison replica health.
        assert all(s.state == "healthy" for s in server.router.status("iris"))
        # Counted once, as the one failure its client saw — not once
        # per replica it failed on.
        assert server.drain(timeout=10)
        snapshot = server.stats()
        assert snapshot.submitted == snapshot.failed == 1

    @pytest.mark.parametrize("bulk", [False, True])
    def test_failover_counts_each_client_request_once(self, tmp_path, bulk):
        """40 requests over two round-robin replicas with replica 0
        dead: half fail over, yet every request is counted once."""
        # Four-row chunks alternate the round-robin pick evenly, just
        # as single submits do.
        policy = BatchPolicy(max_batch=4, max_wait_ms=1.0)
        with FeBiMServer(
            ModelRegistry(tmp_path / "reg"), policy=policy, seed=0
        ) as srv:
            srv.register("iris", make_model(seed=1))
            deploy(
                srv,
                ReplicaSpec("ideal"),
                ReplicaSpec("cmos"),
                policy=RoutingPolicy("round_robin"),
            )
            srv.router.kill_replica("iris", 0)
            block = np.tile(SAMPLE, (40, 1))
            # Paused queues hold every row until all 40 are routed, so
            # half of them meet the dead replica before it is marked
            # down.
            with quiesced(srv):
                if bulk:
                    futures = srv.submit_many("iris", block)
                else:
                    futures = [srv.submit("iris", row) for row in block]
                assert srv.stats().lane_depth == {0: 40}
            for future in futures:
                future.result(timeout=10)
            assert srv.drain(timeout=10)
            snapshot = srv.stats()
        assert snapshot.submitted == snapshot.completed == 40
        assert snapshot.failed == 0
        assert snapshot.failovers == 20
        assert snapshot.in_flight == 0
        assert snapshot.lane_depth == {}

    def test_all_replicas_evicted_rejects_submit(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        server.router.kill_replica("iris", 0)
        server.router.kill_replica("iris", 1)
        server.router.check_replica("iris", 0)
        server.router.check_replica("iris", 1)
        with pytest.raises(RuntimeError, match="all evicted"):
            server.submit("iris", SAMPLE)


class TestBlockPath:
    """Routed submit_many: one future per row, one policy pick per
    max_batch chunk, accounting once per batch."""

    def test_failover_resolves_each_row_once_bit_identical(self, server):
        dep = deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("round_robin"),
        )
        server.router.kill_replica("iris", 0)
        block = np.random.default_rng(0).integers(
            0, 4, size=(3 * POLICY.max_batch, 3)
        )
        futures = server.submit_many("iris", block)
        resolved = []
        for i, future in enumerate(futures):
            future.add_done_callback(lambda _f, i=i: resolved.append(i))
        results = [future.result(timeout=10) for future in futures]
        assert sorted(resolved) == list(range(len(block)))
        survivor = dep.replicas[1].engine
        assert [r.prediction for r in results] == list(survivor.predict(block))
        assert [r.delay for r in results] == list(
            survivor.infer_batch(block).delay
        )
        assert all(r.model == "iris@v1#r1" for r in results)
        assert server.drain(timeout=10)
        snapshot = server.stats()
        assert snapshot.failed == 0 and snapshot.in_flight == 0

    def test_cost_rescores_every_chunk(self, server):
        """Two identical cost replicas both serve part of one block:
        each chunk's pick sees the queue the chunks before it left."""
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("ideal"))
        n = 4 * POLICY.max_batch
        # Paused queues keep every chunk pending while the next one is
        # scored.
        with quiesced(server):
            futures = server.submit_many("iris", np.tile(SAMPLE, (n, 1)))
        for future in futures:
            future.result(timeout=10)
        assert sorted(server.stats().per_replica.values()) == [n // 2] * 2

    def test_cancelled_rows_are_never_read(self, server):
        engines = []

        def counting(engine, replica):
            engines.append(CountingEngine(engine))
            return engines[-1]

        server.router.engine_wrapper = counting
        deploy(server, ReplicaSpec("ideal"))
        engines[0].rows = 0  # forget the deploy-time canary probe
        n = 2 * POLICY.max_batch
        with quiesced(server):
            futures = server.submit_many("iris", np.tile(SAMPLE, (n, 1)))
            doomed = futures[::3]
            assert all(future.cancel() for future in doomed)
        assert server.drain(timeout=10)
        kept = [future for future in futures if not future.cancelled()]
        assert len(kept) == n - len(doomed)
        assert all(future.result(timeout=10) for future in kept)
        assert engines[0].rows == len(kept)
        snapshot = server.stats()
        assert snapshot.completed == len(kept)
        assert snapshot.cancelled == len(doomed)
        assert snapshot.in_flight == 0

    def test_close_without_drain_resolves_failed_over_rows(self, tmp_path):
        server = FeBiMServer(
            ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0
        )
        server.register("iris", make_model(seed=1))
        dep = deploy(
            server,
            ReplicaSpec("ideal"),
            ReplicaSpec("cmos"),
            policy=RoutingPolicy("round_robin"),
        )
        server.router.kill_replica("iris", 0)
        survivor = dep.replicas[1].scheduler
        assert survivor.pause(timeout=5)
        futures = server.submit_many(
            "iris", np.tile(SAMPLE, (2 * POLICY.max_batch, 1))
        )
        # The dead replica's batch fails its chunk over onto the paused
        # survivor, where it waits beside the survivor's own chunk.
        assert dep.replicas[0].scheduler.drain(timeout=10)
        assert survivor.pending == len(futures)
        server.close(drain=False)
        assert all(future.done() for future in futures)
        for future in futures:
            with pytest.raises(CancelledError):
                future.result(timeout=0)
        assert server.stats().in_flight == 0

    def test_submit_many_builds_one_future_per_row(self, server, monkeypatch):
        deploy(server, ReplicaSpec("ideal"))
        built = []
        init = Future.__init__

        def counting_init(future):
            built.append(future)
            init(future)

        monkeypatch.setattr(Future, "__init__", counting_init)
        futures = server.submit_many(
            "iris", np.tile(SAMPLE, (3 * POLICY.max_batch, 1))
        )
        for future in futures:
            future.result(timeout=10)
        assert built == futures

    def test_traced_submit_many_spans_partition_each_row(self, server):
        deploy(server, ReplicaSpec("ideal"))
        obs = server.enable_observability(trace_rate=1.0)
        n = 3 * POLICY.max_batch
        futures = server.submit_many("iris", np.tile(SAMPLE, (n, 1)))
        for future in futures:
            future.result(timeout=10)
        traces = obs.tracer.finished()
        assert len(traces) == n
        for trace in traces:
            assert trace.outcome == "served"
            names = [span.name for span in trace.spans]
            assert names == ["admit", "queue", "execute"]
            assert trace.open_spans() == []
            gap = abs(trace.duration_s - trace.span_total_s())
            assert gap <= max(0.05 * trace.duration_s, 5e-4)


class TestHealLadder:
    def test_stuck_fault_replica_heals_by_replace(self, server):
        """An injected dead-row fault fails the canary sweep, survives
        the refresh rung (hard faults do) and is healed by replacement
        on fresh hardware — while traffic keeps flowing error-free."""
        dep = deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        replica = dep.replicas[0]
        assert len(set(replica.baseline)) >= 2  # canaries discriminate
        rows, cols = replica.engine.shape
        dead_row = np.zeros((rows, cols), dtype=bool)
        dead_row[int(replica.baseline[0])] = True
        replica.engine.backend.inject_stuck_faults(stuck_off=dead_row)

        futures = server.submit_many("iris", np.tile(SAMPLE, (6, 1)))
        report = server.router.check_replica("iris", 0)
        assert report.action == "replace"
        assert report.healed
        assert [f.result(timeout=10) for f in futures]  # zero errors
        snapshot = server.stats()
        assert snapshot.replacements == 1
        assert snapshot.refreshes == 1  # rung 1 ran (and failed to fix)
        assert snapshot.failed == 0
        # The replacement serves the pristine predictions again.
        assert server.router.check_replica("iris", 0).action == "ok"

    def test_drift_heals_by_refresh_on_fefet(self, server):
        dep = deploy(server, ReplicaSpec("fefet"), ReplicaSpec("ideal"))
        replica = dep.replicas[0]
        backend = replica.engine.backend
        rng = np.random.default_rng(0)
        backend.apply_vth_drift(
            rng.normal(0.25, 0.05, size=replica.engine.shape)
        )
        report = server.router.check_replica("iris", 0)
        assert report.action in ("refresh", "replace")
        assert report.healed

    def test_unrecoverable_kill_ends_in_eviction(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        server.router.kill_replica("iris", 0)
        report = server.router.check_replica("iris", 0)
        assert report.action == "evict"
        assert not report.healed
        assert server.stats().replica_evictions == 1
        # The deployment keeps serving on the survivor.
        assert server.predict("iris", SAMPLE, timeout=5).prediction is not None
        # An evicted replica stays evicted across sweeps.
        assert server.router.check_replica("iris", 0).action == "evict"
        assert server.stats().replica_evictions == 1

    def test_last_serviceable_replica_is_never_evicted(self, server):
        """Once a replace has produced a live engine, a deployment's
        last serviceable replica stays in routing even if it still
        fails the sweep; a replica with a serviceable sibling goes."""
        deploy(server, ReplicaSpec("ideal"))
        server.router.min_signal_ratio = 2.0  # no read can pass
        report = server.router.check_replica("iris", 0)
        assert report.action == "replace" and not report.healed
        assert report.state == "healthy"
        assert server.predict("iris", SAMPLE, timeout=5).prediction is not None
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        assert server.router.check_replica("iris", 0).action == "evict"
        assert server.router.check_replica("iris", 1).action == "replace"
        assert server.stats().replica_evictions == 1

    def test_recoverable_kill_heals_by_replace(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        server.router.kill_replica("iris", 0, recoverable=True)
        report = server.router.check_replica("iris", 0)
        assert report.action == "replace"
        assert report.healed

    def test_failure_seen_before_a_replace_is_stale(self, server):
        """A row that failed on a killed replica, then waited on a
        sibling while the ladder replaced the replica on its own host,
        never marks the healed replica down when the sibling serves it:
        the failure was seen on the old placement."""
        dep = deploy(
            server, ReplicaSpec("ideal"), ReplicaSpec("ideal"),
            policy=RoutingPolicy("round_robin"),
        )
        r0, r1 = dep.replicas
        server.router.kill_replica("iris", 0, recoverable=True)
        with r1.scheduler.quiesce(timeout=5):
            future = server.submit("iris", SAMPLE)
            # r0's batch worker fails the row over before it idles.
            assert r0.scheduler.drain(timeout=5)
            assert r1.pending == 1
            report = server.router.check_replica("iris", 0)
            assert report.action == "replace" and report.healed
        assert future.result(timeout=5).model == "iris@v1#r1"
        assert [s.state for s in server.router.status("iris")] == [
            "healthy", "healthy"]

    def test_maintenance_sweep_heals_automatically(self, server):
        dep = deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        replica = dep.replicas[0]
        rows, cols = replica.engine.shape
        dead_row = np.zeros((rows, cols), dtype=bool)
        dead_row[int(replica.baseline[0])] = True
        replica.engine.backend.inject_stuck_faults(stuck_off=dead_row)
        server.enable_maintenance(period_s=0.05)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.stats().replacements >= 1:
                break
            time.sleep(0.02)
        server.stop_maintenance()
        assert server.stats().replacements >= 1
        assert server.router.check_replica("iris", 0).action == "ok"


class TestLifecycle:
    def test_undeploy_falls_back_to_legacy(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        assert server.undeploy("iris")
        assert not server.undeploy("iris")
        result = server.predict("iris", SAMPLE, timeout=5)
        assert result.model == "iris@v1"  # legacy routing key

    def test_deploy_supersedes_implicit_deployment(self, server):
        assert server.predict("iris", SAMPLE, timeout=5).model == "iris@v1"
        implicit = server.router.serving("iris")
        assert implicit.implicit and server.deployments() == {}
        dep = deploy(server, ReplicaSpec("fefet"))
        assert server.router.serving("iris") is dep
        assert server.engine_for("iris") is dep.replicas[0].engine
        # The superseded implicit deployment drained and shut down.
        with pytest.raises(SchedulerClosed):
            implicit.replicas[0].scheduler.submit("iris", SAMPLE)

    def test_deployment_pins_version(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        server.register("iris", make_model(seed=9))
        # version=None and the pinned v1 route through the deployment;
        # the new v2 pin takes its implicit deployment.
        assert server.predict("iris", SAMPLE, timeout=5).model.startswith(
            "iris@v1#"
        )
        assert server.predict("iris", SAMPLE, version=1, timeout=5).model.startswith(
            "iris@v1#"
        )
        assert server.predict("iris", SAMPLE, version=2, timeout=5).model == (
            "iris@v2"
        )

    def test_redeploy_replaces_previous(self, server):
        deploy(server, ReplicaSpec("ideal"), ReplicaSpec("cmos"))
        deploy(server, ReplicaSpec("cmos"))
        statuses = server.router.status("iris")
        assert len(statuses) == 1
        assert statuses[0].backend == "cmos"

    def test_close_shuts_replica_schedulers(self, tmp_path):
        server = FeBiMServer(ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0)
        server.register("iris", make_model(seed=1))
        server.deploy(
            Deployment(
                "iris",
                [ReplicaSpec("ideal"), ReplicaSpec("cmos")],
                RoutingPolicy("round_robin"),
            )
        )
        futures = server.submit_many("iris", np.tile(SAMPLE, (4, 1)))
        server.close()
        assert all(f.done() for f in futures)

    def test_status_requires_deployment(self, server):
        with pytest.raises(KeyError):
            server.router.status("iris")


class TestDeploymentWorkload:
    def test_runner_round_trips(self, tmp_path, server):
        from repro.serving.workload import Scenario, run_scenario

        result = run_scenario(
            Scenario(
                deployment=Deployment(
                    "iris",
                    [ReplicaSpec("ideal"), ReplicaSpec("cmos")],
                    RoutingPolicy("round_robin"),
                ),
                n_requests=64,
                submitters=2,
                seed=0,
            ),
            server.registry,
        )
        assert result.errors == 0
        assert result.telemetry.completed == 64
        assert sum(result.telemetry.per_replica.values()) == 64
