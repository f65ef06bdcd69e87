"""The SLO loop: admission control, priority lanes, autoscaling, wear.

Every controller test drives :meth:`AutoscaleController.evaluate` with
synthetic snapshots/statuses or steps a real server whose pressure is
injected through telemetry counters — no wall-clock sleeps anywhere in
this file beyond short bounded waits on scheduler events.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import quantize_model
from repro.devices.endurance import EnduranceModel
from repro.reliability.faults import END_OF_LIFE_WINDOW, AgeClock, WearState
from repro.serving import (
    AutoscaleController,
    BatchPolicy,
    Deployment,
    DeploymentError,
    FeBiMServer,
    HardwarePool,
    HardwareSlot,
    MicroBatchScheduler,
    ModelRegistry,
    Overloaded,
    ReplicaSpec,
    RoutingPolicy,
    SchedulerClosed,
    SLOPolicy,
)
from repro.serving.autoscale import measure_pressure
from repro.serving.telemetry import Telemetry


# ------------------------------------------------------------------ fixtures
def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


POLICY = BatchPolicy(max_batch=1)
SAMPLE = np.array([0, 1, 2])


@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0) as srv:
        srv.register("iris", make_model(seed=1))
        yield srv


class GatedEngine:
    """Engine stub whose worker blocks inside ``infer_batch`` once armed.

    Deterministic backlog control: arm it, submit one request (the
    worker takes it and parks on ``release``), and everything after
    that stays queued until ``release`` is set.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def infer_batch(self, levels):
        if self.armed:
            self.entered.set()
            assert self.release.wait(10.0), "gate never released"
        if self.inner is not None:
            return self.inner.infer_batch(levels)
        levels = np.asarray(levels)
        n = levels.shape[0]

        class Report:
            predictions = levels.sum(axis=1)
            delay = np.full(n, 1e-9)

            class energy:
                total = np.full(n, 1e-15)

        return Report()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def make_bounded(depth, max_batch=1):
    engine = GatedEngine()
    sched = MicroBatchScheduler(
        lambda key: engine,
        BatchPolicy(max_batch=max_batch),
        max_queue_depth=depth,
    )
    return sched, engine


def occupy_worker(sched, engine, key="m"):
    """Park the worker inside the engine; returns the in-flight future."""
    engine.armed = True
    future = sched.submit(key, SAMPLE)
    assert engine.entered.wait(5.0), "worker never reached the engine"
    return future


# ------------------------------------------------------------------ slo spec
class TestSLOPolicy:
    def test_defaults_validate(self):
        SLOPolicy().validate()

    def test_bad_bounds_rejected(self):
        with pytest.raises(DeploymentError):
            SLOPolicy(min_replicas=0).validate()
        with pytest.raises(DeploymentError):
            SLOPolicy(min_replicas=3, max_replicas=2).validate()
        with pytest.raises(DeploymentError):
            SLOPolicy(max_queue_depth=0).validate()
        with pytest.raises(DeploymentError):
            SLOPolicy(target_p95_ms=0.0).validate()

    def test_priority_lookup(self):
        slo = SLOPolicy(priorities={"vip": 10}, default_priority=1)
        assert slo.priority_for("vip") == 10
        assert slo.priority_for("anon") == 1
        assert slo.priority_for(None) == 1

    def test_round_trips_through_deployment(self):
        dep = Deployment(
            "iris",
            [ReplicaSpec("ideal")],
            RoutingPolicy("cost"),
            slo=SLOPolicy(
                target_p95_ms=150.0,
                max_queue_depth=16,
                min_replicas=1,
                max_replicas=3,
                backpressure=True,
                priorities={"vip": 10},
            ),
        )
        restored = Deployment.from_dict(dep.to_dict())
        assert restored.slo == dep.slo
        assert "slo[" in restored.describe()

    def test_no_slo_round_trip_omits_key(self):
        dep = Deployment("iris", [ReplicaSpec("ideal")])
        assert "slo" not in dep.to_dict()
        assert Deployment.from_dict(dep.to_dict()).slo is None

    def test_unknown_slo_field_rejected(self):
        data = Deployment(
            "iris", [ReplicaSpec("ideal")], slo=SLOPolicy()
        ).to_dict()
        data["slo"]["max_qeue_depth"] = 4
        with pytest.raises(DeploymentError):
            Deployment.from_dict(data)

    def test_more_seed_replicas_than_max_rejected(self):
        dep = Deployment(
            "iris",
            [ReplicaSpec("ideal"), ReplicaSpec("ideal")],
            slo=SLOPolicy(max_replicas=1),
        )
        with pytest.raises(DeploymentError):
            dep.validate()


# ---------------------------------------------------------------- admission
class TestAdmissionControl:
    def test_unbounded_by_default_never_sheds(self):
        engine = GatedEngine()
        sched = MicroBatchScheduler(
            lambda key: engine, BatchPolicy(max_batch=4)
        )
        try:
            futures = [sched.submit("m", SAMPLE) for _ in range(64)]
            for f in futures:
                f.result(timeout=5)
            assert sched.telemetry.snapshot().shed_requests == 0
        finally:
            sched.shutdown()

    def test_door_reject_is_typed_with_context(self):
        sched, engine = make_bounded(depth=2)
        try:
            occupy_worker(sched, engine)
            sched.submit("m", SAMPLE)
            sched.submit("m", SAMPLE)
            with pytest.raises(Overloaded) as exc_info:
                sched.submit("m", SAMPLE)
            assert exc_info.value.key == "m"
            assert exc_info.value.depth == 2
            assert exc_info.value.lane == 0
        finally:
            engine.release.set()
            sched.shutdown()

    def test_high_priority_sheds_newest_lowest(self):
        """A lane-5 arrival displaces the *newest* lane-0 request; the
        victim's future carries Overloaded, the survivors serve in
        lane order."""
        sched, engine = make_bounded(depth=2)
        try:
            occupy_worker(sched, engine)
            f_old = sched.submit("m", SAMPLE, priority=0)
            f_new = sched.submit("m", SAMPLE, priority=0)
            f_vip = sched.submit("m", SAMPLE, priority=5)
            with pytest.raises(Overloaded) as exc_info:
                f_new.result(timeout=5)
            assert exc_info.value.lane == 0
            engine.release.set()
            assert f_vip.result(timeout=5) is not None
            assert f_old.result(timeout=5) is not None
        finally:
            engine.release.set()
            sched.shutdown()

    def test_equal_priority_cannot_displace(self):
        """shed_lowest is *strictly below*: lane-0 arrivals at a
        lane-0-full queue are door-rejected, never the queued peers."""
        sched, engine = make_bounded(depth=1)
        try:
            occupy_worker(sched, engine)
            f_queued = sched.submit("m", SAMPLE, priority=0)
            with pytest.raises(Overloaded):
                sched.submit("m", SAMPLE, priority=0)
            engine.release.set()
            assert f_queued.result(timeout=5) is not None
        finally:
            engine.release.set()
            sched.shutdown()

    def test_vip_full_queue_rejects_vip_arrival(self):
        sched, engine = make_bounded(depth=1)
        try:
            occupy_worker(sched, engine)
            sched.submit("m", SAMPLE, priority=5)
            with pytest.raises(Overloaded) as exc_info:
                sched.submit("m", SAMPLE, priority=5)
            assert exc_info.value.lane == 5
        finally:
            engine.release.set()
            sched.shutdown()

    def test_backpressure_times_out_to_overloaded(self):
        sched, engine = make_bounded(depth=1)
        try:
            occupy_worker(sched, engine)
            sched.submit("m", SAMPLE)
            with pytest.raises(Overloaded):
                sched.submit("m", SAMPLE, block=True, timeout=0.05)
        finally:
            engine.release.set()
            sched.shutdown()

    def test_backpressure_admits_when_space_frees(self):
        sched, engine = make_bounded(depth=1)
        try:
            occupy_worker(sched, engine)
            sched.submit("m", SAMPLE)
            results = {}

            def blocked_submit():
                try:
                    results["future"] = sched.submit("m", SAMPLE, block=True)
                except Exception as exc:  # pragma: no cover - diagnosed below
                    results["error"] = exc

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            engine.release.set()  # worker drains -> space frees
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert "error" not in results, results
            assert results["future"].result(timeout=5) is not None
        finally:
            engine.release.set()
            sched.shutdown()

    def test_shutdown_wakes_backpressured_submitter(self):
        sched, engine = make_bounded(depth=1)
        occupy_worker(sched, engine)
        sched.submit("m", SAMPLE)
        results = {}

        def blocked_submit():
            try:
                sched.submit("m", SAMPLE, block=True)
            except Exception as exc:
                results["error"] = exc

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        engine.release.set()
        sched.shutdown(drain=True)
        thread.join(timeout=5)
        assert not thread.is_alive()
        # The blocked submitter either got in before the drain or was
        # told the shop is closed — never left hanging.
        if "error" in results:
            assert isinstance(results["error"], (SchedulerClosed, Overloaded))

    def test_ledger_balances_after_sheds(self):
        """in_flight must return to zero with sheds on both paths
        (door-reject and displaced victim) in the mix."""
        sched, engine = make_bounded(depth=2)
        try:
            inflight = occupy_worker(sched, engine)
            f_old = sched.submit("m", SAMPLE, priority=0)
            f_new = sched.submit("m", SAMPLE, priority=0)
            f_vip = sched.submit("m", SAMPLE, priority=5)  # displaces f_new
            with pytest.raises(Overloaded):
                sched.submit("m", SAMPLE, priority=0)  # door-reject
            engine.release.set()
            for f in (inflight, f_old, f_vip):
                f.result(timeout=5)
            with pytest.raises(Overloaded):
                f_new.result(timeout=5)
            snapshot = sched.telemetry.snapshot()
            assert snapshot.shed_requests == 2
            assert snapshot.in_flight == 0
            assert all(v == 0 for v in snapshot.lane_depth.values())
        finally:
            engine.release.set()
            sched.shutdown()


# ------------------------------------------------------------ router spill
def slo_deploy(server, n_replicas=1, routing="cost", **slo_kwargs):
    slo_kwargs.setdefault("max_queue_depth", 1)
    slo_kwargs.setdefault("max_replicas", max(n_replicas, 3))
    return server.deploy(
        Deployment(
            "iris",
            [ReplicaSpec("ideal") for _ in range(n_replicas)],
            RoutingPolicy(routing),
            slo=SLOPolicy(**slo_kwargs),
        )
    )


def gate_replicas(server, indices):
    """Install gated engines on the given replica indices at deploy."""
    gates = {}

    def wrapper(engine, replica):
        if replica.index in indices:
            gates[replica.index] = GatedEngine(engine)
            return gates[replica.index]
        return engine

    server.router.engine_wrapper = wrapper
    return gates


class TestRouterOverload:
    def test_single_replica_overload_reaches_client(self, server):
        """No sibling to spill to: the client's future carries the
        typed Overloaded — and the replica is NOT marked down (busy is
        not broken)."""
        gates = gate_replicas(server, {0})
        slo_deploy(server, n_replicas=1)
        gate = gates[0]
        gate.armed = True
        server.submit("iris", SAMPLE)
        assert gate.entered.wait(5.0)
        server.submit("iris", SAMPLE)  # fills the depth-1 queue
        rejected = server.submit("iris", SAMPLE)
        with pytest.raises(Overloaded):
            rejected.result(timeout=5)
        assert server.router.status("iris")[0].state == "healthy"
        gate.release.set()
        server.drain(10.0)

    def test_overload_spills_to_sibling(self, server):
        """A full replica fails over transparently: the request serves
        on the sibling, a failover is recorded, nobody is marked down."""
        gates = gate_replicas(server, {0, 1})
        slo_deploy(server, n_replicas=2, routing="sticky")
        # Pin every request to one replica (the cost policy would just
        # balance around the backlog), then park and fill that replica.
        dep = server.router.deployment_for("iris")
        pinned = server.router.plane.pick(dep, "alice").index
        gate = gates[pinned]
        gate.armed = True
        first = server.submit("iris", SAMPLE, client="alice")
        assert gate.entered.wait(5.0)
        server.submit("iris", SAMPLE, client="alice")
        spilled = server.submit("iris", SAMPLE, client="alice")
        assert spilled.result(timeout=5) is not None
        snapshot = server.stats()
        assert snapshot.failovers >= 1
        assert all(s.state == "healthy" for s in server.router.status("iris"))
        gate.release.set()
        first.result(timeout=5)
        server.drain(10.0)

    def test_backpressure_blocks_first_attempt(self, server):
        """With slo.backpressure the client-context submit waits for
        space instead of shedding — the request is eventually served."""
        gates = gate_replicas(server, {0})
        slo_deploy(server, n_replicas=1, backpressure=True)
        gate = gates[0]
        gate.armed = True
        server.submit("iris", SAMPLE)
        assert gate.entered.wait(5.0)
        server.submit("iris", SAMPLE)
        results = {}

        def pressured_submit():
            results["future"] = server.submit("iris", SAMPLE)

        thread = threading.Thread(target=pressured_submit)
        thread.start()
        gate.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results["future"].result(timeout=5) is not None
        server.drain(10.0)


# ------------------------------------------------------- controller (pure)
def snap(shed=0, p95_ms=float("nan")):
    return SimpleNamespace(shed_requests=shed, p95_latency_s=p95_ms / 1e3)


def rows(*pending, state="healthy"):
    return [
        SimpleNamespace(state=state, pending=p, index=i)
        for i, p in enumerate(pending)
    ]


class TestMeasurePressure:
    def test_folds_serviceable_rows(self):
        pressure = measure_pressure(
            rows(3, 5) + [SimpleNamespace(state="evicted", pending=9, index=2)]
        )
        assert pressure.replicas == 3
        assert pressure.serviceable == 2
        assert pressure.queued == 8
        assert pressure.deepest == 5

    def test_empty(self):
        pressure = measure_pressure([])
        assert pressure.deepest == 0 and pressure.serviceable == 0


class TestControllerDecisions:
    """Pure evaluate(): synthetic snapshots in, decisions out."""

    @pytest.fixture()
    def controller(self, server):
        slo_deploy(
            server,
            n_replicas=1,
            max_queue_depth=4,
            target_p95_ms=100.0,
            max_replicas=3,
        )
        return AutoscaleController(
            server, "iris", scale_down_patience=2, cooldown_steps=1
        )

    def test_requires_slo(self, server):
        server.deploy(Deployment("iris", [ReplicaSpec("ideal")]))
        with pytest.raises(DeploymentError):
            AutoscaleController(server, "iris")

    def test_requires_deployment(self, server):
        with pytest.raises(KeyError):
            AutoscaleController(server, "nope")

    def test_shed_delta_scales_up(self, controller):
        decision = controller.evaluate(snap(shed=7), rows(1))
        assert decision.action == "up"
        assert "shed 7" in decision.reason

    def test_shed_watermark_resets(self, controller):
        controller.evaluate(snap(shed=7), rows(1))
        decision = controller.evaluate(snap(shed=7), rows(0))
        assert decision.action == "hold"

    def test_saturated_queue_scales_up(self, controller):
        decision = controller.evaluate(snap(), rows(4))
        assert decision.action == "up"
        assert "admission bound" in decision.reason

    def test_missed_p95_scales_up_only_while_queued(self, controller):
        assert controller.evaluate(snap(p95_ms=250.0), rows(2)).action == "up"
        # Sticky percentile window with an idle queue must NOT scale.
        calm = AutoscaleController(controller.server, "iris")
        assert calm.evaluate(snap(p95_ms=250.0), rows(0)).action == "hold"

    def test_at_max_replicas_holds(self, controller):
        decision = controller.evaluate(snap(shed=9), rows(4, 4, 4))
        assert decision.action == "hold"

    def test_below_min_scales_up(self, controller):
        decision = controller.evaluate(snap(), [])
        assert decision.action == "up"
        assert "below min_replicas" in decision.reason

    def test_calm_patience_scales_down(self, controller):
        assert controller.evaluate(snap(), rows(0, 0)).action == "hold"
        decision = controller.evaluate(snap(), rows(0, 0))
        assert decision.action == "down"
        assert "idle" in decision.reason

    def test_activity_resets_patience(self, controller):
        controller.evaluate(snap(), rows(0, 0))
        controller.evaluate(snap(), rows(1, 0))  # traffic -> streak resets
        assert controller.evaluate(snap(), rows(0, 0)).action == "hold"

    def test_never_scales_below_min(self, controller):
        for _ in range(5):
            decision = controller.evaluate(snap(), rows(0))
        assert decision.action == "hold"


# ----------------------------------------------------- controller (acting)
def inject_shed(server, n=1):
    """Fake load-shed pressure: move both ledger sides like a real shed."""
    for _ in range(n):
        server.telemetry.record_submitted()
        server.telemetry.record_shed()


class TestControllerActing:
    def test_scale_up_places_least_worn_and_down_releases(self, server):
        slo_deploy(server, n_replicas=1, max_replicas=3)
        life = EnduranceModel().cycles_to_window_fraction(END_OF_LIFE_WINDOW)
        pool = HardwarePool(
            [
                (ReplicaSpec("ideal"), 0.5 * life),
                (ReplicaSpec("ideal"), 0.1 * life),
                (ReplicaSpec("ideal"), 0.9 * life),
            ]
        )
        controller = server.enable_autoscale(
            "iris", pool=pool, scale_down_patience=2, cooldown_steps=1
        )

        inject_shed(server)
        event = controller.step()
        assert event.action == "up"
        assert event.slot == "slot1"  # least worn wins
        assert 0.0 < event.wear_fraction < 0.2
        assert len(server.router.status("iris")) == 2
        assert server.stats().scale_ups == 1
        assert pool.slots[1].replica_index is not None

        # Calm accrues during the cooldown hold, so patience=2 is met
        # on the second post-action step.
        assert controller.step().action == "hold"  # cooldown, calm 1
        event = controller.step()  # calm 2 -> down
        assert event.action == "down"
        assert event.slot == "slot1"
        assert len(server.router.status("iris")) == 1
        assert server.stats().scale_downs == 1
        assert pool.slots[1].free
        # Wear persisted through the acquire/release cycle.
        assert pool.slots[1].wear.fraction_used > 0.1 * 0.99

    def test_pool_exhausted_holds_with_reason(self, server):
        slo_deploy(server, n_replicas=1, max_replicas=3)
        pool = HardwarePool([ReplicaSpec("ideal")])
        controller = server.enable_autoscale(
            "iris", pool=pool, cooldown_steps=0
        )
        inject_shed(server)
        assert controller.step().action == "up"
        inject_shed(server)
        event = controller.step()
        assert event.action == "hold"
        assert "exhausted" in event.reason

    def test_poolless_scale_up_clones_first_spec(self, server):
        slo_deploy(server, n_replicas=1, max_replicas=2)
        controller = server.enable_autoscale("iris", cooldown_steps=0)
        inject_shed(server)
        event = controller.step()
        assert event.action == "up"
        assert event.slot is None
        statuses = server.router.status("iris")
        assert len(statuses) == 2
        assert statuses[1].backend == "ideal"

    def test_deploy_with_slo_auto_enables(self, server):
        slo_deploy(server, n_replicas=1)
        assert server.autoscaler("iris") is not None
        server.undeploy("iris")
        assert server.autoscaler("iris") is None

    def test_deploy_without_slo_does_not(self, server):
        server.deploy(Deployment("iris", [ReplicaSpec("ideal")]))
        assert server.autoscaler("iris") is None


# ------------------------------------------------------------ hardware pool
class TestHardwarePool:
    def test_least_worn_orders_by_fraction_then_label(self):
        pool = HardwarePool(
            [
                HardwareSlot(ReplicaSpec("ideal"), label="b"),
                HardwareSlot(ReplicaSpec("ideal"), label="a"),
                (ReplicaSpec("ideal"), 1e6),
            ]
        )
        assert pool.least_worn().label == "a"  # tie broken on label

    def test_acquire_release_cycle(self):
        pool = HardwarePool([ReplicaSpec("ideal"), ReplicaSpec("ideal")])
        slot = pool.least_worn()
        pool.acquire(slot, 7)
        assert not slot.free
        assert len(pool.free_slots()) == 1
        with pytest.raises(DeploymentError):
            pool.acquire(slot, 8)
        assert pool.release(7) is slot
        assert slot.free
        assert pool.release(99) is None

    def test_exhausted_pool_returns_none(self):
        pool = HardwarePool([ReplicaSpec("ideal")])
        pool.acquire(pool.slots[0], 0)
        assert pool.least_worn() is None


# ----------------------------------------------------------- wear ledgers
class TestLedgerWear:
    def test_crossbarless_wear_is_pure_bookkeeping(self):
        wear = WearState(cycles=0.0)
        assert wear.fraction_used == 0.0
        wear.add_cycles(100)
        assert wear.cycles == 100
        assert wear.fraction_used > 0.0

    def test_fraction_hits_one_at_end_of_life(self):
        life = EnduranceModel().cycles_to_window_fraction(END_OF_LIFE_WINDOW)
        assert WearState(cycles=life).fraction_used == pytest.approx(1.0)

    def test_negative_seed_cycles_rejected(self):
        with pytest.raises(ValueError):
            WearState(cycles=-1.0)

    def test_crossbarless_age_clock_accrues(self):
        clock = AgeClock()
        clock.advance(3600.0)
        clock.advance(3600.0)
        assert clock.age_s == pytest.approx(7200.0)


# ------------------------------------------------------------- telemetry
class TestOccupancyAggregation:
    def test_mixed_max_batch_occupancy_is_mean_fill(self):
        """Occupancy must average each batch's own fill fraction — a
        full batch on a small-max scheduler is 100 %, not
        size/global_max."""
        telemetry = Telemetry(max_batch=64)
        telemetry.record_batch("a", 8, max_batch=8)  # a full batch
        telemetry.record_batch("b", 16, max_batch=64)  # a quarter batch
        assert telemetry.snapshot().occupancy == pytest.approx((1.0 + 0.25) / 2)

    def test_default_max_batch_fallback(self):
        telemetry = Telemetry(max_batch=32)
        telemetry.record_batch("a", 16)
        assert telemetry.snapshot().occupancy == pytest.approx(0.5)

    def test_scale_counters_round_trip(self):
        telemetry = Telemetry(max_batch=8)
        telemetry.emit("scale_up")
        telemetry.emit("scale_up")
        telemetry.emit("scale_down")
        snapshot = telemetry.snapshot()
        assert snapshot.scale_ups == 2
        assert snapshot.scale_downs == 1
        data = snapshot.to_dict()
        assert data["scale_ups"] == 2 and data["scale_downs"] == 1
