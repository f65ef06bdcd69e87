"""Health sweeps racing each other and an autoscale-style retire.

Three actors share one deployment: a ``MaintenanceThread`` sweeping on
a tiny period (the router heal ladder over installed canaries, the
metrics hook), a foreground thread hammering ``Router.check_all()``
directly, and the autoscale scale-down primitive retiring the very
replica the sweeps are checking.  The contract under
contention: no actor crashes, the request counters stay balanced
(``in_flight`` returns to zero), and the flight ring loses no event —
every recorded kind stays inside the closed taxonomy with strictly
increasing sequence numbers.
"""

import threading
import time

import pytest

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.serving import FeBiMServer, ModelRegistry
from repro.serving.deployment import Deployment, ReplicaSpec, RoutingPolicy
from repro.serving.observability import EVENT_KINDS

PERIOD_S = 0.003
RACE_S = 0.4


@pytest.fixture()
def served(tmp_path):
    data = load_iris()
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
    registry = ModelRegistry(tmp_path)
    pipe.register_into(registry, "iris")
    server = FeBiMServer(registry, seed=42)
    server.deploy(
        Deployment(
            model="iris",
            replicas=(
                ReplicaSpec("fefet"),
                ReplicaSpec("fefet"),
                ReplicaSpec("fefet"),
            ),
            policy=RoutingPolicy(kind="cost"),
        )
    )
    yield server, pipe, pipe.transform_levels(X_te[:16])
    server.close()


def test_check_all_races_sweep_and_retire(served):
    server, pipe, canaries = served
    obs = server.enable_observability()
    server.router.max_current_shift = 0.05
    server.enable_maintenance(PERIOD_S)
    server.router.install_canaries("iris", canaries)

    stop = threading.Event()
    crashes = []

    def hammer():
        # The foreground health path a caller would drive by hand,
        # overlapping the background sweeps checking the same engines.
        while not stop.is_set():
            try:
                server.router.check_all()
            except Exception as exc:  # noqa: BLE001 — the assertion
                crashes.append(exc)
                return

    thread = threading.Thread(target=hammer)
    thread.start()
    futures = []
    try:
        # Live traffic before, during, and after the scale-down, so the
        # drain inside retire_replica has real requests to wait out.
        futures += server.submit_many("iris", canaries)
        deadline = time.monotonic() + RACE_S
        retired = False
        while time.monotonic() < deadline:
            futures.append(server.submit("iris", canaries[0]))
            if not retired and len(futures) > 8:
                # Autoscale scale-down of a replica mid-sweep: it
                # leaves routing first, drains, then shuts down.
                server.router.retire_replica("iris", 0, timeout=10.0)
                retired = True
            time.sleep(PERIOD_S / 2)
        assert retired
        futures += server.submit_many("iris", canaries)
    finally:
        stop.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert server.stop_maintenance(timeout=10.0)

    assert crashes == []
    assert server.maintenance is None or not server.maintenance.running

    # Every request resolves despite the retire racing the sweeps
    # (failover may have moved some across replicas).
    predictions = [f.result(timeout=10.0).prediction for f in futures]
    assert len(predictions) == len(futures)

    # Counters balanced: nothing in flight, nothing leaked, and the
    # sweeps themselves were tallied.
    snapshot = server.telemetry.snapshot()
    assert snapshot.in_flight == 0
    assert snapshot.completed + snapshot.failed >= len(futures)
    assert snapshot.maintenance_sweeps > 0
    assert snapshot.health_checks > 0

    # Flight ring integrity: the retire made it in, every kind is in
    # the closed taxonomy, and sequence numbers never jump backwards
    # or collide — a lost or duplicated event would break one of these.
    events = obs.recorder.events()
    kinds = {e.kind for e in events}
    assert "retire" in kinds
    assert kinds <= EVENT_KINDS
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
