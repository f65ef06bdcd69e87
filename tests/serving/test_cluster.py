"""Cross-process placement: bit-identity, supervision, failover.

These tests spawn real worker subprocesses (multiprocessing spawn
context), so they are grouped to reuse clusters where possible; the
chaos scenario (SIGKILL mid-burst) is additionally exercised every CI
run by ``benchmarks/bench_cluster.py``.
"""

import itertools
import math
import queue
import socket
import sys
import threading
import time
from concurrent.futures import CancelledError
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import quantize_model
from repro.reliability import WearState
from repro.serving import (
    BatchPolicy,
    ClusterServer,
    Deployment,
    DeploymentError,
    FeBiMServer,
    ModelRegistry,
    Overloaded,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
    SLOPolicy,
    serve_deployment,
)
from repro.serving import cluster as cluster_module
from repro.serving.observability import Trace
from repro.serving.transport import (
    FrameDecoder,
    ProtocolError,
    RemoteWorkerError,
    make,
    protocol,
)
from repro.serving.scheduler import _Request
from repro.serving.worker import WorkerHost, _Block

POLICY = BatchPolicy(max_batch=8)


def make_model(k=3, m=4, seed=1, classes=None):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(
        tables, prior / prior.sum(), n_levels=4, classes=classes
    )


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-reg")
    ModelRegistry(root).register("iris", make_model())
    return str(root)


def process_deployment(*specs, policy=None, workers=2):
    return Deployment(
        "iris",
        list(specs) or [ReplicaSpec("fefet"), ReplicaSpec("fefet")],
        policy or RoutingPolicy("round_robin"),
        placement=PlacementSpec(kind="process", workers=workers),
    )


def served_stream(results):
    """The modeled quantities of a result stream, with their types
    (queue_wait_s is wall-clock bookkeeping, not part of the
    contract)."""
    return [
        (type(r.prediction), r.prediction, type(r.delay), r.delay,
         type(r.energy_total), r.energy_total)
        for r in results
    ]


def balanced(snap) -> bool:
    """Every client request counted once: the ledger closes."""
    return snap.submitted == (
        snap.completed + snap.failed + snap.shed_requests + snap.cancelled
    )


def count_request_frames(cluster):
    """Wrap each worker connection's ``send``; returns the list every
    ``request`` frame the front end sends is appended to."""
    sent = []
    for handle in cluster.pool._workers.values():
        conn = handle.conn
        original = conn.send

        def send(message, original=original):
            frame = message if isinstance(message, bytes) else None
            if frame is not None:
                (decoded,) = FrameDecoder().feed(frame)
                if decoded["kind"] == "request":
                    sent.append(decoded)
            original(message)

        conn.send = send
    return sent


class TestBitIdentity:
    def test_process_placement_serves_local_bytes(self, registry_root):
        """The acceptance gate: a 2-worker process placement serves the
        byte-identical stream a local placement serves — same replica
        stream seeds, same engines, same routing decisions — through
        both ``submit`` and ``submit_many``, with a row count that
        leaves a short last chunk."""
        levels = np.random.default_rng(0).integers(0, 4, size=(29, 3))
        assert len(levels) % POLICY.max_batch

        local_dep = Deployment(
            "iris",
            [ReplicaSpec("fefet"), ReplicaSpec("fefet")],
            RoutingPolicy("round_robin"),
        )
        with FeBiMServer(
            ModelRegistry(registry_root), policy=POLICY, seed=7
        ) as server:
            server.deploy(local_dep)
            local = [f.result(10) for f in server.submit_many("iris", levels)]

        with ClusterServer(
            registry_root, policy=POLICY, seed=7, maintenance_period_s=None
        ) as cluster:
            cluster.deploy(process_deployment())
            remote_many = [
                f.result(30) for f in cluster.submit_many("iris", levels)
            ]
            remote = [
                cluster.submit("iris", row).result(30) for row in levels
            ]
            assert sorted(cluster.worker_pids()) == ["w0", "w1"]

        assert served_stream(remote_many) == served_stream(local)
        assert served_stream(remote) == served_stream(local)

    def test_class_labels_cross_the_wire_unchanged(self, tmp_path):
        """A prediction is the model's own class label: string and
        fractional labels come back from a worker equal to the local
        answers, through ``submit_many`` and ``submit``."""
        labels = {"words": ["ham", "spam", "eggs"], "halves": [0.5, 1.5, 2.5]}
        registry = ModelRegistry(tmp_path)
        for name, classes in labels.items():
            registry.register(name, make_model(classes=classes))
        levels = np.random.default_rng(3).integers(0, 4, size=(20, 3))

        def deployment(name, **placement):
            return Deployment(
                name, [ReplicaSpec("fefet")], RoutingPolicy("round_robin"),
                **placement,
            )

        with FeBiMServer(ModelRegistry(tmp_path), policy=POLICY,
                         seed=7) as server:
            local = {}
            for name in labels:
                server.deploy(deployment(name))
                local[name] = [
                    h.result(10).prediction
                    for h in server.submit_many(name, levels)
                ]
        with ClusterServer(
            str(tmp_path), policy=POLICY, seed=7, maintenance_period_s=None
        ) as cluster:
            for name, classes in labels.items():
                cluster.deploy(deployment(name, placement=PlacementSpec(
                    kind="process", workers=1,
                )))
                many = [
                    h.result(30).prediction
                    for h in cluster.submit_many(name, levels)
                ]
                one = [
                    cluster.submit(name, row).result(30).prediction
                    for row in levels
                ]
                assert len(set(local[name])) > 1
                assert set(local[name]) <= set(classes)
                assert many == one == local[name]
                typed = [(type(p), p) for p in local[name]]
                assert [(type(p), p) for p in many] == typed
                assert [(type(p), p) for p in one] == typed
                assert {type(p) for p in many} == {type(classes[0])}
            assert cluster.stats().failed == 0


class TestClusterBehaviour:
    def test_serving_supervision_and_observability(self, registry_root):
        with serve_deployment(
            ModelRegistry(registry_root),
            process_deployment(
                ReplicaSpec("fefet"), ReplicaSpec("ideal"),
                policy=RoutingPolicy("cost"),
            ),
            policy=POLICY,
            seed=0,
            heartbeat_period_s=0.05,
            maintenance_period_s=0.05,
        ) as cluster:
            assert isinstance(cluster, ClusterServer)
            cluster.enable_observability(trace_rate=0.0)

            futures = cluster.submit_many(
                "iris",
                np.random.default_rng(1).integers(0, 4, size=(32, 3)),
            )
            results = [f.result(30) for f in futures]
            assert all(r.prediction in (0, 1, 2) for r in results)

            # Per-replica status is live and front-end owned.
            statuses = cluster.status("iris")
            assert [s.index for s in statuses] == [0, 1]
            assert all(s.state == "healthy" for s in statuses)

            # Wear: each deployed replica booked the programming cycle
            # local placement books, and a placed replica adds exactly
            # one cycle to the ledger it was handed (a pool slot's).
            with FeBiMServer(
                ModelRegistry(registry_root), policy=POLICY, seed=0
            ) as local:
                local.deploy(Deployment(
                    "iris", [ReplicaSpec("fefet"), ReplicaSpec("ideal")],
                    RoutingPolicy("cost"),
                ))
                local_wear = [
                    s.wear_fraction for s in local.router.status("iris")
                ]
            assert local_wear[0] > 0.0
            assert [s.wear_fraction for s in statuses] == local_wear
            slot_wear = WearState(cycles=3)
            added = cluster.router.add_replica(
                "iris", ReplicaSpec("ideal"), wear=slot_wear
            )
            assert slot_wear.cycles == 4
            assert added.wear_fraction == slot_wear.fraction_used

            # Telemetry: every request completed on the front end's
            # books, workers started, none lost.
            snap = cluster.stats()
            assert snap.completed == 32
            assert snap.failed == 0
            assert snap.workers_started == 2
            assert snap.workers_lost == 0

            # Heartbeats fold into the flight recorder on the
            # supervision cadence (worker_start predates the recorder
            # here — the spawn accounting is in the snapshot above).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                kinds = {
                    e.kind for e in cluster.observability.recorder.events()
                }
                if "worker_heartbeat" in kinds:
                    break
                time.sleep(0.02)
            assert "worker_heartbeat" in kinds

    def test_typed_overload_crosses_the_boundary(self, registry_root):
        """Shed rows spill to the sibling replica; the client sees a
        typed ``Overloaded`` only when both are full, and every client
        request is counted exactly once (a spilled attempt that a
        sibling served is not a shed)."""
        dep = Deployment(
            "iris",
            [ReplicaSpec("fefet"), ReplicaSpec("fefet")],
            RoutingPolicy("cost"),
            slo=SLOPolicy(
                max_queue_depth=1, min_replicas=2, max_replicas=2,
            ),
            placement=PlacementSpec(kind="process", workers=1),
        )
        with ClusterServer(
            registry_root,
            policy=BatchPolicy(max_batch=1),
            seed=0,
            maintenance_period_s=None,
        ) as cluster:
            cluster.deploy(dep)
            rows = np.random.default_rng(2).integers(0, 4, size=(64, 3))
            outcomes = [cluster.submit("iris", row) for row in rows]
            shed = served = 0
            for future in outcomes:
                try:
                    future.result(30)
                    served += 1
                except Overloaded as exc:
                    # The typed exception survived the wire: key and
                    # depth are the worker-side scheduler's own.
                    assert exc.key is not None
                    shed += 1
            assert served >= 1
            assert shed >= 1
            snap = cluster.stats()
            assert snap.submitted == 64
            assert snap.completed == served
            assert snap.shed_requests == shed
            assert snap.failed == 0
            assert balanced(snap)
            # Busy is not broken: nobody was marked down.
            assert {s.state for s in cluster.status("iris")} == {"healthy"}

    def test_mirror_votes_across_workers(self, registry_root):
        """Mirror on process placement: each client request is counted
        once, and the votes are the ones a local mirror casts."""
        dep = process_deployment(
            ReplicaSpec("fefet"), ReplicaSpec("ideal"), ReplicaSpec("cmos"),
            policy=RoutingPolicy("mirror", mirror_weighted=True),
        )
        rows = np.random.default_rng(9).integers(0, 4, size=(10, 3))
        with ClusterServer(
            registry_root, policy=POLICY, seed=0, maintenance_period_s=None
        ) as cluster:
            cluster.deploy(dep)
            result = cluster.predict(
                "iris", np.array([0, 1, 2]), timeout=30
            )
            assert len(result.votes) == 3
            assert result.agreement == 1.0
            assert cluster.stats().mirror_votes == 1

            remote = [cluster.predict("iris", row, timeout=30) for row in rows]
            snap = cluster.stats()
            assert snap.submitted == snap.completed == snap.mirror_votes == 11
            assert snap.failed == 0
            assert balanced(snap)

            doomed = cluster.submit("iris", rows[0])
            cancelled = doomed.cancel()
            # Each replica answers in order, so once a later vote has
            # resolved, the cancelled one has been accounted too.
            cluster.predict("iris", rows[1], timeout=30)
            snap = cluster.stats()
            assert snap.cancelled == int(cancelled)
            assert snap.mirror_votes == 13 - int(cancelled)
            assert balanced(snap) and snap.in_flight == 0

        with FeBiMServer(
            ModelRegistry(registry_root), policy=POLICY, seed=0
        ) as server:
            server.deploy(Deployment("iris", list(dep.replicas), dep.policy))
            local = [server.predict("iris", row, timeout=10) for row in rows]

        def vote(r):
            return (r.prediction, r.votes, r.agreement, r.delay, r.energy_total)

        assert [vote(r) for r in remote] == [vote(r) for r in local]


@pytest.fixture(scope="module")
def block_registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("block-reg")
    registry = ModelRegistry(root)
    registry.register("solo", make_model())
    registry.register("pair", make_model())
    return str(root)


class TestBlockPath:
    """One ``request`` frame per ``max_batch`` chunk, one reply each."""

    @pytest.fixture(scope="class")
    def cluster(self, registry_root):
        with ClusterServer(
            registry_root,
            policy=BatchPolicy(max_batch=256),
            seed=0,
            maintenance_period_s=None,
        ) as cluster:
            cluster.deploy(process_deployment(
                ReplicaSpec("fefet"), policy=RoutingPolicy("cost"), workers=1,
            ))
            yield cluster

    def test_one_request_frame_per_chunk(self, cluster):
        rows = np.random.default_rng(4).integers(0, 4, size=(600, 3))
        sent = count_request_frames(cluster)
        futures = cluster.submit_many("iris", rows)
        assert len(futures) == 600
        assert all(f.result(30).prediction in (0, 1, 2) for f in futures)
        assert len(sent) == math.ceil(600 / 256)
        blocks = [protocol.unpack_levels(m["levels"], m["features"])
                  for m in sent]
        assert [len(block) for block in blocks] == [256, 256, 88]
        np.testing.assert_array_equal(np.concatenate(blocks), rows)
        del sent[:]
        cluster.submit("iris", rows[0]).result(30)
        assert len(sent) == 1 and protocol.unpack_levels(
            sent[0]["levels"], sent[0]["features"]
        ).tolist() == [rows[0].tolist()]
        # The cost signal counts rows and settles back to zero.
        assert [s.pending for s in cluster.status("iris")] == [0]

    def test_cancelled_rows_drop_out_at_the_front_end_claim(self, cluster):
        """Every third handle of a 2 x max_batch block is cancelled while
        its replies are held: exactly those rows drop out when the
        replies are claimed, counted cancelled, and the rest are
        served."""
        n = 2 * 256
        rows = np.random.default_rng(7).integers(0, 4, size=(n, 3))
        before = cluster.stats()
        # The reader pops a reply's pending entry under the pool lock,
        # so holding it holds every reply until the cancels are in.
        with cluster.pool._lock:
            handles = cluster.submit_many("iris", rows)
            doomed = handles[::3]
            assert all(handle.cancel() for handle in doomed)
        kept = [h for h in handles if not h.cancelled()]
        assert len(kept) == n - len(doomed)
        assert all(h.result(30).prediction in (0, 1, 2) for h in kept)
        after = cluster.stats()
        assert after.completed - before.completed == len(kept)
        assert after.cancelled - before.cancelled == len(doomed)
        assert balanced(after)
        assert [s.pending for s in cluster.status("iris")] == [0]

    def test_oversized_block_fails_its_rows_not_the_worker(
        self, cluster, monkeypatch
    ):
        """A chunk whose frame exceeds MAX_FRAME fails its own rows with
        the ProtocolError (counted as failed); the worker stays up and
        keeps serving."""
        rows = np.random.default_rng(5).integers(0, 4, size=(256, 3))
        before = cluster.stats()
        # Small enough that one 256-row request cannot be framed, large
        # enough for heartbeats and a one-row round trip.
        monkeypatch.setattr(protocol, "MAX_FRAME", 2048)
        futures = cluster.submit_many("iris", rows)
        for future in futures:
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                future.result(30)
        assert cluster.submit("iris", rows[0]).result(30).prediction in (
            0, 1, 2)
        monkeypatch.undo()
        assert all(
            f.result(30).prediction in (0, 1, 2)
            for f in cluster.submit_many("iris", rows)
        )
        after = cluster.stats()
        assert after.failed - before.failed == 256
        assert after.workers_lost == 0
        assert sorted(cluster.worker_pids()) == ["w0"]
        assert [s.state for s in cluster.status("iris")] == ["healthy"]
        assert balanced(after)

    def test_block_overload_spills_rows_to_a_sibling(self, block_registry):
        """An 8-row block against a 4-deep queue: alone, the replica
        serves 4 rows and the client sees 4 typed sheds; with a sibling,
        the shed half spills there and all 8 are served, with no shed
        and nobody marked down."""
        slo = SLOPolicy(max_queue_depth=4, min_replicas=1, max_replicas=2)
        rows = np.random.default_rng(6).integers(0, 4, size=(8, 3))
        with ClusterServer(
            block_registry,
            policy=BatchPolicy(max_batch=8),
            seed=0,
            maintenance_period_s=None,
        ) as cluster:
            for name, n in (("solo", 1), ("pair", 2)):
                cluster.deploy(Deployment(
                    name, [ReplicaSpec("fefet")] * n, RoutingPolicy("cost"),
                    slo=slo, placement=PlacementSpec(kind="process", workers=1),
                ))
            sent = count_request_frames(cluster)

            outcomes = [f.exception(30) for f in cluster.submit_many("solo", rows)]
            assert len(sent) == 1  # one chunk, one frame
            assert sum(e is None for e in outcomes) == 4
            assert all(
                isinstance(e, Overloaded) for e in outcomes if e is not None
            )
            snap = cluster.stats()
            assert (snap.completed, snap.shed_requests) == (4, 4)

            outcomes = [f.exception(30) for f in cluster.submit_many("pair", rows)]
            assert outcomes == [None] * 8
            snap = cluster.stats()
            assert (snap.completed, snap.shed_requests) == (12, 4)
            assert snap.failovers == 4  # the spilled half, once each
            assert {s.state for s in cluster.status("pair")} == {"healthy"}
            assert balanced(snap)


class _FakeConnection:
    """Collects what a WorkerHost sends, in order."""

    def __init__(self):
        self.sent = queue.Queue()

    def send(self, message):
        if isinstance(message, bytes):
            (message,) = FrameDecoder().feed(message)
        self.sent.put(message)

    def next(self, kind):
        while True:
            message = self.sent.get(timeout=30)
            if message["kind"] == kind:
                return message


class _StubOwner:
    """Row owner that records the settlement calls it receives."""

    def __init__(self):
        self.calls = []

    def claim(self, rows):
        return rows

    def served(self, rows, results, finished):
        self.calls.append(("served", rows))

    def failed(self, rows, exc, ran):
        self.calls.append(("failed", rows))

    def cancel(self, rows):
        self.calls.append(("cancel", rows))


class TestWorkerReplies:
    def test_unencodable_result_is_answered_with_an_error(
        self, registry_root, monkeypatch
    ):
        """A reply too large for one frame still answers its request:
        the worker sends an ``error`` frame for the request id."""
        conn = _FakeConnection()
        host = WorkerHost("w0", conn, {"registry_root": registry_root,
                                       "seed": 0, "max_batch": 64})
        try:
            host._dispatch(make("place", id="c1", placement="p0", host={
                "name": "iris", "version": 1, "index": 0,
                "spec": ReplicaSpec("fefet").to_dict(), "key": "iris@v1#r0",
                "max_queue_depth": None,
            }, canaries=[[0, 1, 2]]))
            assert conn.next("done")["id"] == "c1"
            levels, features = protocol.pack_levels([[0, 1, 2]] * 40)
            host._dispatch(make("request", id="r1", placement="p0",
                                levels=levels, features=features, priority=0))
            reply = conn.next("result")
            assert reply["id"] == "r1" and reply["result"]["errors"] == []
            assert len(reply["result"]["prediction"]) == 40

            monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
            host._dispatch(make("request", id="r2", placement="p0",
                                levels=levels, features=features, priority=0))
            error = conn.next("error")
            assert error["id"] == "r2"
            rebuilt = protocol.decode_error(error["error"])
            assert isinstance(rebuilt, RemoteWorkerError)
            assert rebuilt.exc_type == "ProtocolError"
        finally:
            host.close()

    def test_worker_cancellations_reply_as_cancellations(self, registry_root):
        """Rows a non-draining retire cancels in the worker's queue come
        back typed as cancellations, not as remote failures."""
        conn = _FakeConnection()
        host = WorkerHost("w0", conn, {"registry_root": registry_root,
                                       "seed": 0, "max_batch": 64})
        try:
            host._dispatch(make("place", id="c1", placement="p0", host={
                "name": "iris", "version": 1, "index": 0,
                "spec": ReplicaSpec("fefet").to_dict(), "key": "iris@v1#r0",
                "max_queue_depth": None,
            }))
            assert conn.next("done")["id"] == "c1"
            assert host.hosts["p0"].scheduler.pause(timeout=5)
            levels, features = protocol.pack_levels([[0, 1, 2]] * 3)
            host._dispatch(make("request", id="r1", placement="p0",
                                levels=levels, features=features, priority=0))
            host._dispatch(make("retire", id="c2", placement="p0",
                                drain=False))
            reply = conn.next("result")
            assert reply["id"] == "r1"
            outcomes = protocol.decode_block(reply["result"])
            assert [type(o) for o in outcomes] == [CancelledError] * 3
            assert conn.next("done")["id"] == "c2"
        finally:
            host.close()

    def test_malformed_levels_are_answered_with_an_error(self, registry_root):
        """A ``request`` whose packed levels do not decode gets an
        ``error`` frame for its id, and the worker keeps serving."""
        conn = _FakeConnection()
        host = WorkerHost("w0", conn, {"registry_root": registry_root,
                                       "seed": 0, "max_batch": 64})
        try:
            host._dispatch(make("place", id="c1", placement="p0", host={
                "name": "iris", "version": 1, "index": 0,
                "spec": ReplicaSpec("fefet").to_dict(), "key": "iris@v1#r0",
                "max_queue_depth": None,
            }))
            assert conn.next("done")["id"] == "c1"
            levels, features = protocol.pack_levels([[0, 1, 2]] * 2)
            for i, body in enumerate([
                {"levels": "not base64!", "features": 3},
                {"levels": levels, "features": 4},  # not whole rows
                {"levels": levels, "features": 0},
                {"levels": [[0, 1, 2]] * 2, "features": 3},  # a v5 body
                {"levels": "", "features": 3},  # no rows
            ]):
                assert host._dispatch(make(
                    "request", id=f"bad{i}", placement="p0", priority=0,
                    **body,
                ))
                error = conn.next("error")
                assert error["id"] == f"bad{i}"
                rebuilt = protocol.decode_error(error["error"])
                assert rebuilt.exc_type == "ProtocolError"
            host._dispatch(make("request", id="r1", placement="p0",
                                levels=levels, features=features, priority=0))
            reply = conn.next("result")
            assert reply["id"] == "r1" and reply["result"]["errors"] == []
            assert len(reply["result"]["prediction"]) == 2
        finally:
            host.close()

    def test_second_place_reprograms_the_placed_host(self, registry_root):
        """A ``place`` frame for a placement id the worker already hosts
        programs new hardware into that host (the replace rung): one
        host and one scheduler for ``p0``, a new engine, the same probe
        read (same stream seed)."""
        conn = _FakeConnection()
        host = WorkerHost("w0", conn, {"registry_root": registry_root,
                                       "seed": 0, "max_batch": 64})
        try:
            place = make("place", id="c1", placement="p0", host={
                "name": "iris", "version": 1, "index": 0,
                "spec": ReplicaSpec("fefet").to_dict(), "key": "iris@v1#r0",
                "max_queue_depth": None,
            }, canaries=[[0, 1, 2]])
            host._dispatch(place)
            first = conn.next("done")
            placed = host.hosts["p0"]
            scheduler, engine = placed.scheduler, placed.engine
            host._dispatch(dict(place, id="c2"))
            second = conn.next("done")
            assert second["id"] == "c2"
            assert host.hosts == {"p0": placed}
            assert placed.scheduler is scheduler
            assert placed.engine is not engine
            assert second["result"] == first["result"]
        finally:
            host.close()

    def test_settle_hands_cancelled_rows_to_their_owner(self):
        """The front end settles an entry its worker cancelled with one
        ``cancel`` call, as a local queue's shutdown would."""
        lock = threading.Lock()
        pool = SimpleNamespace(_ids=itertools.count(), _lock=lock,
                               _settled=threading.Condition(lock))
        remote = cluster_module._RemoteHost(pool, None, None, {})
        owner = _StubOwner()
        entry = _Request(
            np.tile([0, 1, 2], (3, 1)), time.monotonic(), 0, owner
        )
        remote.pending = len(entry)
        body = protocol.encode_block(
            "iris@v1#r0",
            {name: [0] * len(entry) for name in protocol.RESULT_COLUMNS},
            [],
            [(0, len(entry), CancelledError())],
        )
        remote._settle(entry, protocol.decode_block(body))
        assert owner.calls == [("cancel", [entry])]
        assert remote.pending == 0

    def test_block_replies_once_under_racing_settlements(self):
        """Segments of one block settled from many threads at once, each
        exactly once: exactly one reply leaves, once every row is in."""
        replies = []

        class Host:
            def _reply(self, block):
                replies.append(
                    (block.settled, len(block.results), len(block.errors))
                )

        n, n_threads = 512, 8
        block = _Block(Host(), "r1", None, n)
        entry = _Request(np.zeros((n, 1), dtype=int), 0.0, 0, block)
        segments = [entry.piece(row, row + 1) for row in range(n)]
        start = threading.Barrier(n_threads)

        def settle(k):
            start.wait(timeout=10)
            for row in range(k, n, n_threads):
                if row % 2:
                    block.served([segments[row]], [("served", row)], 0.0)
                else:
                    block.failed(
                        [segments[row]], RuntimeError("late"), ran=True
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=settle, args=(k,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert replies == [(n, n // 2, n // 2)]


class TestTeardown:
    def test_close_leaves_no_accept_thread(self, registry_root):
        """Closing a listening socket does not wake a thread blocked in
        ``accept()`` on Linux: ``close`` must shut the listener down, or
        every closed cluster leaks its ``cluster-accept`` thread."""
        before = set(threading.enumerate())
        for _ in range(3):
            ClusterServer(
                registry_root, policy=POLICY, maintenance_period_s=None
            ).close()

        def accepting():
            return [
                t for t in set(threading.enumerate()) - before
                if t.name == "cluster-accept"
            ]

        deadline = time.monotonic() + 5.0
        while accepting() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert accepting() == []


class TestSpawnFailure:
    def test_worker_dead_at_bootstrap_fails_the_deploy_fast(
        self, registry_root
    ):
        """A worker that exits before its hello fails the deploy with
        its exit code at once, not after ``SPAWN_TIMEOUT_S``: pointed at
        a loopback port nothing listens on, its connect-back is refused
        at bootstrap."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        with ClusterServer(
            registry_root, policy=POLICY, seed=0, maintenance_period_s=None,
        ) as cluster:
            cluster.pool._address = address
            started = time.monotonic()
            with pytest.raises(DeploymentError,
                               match="worker w0 exited with code 1"):
                cluster.deploy(process_deployment(workers=1))
            assert time.monotonic() - started < 15.0


class TestPlacementGuards:
    def test_febim_server_refuses_process_placement(self, registry_root):
        with FeBiMServer(
            ModelRegistry(registry_root), policy=POLICY, seed=0
        ) as server:
            with pytest.raises(DeploymentError, match="ClusterServer"):
                server.deploy(process_deployment())

    def test_serve_deployment_defaults_to_local(self, registry_root):
        dep = Deployment(
            "iris", [ReplicaSpec("fefet")], RoutingPolicy("cost"),
        )
        with serve_deployment(
            ModelRegistry(registry_root), dep, policy=POLICY, seed=0
        ) as server:
            assert isinstance(server, FeBiMServer)
            result = server.predict("iris", np.array([0, 1, 2]), timeout=10)
            assert result.prediction in (0, 1, 2)

    def test_local_placement_rejects_cluster_kwargs(self, registry_root):
        dep = Deployment(
            "iris", [ReplicaSpec("fefet")], RoutingPolicy("cost"),
        )
        with pytest.raises(TypeError, match="cluster kwargs"):
            serve_deployment(
                ModelRegistry(registry_root), dep, heartbeat_period_s=0.1
            )

    def test_placement_spec_validation(self):
        with pytest.raises(DeploymentError, match="placement"):
            PlacementSpec(kind="cloud").validate()
        with pytest.raises(DeploymentError, match="workers"):
            PlacementSpec(kind="process", workers=0).validate()


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """One two-worker cluster for the worker-hosted ladder tests, over a
    registry holding ``iris`` and ``tenant`` (never deployed); each test
    applies the deployment it needs."""
    root = tmp_path_factory.mktemp("shared-reg")
    registry = ModelRegistry(root)
    registry.register("iris", make_model())
    registry.register("tenant", make_model(seed=4))
    with ClusterServer(
        registry, policy=POLICY, seed=7, maintenance_period_s=None
    ) as cluster:
        yield cluster


def failures(futures):
    return sum(1 for f in futures if f.exception(timeout=30) is not None)


class TestWorkerHostedReplicas:
    """The router's heal ladder, drains and tracing on replicas whose
    engines live in worker processes."""

    ROWS = np.random.default_rng(12).integers(0, 4, size=(8, 3))

    def test_canary_sweep_reads_every_worker_hosted_replica(self, shared):
        shared.deploy(process_deployment(policy=RoutingPolicy("cost")))
        shared.router.max_current_shift = 0.0
        try:
            shared.router.install_canaries("iris", self.ROWS)
            before = shared.stats().health_checks
            reports = shared.router.check_all()
        finally:
            shared.router.max_current_shift = float("inf")
        labels = [s.replica for s in shared.status("iris")]
        assert {r.replica for r in reports} >= set(labels)
        assert all(r.ok for r in reports), reports
        assert {(r.accuracy, r.current_shift) for r in reports} == {(1.0, 0.0)}
        assert shared.stats().health_checks - before == len(reports)

    def test_killed_replica_heals_by_replace_then_evicts(self, shared):
        shared.deploy(process_deployment(policy=RoutingPolicy("cost")))

        def serve_block():
            results = [f.result(30) for f in shared.submit_many("iris", self.ROWS)]
            assert len({r.model for r in results}) == 1  # one chunk, one replica
            return results

        before = serve_block()
        index = int(before[0].model.rsplit("#r", 1)[1])
        shared.router.kill_replica("iris", index, recoverable=True)
        assert failures(shared.submit_many("iris", self.ROWS)) == 0
        reports = {r.replica: r for r in shared.router.check_all()}
        label = shared.status("iris")[index].replica
        assert reports[label].action == "replace" and reports[label].healed
        after = serve_block()
        assert after[0].model == before[0].model
        assert served_stream(after) == served_stream(before)

        shared.router.kill_replica("iris", index)
        assert failures(shared.submit_many("iris", self.ROWS)) == 0
        reports = {r.replica: r for r in shared.router.check_all()}
        assert reports[label].action == "evict"
        assert failures(shared.submit_many("iris", self.ROWS)) == 0
        states = [s.state for s in shared.status("iris")]
        assert states.count("evicted") == 1 and states.count("healthy") == 1

    def test_process_placement_drains_gradually(self, shared):
        """A sticky process deployment retired with ``drain_steps=3``
        keeps serving while it drains and leaves the deployment on the
        third sweep."""
        shared.deploy(process_deployment(policy=RoutingPolicy("sticky")))
        obs = shared.enable_observability(trace_rate=0.0)
        try:
            status = shared.router.retire_replica("iris", 0, drain_steps=3)
            assert status.state == "draining"
            for _ in range(2):
                shared.router.check_all()
                assert [s.state for s in shared.status("iris")] == [
                    "draining", "healthy"]
                futures = [
                    shared.submit("iris", row, client=f"c{i}")
                    for i, row in enumerate(self.ROWS)
                ]
                assert failures(futures) == 0
            shared.router.check_all()
            assert [s.index for s in shared.status("iris")] == [1]
            steps = [
                e.detail.get("step") for e in obs.recorder.events()
                if e.kind == "retire"
            ]
            assert steps == [0, 1, 2, 3]
        finally:
            shared.disable_observability()

    def test_undeployed_model_serves_local_bytes_from_a_worker(
        self, shared
    ):
        rows = np.random.default_rng(13).integers(0, 4, size=(19, 3))
        remote = [f.result(30) for f in shared.submit_many("tenant", rows)]
        dep = shared.router.serving("tenant")
        assert dep.implicit
        # The replica's host is the worker's: no engine up front.
        assert isinstance(dep.replicas[0].host, cluster_module._RemoteHost)
        with FeBiMServer(
            ModelRegistry(shared.registry.root), policy=POLICY, seed=7
        ) as server:
            local = [f.result(10) for f in server.submit_many("tenant", rows)]
        assert served_stream(remote) == served_stream(local)
        assert {r.model for r in remote} == {"tenant@v1"}

    def test_every_traced_row_finishes_once_with_its_outcome(
        self, shared, monkeypatch
    ):
        shared.deploy(process_deployment(policy=RoutingPolicy("round_robin")))
        finishes = {}
        finish = Trace.finish

        def counting(trace, outcome="served", end_s=None):
            finishes[trace.trace_id] = finishes.get(trace.trace_id, 0) + 1
            return finish(trace, outcome, end_s)

        monkeypatch.setattr(Trace, "finish", counting)
        obs = shared.enable_observability(trace_rate=1.0)
        try:
            rows = np.random.default_rng(14).integers(0, 4, size=(20, 3))
            served = shared.submit_many("iris", rows)
            assert failures(served) == 0
            # A chunk no frame can carry fails on both replicas.
            limit = protocol.MAX_FRAME
            monkeypatch.setattr(protocol, "MAX_FRAME", 64)
            doomed = shared.submit_many("iris", rows[:8])
            assert failures(doomed) == 8
            monkeypatch.setattr(protocol, "MAX_FRAME", limit)
            traces = obs.tracer.traces()
        finally:
            shared.disable_observability()
        assert len(traces) == 28
        assert all(t.finished for t in traces)
        assert [t.outcome for t in traces] == ["served"] * 20 + ["failed"] * 8
        assert set(finishes.values()) == {1}
        assert len(finishes) == 28


@pytest.mark.slow
class TestChaos:
    def test_sigkill_mid_burst_zero_errors_and_respawn(self, registry_root):
        """The supervised-failover acceptance scenario, in-suite: kill a
        worker with requests in flight; no client sees an error, the
        dead worker's replicas re-place onto the survivor, and the
        supervisor respawns the process."""
        dep = Deployment(
            "iris",
            [ReplicaSpec("fefet")] * 4,
            RoutingPolicy("cost"),
            placement=PlacementSpec(kind="process", workers=2),
        )
        with ClusterServer(
            registry_root, policy=POLICY, seed=7,
            heartbeat_period_s=0.1, maintenance_period_s=0.1,
        ) as cluster:
            cluster.deploy(dep)
            cluster.enable_observability(trace_rate=0.0)
            rows = np.random.default_rng(3).integers(0, 4, size=(200, 3))
            futures = []
            for i, row in enumerate(rows):
                futures.append(cluster.submit("iris", row))
                if i == 50:
                    cluster.kill_worker(sorted(cluster.worker_pids())[0])
                time.sleep(0.001)
            errors = sum(
                1 for f in futures if f.exception(timeout=30) is not None
            )
            assert errors == 0

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                snap = cluster.stats()
                if (
                    snap.worker_respawns >= 1
                    and len(cluster.worker_pids()) == 2
                ):
                    break
                time.sleep(0.05)
            snap = cluster.stats()
            assert snap.workers_lost == 1
            assert snap.worker_respawns >= 1
            assert len(cluster.worker_pids()) == 2

            kinds = {}
            for event in cluster.observability.recorder.events():
                kinds[event.kind] = kinds.get(event.kind, 0) + 1
            assert kinds.get("worker_lost", 0) == 1
            assert kinds.get("relocate", 0) >= 1
            assert kinds.get("worker_respawn", 0) >= 1
            # A relocation is not a heal-ladder replace.
            assert snap.replacements == kinds.get("replace", 0)

            # The healed cluster still serves.
            after = [
                cluster.submit("iris", row).result(30) for row in rows[:8]
            ]
            assert all(r.prediction in (0, 1, 2) for r in after)
            assert all(
                s.state == "healthy" for s in cluster.status("iris")
            )

    def test_sigkill_under_a_block_resolves_every_row_once(
        self, registry_root
    ):
        """A worker SIGKILLed while a 4 x max_batch ``submit_many`` is
        in flight: its orphaned chunks fail over whole, and every row
        resolves exactly once, with zero errors."""
        dep = Deployment(
            "iris",
            [ReplicaSpec("fefet")] * 4,
            RoutingPolicy("round_robin"),
            placement=PlacementSpec(kind="process", workers=2),
        )
        with ClusterServer(
            registry_root, policy=POLICY, seed=7,
            heartbeat_period_s=0.1, maintenance_period_s=0.1,
        ) as cluster:
            cluster.deploy(dep)
            rows = np.random.default_rng(8).integers(
                0, 4, size=(4 * POLICY.max_batch, 3)
            )
            handles = cluster.submit_many("iris", rows)
            resolved = [0] * len(rows)
            lock = threading.Lock()

            def count(handle):
                with lock:
                    resolved[handles.index(handle)] += 1

            for handle in handles:
                handle.add_done_callback(count)
            cluster.kill_worker("w0")
            errors = [h.exception(timeout=30) for h in handles]
            assert errors == [None] * len(rows)
            assert resolved == [1] * len(rows)
            snap = cluster.stats()
            assert snap.completed == len(rows)
            assert balanced(snap)
