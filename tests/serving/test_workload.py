"""The scenario runner: one spec, one result, checked invariants."""

import dataclasses
import json
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.cli import main
from repro.core import quantize_model
from repro.io import save_deployment
from repro.serving import (
    BatchPolicy,
    Deployment,
    FeBiMServer,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving import workload
from repro.serving.workload import (
    Fault,
    InvariantViolation,
    Scenario,
    run_scenario,
    spike,
)


def make_model(k=3, m=4, seed=1):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("scenario-reg"))
    registry.register("iris", make_model())
    return registry


def scenario(*backends, kind="round_robin", **kwargs):
    kwargs.setdefault("n_requests", 48)
    return Scenario(
        deployment=Deployment(
            "iris",
            [ReplicaSpec(b) for b in backends or ("ideal", "cmos")],
            RoutingPolicy(kind),
        ),
        submitters=2,
        policy=BatchPolicy(max_batch=8),
        **kwargs,
    )


class TestRunner:
    def test_each_row_verifies_against_its_replicas_engine(self, registry):
        result = run_scenario(scenario("ideal", "cmos", "fefet"), registry)
        assert result.ok == result.matched == 48
        assert result.errors == 0
        assert result.bench == "deployment"
        assert sum(result.telemetry.per_replica.values()) == 48
        json.dumps(result.to_dict())

    def test_faults_fire_in_timeline_order(self, registry):
        """The timeline is sorted by request index, whatever order the
        spec lists it in, and a recoverable kill heals on the sweep."""
        faults = (
            Fault("retire_replica", at=40, replica=1),
            Fault("kill_replica", at=10, replica=0, recoverable=True),
            Fault("sweep", at=20),
        )
        result = run_scenario(
            scenario("ideal", "cmos", "ideal", n_requests=64, faults=faults),
            registry,
        )
        assert [f["kind"] for f in result.faults] == [
            "kill_replica", "sweep", "retire_replica",
        ]
        assert all("refused" not in f for f in result.faults)
        assert result.errors == 0
        assert [r["index"] for r in result.replicas] == [0, 2]
        assert {r["state"] for r in result.replicas} == {"healthy"}

    def test_refused_submits_are_counted_apart(self, registry):
        """Once a sweep evicts the only replica, every later submit
        raises: each is tallied as refused and the submitter carries on,
        so the server's books still balance."""
        result = run_scenario(
            scenario(
                "ideal", kind="cost", n_requests=32,
                faults=(Fault("kill_replica", at=8), Fault("sweep", at=12)),
            ),
            registry,
        )
        assert result.refused == 20
        assert result.ok + result.failed == 12
        assert result.telemetry.submitted == 12
        assert result.telemetry.replica_evictions == 1

    def test_a_refused_fault_is_recorded(self, registry):
        result = run_scenario(
            scenario("ideal", faults=(Fault("retire_replica", at=4),)),
            registry,
        )
        assert "last serviceable" in result.faults[0]["refused"]
        assert result.errors == 0

    def test_spike_runs_open_loop(self):
        result = run_scenario(spike(duration_s=0.6))
        assert result.n_requests > 0
        assert result.failed == result.refused == 0
        assert result.ok + result.shed == result.n_requests
        assert result.matched == result.ok
        assert result.final_replicas == 1

    def test_scenario_validation(self):
        local = Deployment("iris", [ReplicaSpec("ideal")])
        with pytest.raises(ValueError, match="process placement"):
            Scenario(
                deployment=local, maintenance_s=0.1,
                faults=(Fault("kill_worker"),),
            )
        with pytest.raises(ValueError, match="needs a deployment"):
            Scenario(faults=(Fault("sweep"),))
        with pytest.raises(ValueError, match="unknown fault"):
            Fault("meteor")
        with pytest.raises(ValueError, match="n_requests"):
            Scenario(n_requests=0)

    def test_unregistered_deployment_model(self, registry):
        spec = Deployment("ghost", [ReplicaSpec("ideal")])
        with pytest.raises(KeyError, match="ghost"):
            run_scenario(Scenario(deployment=spec), registry)


class TestInvariants:
    """Each invariant, broken on purpose, is named by the runner."""

    def broken(self, monkeypatch, registry, server_class):
        monkeypatch.setattr(workload, "FeBiMServer", server_class)
        with pytest.raises(InvariantViolation) as info:
            run_scenario(scenario(n_requests=16), registry)
        return info.value

    def test_a_pending_future(self, monkeypatch, registry):
        monkeypatch.setattr(workload, "SETTLE_TIMEOUT_S", 0.05)
        lock = threading.Lock()
        calls = []

        class Server(FeBiMServer):
            def submit(self, *args, **kwargs):
                with lock:
                    calls.append(1)
                    first = len(calls) == 1
                if first:
                    return Future()  # accepted, never resolved
                return super().submit(*args, **kwargs)

        error = self.broken(monkeypatch, registry, Server)
        assert [b.split(":")[0] for b in error.broken] == ["futures"]

    def test_books_off_by_one(self, monkeypatch, registry):
        class Server(FeBiMServer):
            def stats(self):
                snapshot = super().stats()
                return dataclasses.replace(
                    snapshot, completed=snapshot.completed + 1
                )

        assert "books:" in str(self.broken(monkeypatch, registry, Server))

    def test_a_phantom_queued_row(self, monkeypatch, registry):
        class Server(FeBiMServer):
            def stats(self):
                return dataclasses.replace(super().stats(), lane_depth={0: 1})

        error = self.broken(monkeypatch, registry, Server)
        assert [b.split(":")[0] for b in error.broken] == ["queues"]

    def test_a_scale_up_without_a_decision(self, monkeypatch, registry):
        class Server(FeBiMServer):
            def drain(self, timeout=None):
                self.telemetry.emit("scale_up", model="iris", replica="r9")
                return super().drain(timeout)

        error = self.broken(monkeypatch, registry, Server)
        assert [b.split(":")[0] for b in error.broken] == ["flight"]

    def test_a_leaked_thread(self, monkeypatch, registry):
        monkeypatch.setattr(workload, "LEAK_TIMEOUT_S", 0.05)
        release = threading.Event()

        class Server(FeBiMServer):
            def close(self, *args, **kwargs):
                super().close(*args, **kwargs)
                threading.Thread(
                    target=release.wait, name="straggler", daemon=True
                ).start()

        try:
            error = self.broken(monkeypatch, registry, Server)
        finally:
            release.set()
        assert [b.split(":")[0] for b in error.broken] == ["leaks"]
        assert "straggler" in str(error)


class TestServeCommand:
    @pytest.fixture()
    def spec(self, tmp_path, registry):
        return str(save_deployment(
            tmp_path / "spec.json",
            Deployment("iris", [ReplicaSpec("fefet")] * 2, RoutingPolicy("cost")),
        ))

    def test_kill_worker_needs_process_placement(self, capsys, spec, registry):
        args = ["serve", "--deployment", spec, "--registry",
                str(registry.root), "--kill-worker"]
        assert main(args) == 2
        assert "process placement" in capsys.readouterr().err

    def test_workers_need_a_deployment(self, capsys):
        assert main(["serve", "--workers", "2"]) == 2
        assert "--deployment" in capsys.readouterr().err

    def test_deployment_takes_tracing_and_metrics(
        self, capsys, tmp_path, spec, registry
    ):
        metrics = tmp_path / "metrics.jsonl"
        args = ["serve", "--deployment", spec, "--registry",
                str(registry.root), "--requests", "32", "--trace-rate", "0.5",
                "--metrics-out", str(metrics), "--json"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert data["bench"] == "deployment" and data["matched"] == 32
        assert data["traces"]
        assert len(metrics.read_text().splitlines()) >= 2

    @pytest.mark.slow
    def test_kill_worker_story(self, capsys, spec, registry):
        args = ["serve", "--deployment", spec, "--registry",
                str(registry.root), "--workers", "2", "--kill-worker",
                "--requests", "128", "--max-batch", "8"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "chaos: SIGKILL w0 mid-burst" in out
        assert "2/2 workers up after" in out
