"""The febim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "iris" and args.qf == 4 and args.ql == 2

    def test_train_custom(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "wine", "--qf", "3", "--ql", "4"]
        )
        assert args.dataset == "wine" and args.qf == 3 and args.ql == 4

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "mnist"])

    def test_eval_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.max_batch == 64 and not hasattr(args, "max_wait_ms")
        assert args.models == 2 and not args.json

    def test_flush_timer_flags_are_gone(self):
        for argv in (["serve"], ["submit", "reg", "model", "--levels", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--max-wait-ms", "2"])

    def test_submit_requires_levels(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "reg", "model"])

    def test_deploy_requires_registry_and_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy", "reg"])


def _register_iris(registry_root, name="iris"):
    from repro.core.pipeline import FeBiMPipeline
    from repro.datasets import load_dataset, train_test_split
    from repro.serving.registry import ModelRegistry

    data = load_dataset("iris")
    X_tr, _, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    registry = ModelRegistry(registry_root)
    FeBiMPipeline(seed=0).fit(X_tr, y_tr).register_into(registry, name)


def _write_spec(path, replicas=("ideal", "cmos"), kind="round_robin"):
    from repro.io import save_deployment
    from repro.serving import Deployment, ReplicaSpec, RoutingPolicy

    return str(
        save_deployment(
            path,
            Deployment(
                "iris",
                [ReplicaSpec(b) for b in replicas],
                RoutingPolicy(kind),
            ),
        )
    )


class TestDeployCommands:
    def test_deploy_dry_run_and_validate(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        _register_iris(registry)
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["deploy", registry, spec, "--validate-only"]) == 0
        assert "spec OK" in capsys.readouterr().out
        assert main(["deploy", registry, spec, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert [r["backend"] for r in data["replicas"]] == ["ideal", "cmos"]
        assert all(r["state"] == "healthy" for r in data["replicas"])

    def test_deploy_unknown_model_fails_cleanly(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["deploy", registry, spec]) == 2
        assert "not in the registry" in capsys.readouterr().err

    def test_deploy_invalid_spec_fails_cleanly(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        _register_iris(registry)
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "iris"}')
        assert main(["deploy", registry, str(bad)]) == 2
        assert "invalid deployment spec" in capsys.readouterr().err

    def test_serve_deployment_workload(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        _register_iris(registry)
        spec = _write_spec(tmp_path / "spec.json")
        args = [
            "serve",
            "--deployment",
            spec,
            "--registry",
            registry,
            "--requests",
            "64",
            "--submitters",
            "2",
            "--max-batch",
            "16",
        ]
        assert main(args + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "deployment"
        assert data["errors"] == 0
        assert data["telemetry"]["completed"] == 64
        per_replica = data["telemetry"]["per_replica"]
        assert sum(per_replica.values()) == 64 and len(per_replica) == 2

    def test_serve_deployment_needs_registry(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["serve", "--deployment", spec]) == 2
        assert "--registry" in capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "0.076" in out and "pulse counts" in out

    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "26.32" in out and "10.7" in out

    def test_train_and_eval_roundtrip(self, capsys, tmp_path):
        artifact = tmp_path / "iris.json"
        assert main(["train", "--save", str(artifact), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "crossbar: 3 x 64" in out
        assert artifact.exists()

        assert main(["eval", str(artifact), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "hardware accuracy" in out

    def test_train_with_variation(self, capsys):
        assert main(["train", "--sigma-vth-mv", "30", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "accuracy [hardware ]" in out

    def test_bench_json(self, capsys):
        assert main(
            [
                "bench",
                "--batch-sizes",
                "1,8",
                "--repeats",
                "1",
                "--no-baseline",
                "--json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "throughput"
        assert [p["batch_size"] for p in data["points"]] == [1, 8]
        assert all(p["batch_sps"] > 0 for p in data["points"])


class TestServingCommands:
    def test_serve_report_and_json(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        args = [
            "serve",
            "--requests",
            "96",
            "--submitters",
            "2",
            "--max-batch",
            "16",
            "--registry",
            registry,
            "--seed",
            "3",
        ]
        assert main(args + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "serving workload" in out and "drain clean: True" in out

        assert main(args + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bench"] == "serving"
        assert data["n_requests"] == 96
        assert data["matched"] == 96
        assert data["telemetry"]["completed"] == 96

    def test_submit_round_trip(self, capsys, tmp_path):
        registry = str(tmp_path / "reg")
        assert main(
            [
                "serve",
                "--requests",
                "32",
                "--registry",
                registry,
                "--seed",
                "1",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "submit",
                registry,
                "iris-a",
                "--levels",
                "3,0,1,2",
                "--json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "iris-a@v1"
        assert data["batch_size"] >= 1
        assert data["delay_s"] > 0

    def test_submit_unknown_model_fails_cleanly(self, capsys, tmp_path):
        registry = str(tmp_path / "empty")
        assert main(["submit", registry, "ghost", "--levels", "1,2"]) == 2
        assert "no model 'ghost'" in capsys.readouterr().err

    def test_submit_bad_levels_rejected(self, capsys, tmp_path):
        assert (
            main(["submit", str(tmp_path), "m", "--levels", "a,b"]) == 2
        )
        assert "--levels" in capsys.readouterr().err

    def test_reliability_fault_sweep(self, capsys):
        assert (
            main(
                [
                    "reliability",
                    "--rates",
                    "0,0.05",
                    "--trials",
                    "2",
                    "--workers",
                    "2",
                    "--mitigation",
                    "spare-rows",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reliability campaign on iris" in out
        assert "rate=0.05" in out

    def test_reliability_aging_json(self, capsys):
        assert (
            main(
                [
                    "reliability",
                    "--ages",
                    "0,1e4,1e8",
                    "--drift-rate-mv",
                    "50",
                    "--trials",
                    "2",
                    "--mitigation",
                    "refresh",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "reliability"
        assert payload["mitigation"] == "refresh"
        assert payload["time_to_refresh_s"] == 1e4
        assert len(payload["curve"]) == 3

    def test_reliability_bad_rates_rejected(self, capsys):
        assert main(["reliability", "--rates", "0,2.0", "--trials", "1"]) == 2
        assert "--rates" in capsys.readouterr().err

    def test_reliability_unparseable_rates_rejected(self, capsys):
        assert main(["reliability", "--rates", "a,b", "--trials", "1"]) == 2
        assert "--rates" in capsys.readouterr().err

    def test_reliability_bad_workers_rejected(self, capsys):
        assert main(["reliability", "--workers", "0", "--trials", "1"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_reliability_retire_tiles_needs_max_rows(self, capsys):
        assert (
            main(
                [
                    "reliability",
                    "--trials",
                    "1",
                    "--mitigation",
                    "retire-tiles",
                ]
            )
            == 2
        )
        assert "max_rows" in capsys.readouterr().err


#: A bad value on each command that used to escape as a ``ValueError``
#: traceback (exit 1), and the name its message must carry.
BAD_VALUES = [
    (["events", "--rate", "2"], "sample_rate"),
    (["events", "--spike-factor", "0.5"], "spike_factor"),
    (["trace", "--requests", "0"], "n_requests"),
    (["trace", "--models", "0"], "n_models"),
    (["trace", "--submitters", "0"], "submitters"),
    (["serve", "--max-batch", "0"], "max_batch"),
    (["submit", "REG", "iris", "--levels", "1,2,3,0", "--max-batch", "0"],
     "max_batch"),
    (["bench", "--repeats", "0", "--no-baseline"], "repeats"),
    (["train", "--qf", "0"], "q_f"),
    (["report", "--epochs", "0", "--fast"], "epochs"),
]


@pytest.mark.parametrize(
    "argv, name", BAD_VALUES, ids=[" ".join(argv) for argv, _ in BAD_VALUES]
)
def test_bad_value_is_a_usage_error(capsys, tmp_path, argv, name):
    """Message on stderr naming the value, exit 2, no traceback."""
    if "REG" in argv:
        _register_iris(tmp_path)
        argv = [str(tmp_path) if arg == "REG" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err, err
