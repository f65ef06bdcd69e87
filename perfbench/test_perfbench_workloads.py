"""Self-tests of the benchmark at tiny sizes.

Each workload runs for a fraction of a second: the point is that every
declared metric is emitted with its unit, that the seed drives the
inputs and nothing else, and that a wrong answer is caught — not the
numbers themselves.  The tests that spawn a worker process are marked
``slow``: the repo's tier-1 run skips them, ``pytest perfbench`` runs
them all.
"""

import dataclasses
import json

import numpy as np
import pytest

import run

run._import_package()

from repro.core.engine import FeBiMEngine  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = run.benchmark_spec()


def tiny_run(workload, tmp_path, seed=0, trace=False):
    return run.run_once(workload, seed, 0.4, trace, sizes=TINY,
                        out_dir=tmp_path)


def assert_declared(result, declared):
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert np.isfinite(metric["value"]), m["name"]


@pytest.mark.parametrize("workload", [
    "iris-bulk", "iris-offline",
    pytest.param("cluster-bulk", marks=pytest.mark.slow),
])
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload, tmp_path):
    result = tiny_run(workload, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert_declared(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    record = json.loads((tmp_path / f"{workload}.jsonl").read_text())
    assert record["env"]["numpy"] == np.__version__
    assert record["env"]["nproc"] >= 1


def test_workloads_are_all_tested():
    assert sorted(WORKLOADS) == ["cluster-bulk", "iris-bulk", "iris-offline"]


@pytest.mark.slow
def test_traced_run_emits_every_per_layer_metric(tmp_path):
    result = tiny_run("iris-bulk", tmp_path, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert_declared(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["kernels.gemm.parity"] == 1.0
    assert metrics["scheduler.attempts_per_request"] == 1.0
    spans = json.loads((tmp_path / "spans-iris-bulk-0.json").read_text())
    names = {s["name"] for s in spans["spans"]}
    assert {"server.submit_many", "cluster.resolve",
            "backend.wordline_currents_batch"} <= names
    record = json.loads((tmp_path / "iris-bulk.jsonl").read_text())
    assert [row["layer"] for row in record["ledger"]] == [
        "engine b256", "scheduler", "legacy server", "router", "cluster"]


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    first = tiny_run("iris-offline", tmp_path, seed=1)
    second = tiny_run("iris-offline", tmp_path, seed=2)
    again = tiny_run("iris-offline", tmp_path, seed=1)
    assert list(first["metrics"]) == list(second["metrics"])
    # The model is fixed; the seed only picks the traffic, so the
    # modelled cost averaged over the seeded rows moves with it ...
    delay = [r["metrics"]["sim_delay_ps"]["value"]
             for r in (first, second, again)]
    assert delay[0] != delay[1] and delay[0] == delay[2]
    # ... while the model's own held-out accuracy does not.
    accuracy = {r["metrics"]["accuracy"]["value"] for r in (first, second)}
    assert len(accuracy) == 1


@pytest.mark.parametrize("workload", ["iris-bulk", "iris-offline"])
def test_corrupted_prediction_is_caught(workload, tmp_path, monkeypatch):
    honest = FeBiMEngine.infer_batch

    def corrupt(self, levels):
        report = honest(self, levels)
        wrong = report.predictions.copy()
        wrong[0] = self.model.classes[
            (np.searchsorted(self.model.classes, wrong[0]) + 1)
            % len(self.model.classes)
        ]
        return dataclasses.replace(report, predictions=wrong)

    monkeypatch.setattr(FeBiMEngine, "infer_batch", corrupt)
    result = tiny_run(workload, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def _records(path, values, seconds=20.0):
    with open(path, "w") as fh:
        for v in values:
            metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            fh.write(json.dumps({"workload": "iris-bulk", "trace": 0,
                                 "seconds": seconds,
                                 "metrics": metrics}) + "\n")


def _verdicts(capsys):
    lines = capsys.readouterr().out.splitlines()[1:]
    return {line.split()[1]: line for line in lines}


def test_compare_marks_each_metric(tmp_path, capsys):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    _records(old, [100.0 + 0.1 * i for i in range(run.MIN_RUNS)])
    _records(new, [150.0 + 0.1 * i for i in range(run.MIN_RUNS)])
    assert run.compare(old, new) == 0
    verdicts = _verdicts(capsys)
    # Every new run beats every old run on a higher-is-better metric,
    # and loses on every lower-is-better one by far more than its bound.
    assert "better" in verdicts["throughput_sps"]
    assert "worse" in verdicts["p50_ms"]
    # Each ratio is printed with its base: both medians.
    assert "100.45" in verdicts["setup_s"] and "150.45" in verdicts["setup_s"]


def test_compare_needs_enough_runs_of_one_length(tmp_path, capsys):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    _records(old, [100.0, 101.0])
    _records(new, [150.0, 151.0])
    assert run.compare(old, new) == 0
    assert all("unresolved" in line for line in _verdicts(capsys).values())
    _records(new, [150.0] * run.MIN_RUNS, seconds=10.0)
    assert run.compare(old, new) == 1
