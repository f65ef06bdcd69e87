"""Layer-ledger benchmark for the FeBiM serving stack.

Run from the root of a checkout (the package is imported from
``src/``)::

    python3 perfbench/run.py --workload iris-bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload iris-bulk --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --compare OLD_RESULTS

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` runs it with tracing switched on and
off from block to block (for the tracing overhead), then probes every
layer on the workload's model and prints the per-layer metrics and the
layer ledger.  The last line of standard output is always one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run also appends a record (metrics, checks, environment stamp) to
``perfbench/results/<workload>.jsonl``; a traced run writes its spans to
``perfbench/results/spans-<workload>-<seed>.json``.  ``--compare``
compares such records with the ones in ``perfbench/results`` and prints
each end-to-end metric's ratio to the old median, marked better /
within bound / worse / unresolved.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to measure
    an installed copy instead of the checkout's own sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro package under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _ordered(metrics: dict, specs: list) -> dict:
    """Exactly the declared metrics, in declaration order, with units."""
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in specs}


def run_once(workload_name: str, seed: int, seconds: float, trace: bool,
             sizes=None, out_dir: Path = RESULTS, log=sys.stderr) -> dict:
    """One benchmark run; returns the result object (and records it)."""
    from harness import HostSpeed, Spans, environment, format_self_times
    from layers import format_ledger, probe_layers
    from workloads import DEFAULT, WORKLOADS, Tally

    run_workload = WORKLOADS[workload_name]
    sizes = sizes or DEFAULT
    spec = benchmark_spec()
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment()}
    if not trace:
        with HostSpeed() as host:
            outcome = run_workload(seed, seconds, sizes, Spans(False), scratch,
                                   host)
        tally = outcome.tally
        metrics = _ordered(outcome.metrics, spec["end_to_end"])
        record["detail"] = outcome.detail
    else:
        # One stack, tracing switched off and on from block to block:
        # the overhead compares each traced block with its untraced
        # neighbours (harness.paired_overhead).
        main_spans = Spans(True, alternate=True)
        with HostSpeed() as host:
            traced = run_workload(seed, seconds * 0.5,
                                  replace(sizes, setups=1, cluster_setups=1),
                                  main_spans, scratch, host)
        probe_spans = Spans(True)
        tally = Tally()
        layer_metrics, ledger = probe_layers(seed, sizes, probe_spans, scratch,
                                             tally)
        tally.absorb(traced.tally)
        detail = traced.detail.get("closed_loop", traced.detail)
        layer_metrics["trace.overhead_pct"] = detail["trace_overhead_pct"]
        metrics = _ordered(layer_metrics, spec["per_layer"])
        spans_path = out_dir / f"spans-{workload_name}-{seed}.json"
        main_spans.dump(spans_path.with_suffix(".main.json"))
        probe_spans.dump(spans_path)
        record["ledger"] = ledger
        record["self_times"] = probe_spans.self_times()
        print("layer ledger (same rows through each boundary):", file=log)
        print(format_ledger(ledger), file=log)
        record["main_self_times"] = main_spans.self_times()
        for what, key in (("workload", "main_self_times"),
                          ("layer probes", "self_times")):
            print(f"self time per span ({what}):", file=log)
            print(format_self_times(record[key]), file=log)
        print(f"spans: {spans_path}", file=log)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result)
    record["notes"] = tally.notes
    with open(out_dir / f"{workload_name}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for note in tally.notes:
        print(f"check failed: {note}", file=log)
    for name, metric in metrics.items():
        print(f"{workload_name:15s} {name:38s} {metric['value']:14.6g} "
              f"{metric['unit']}", file=log)
    return result


# ------------------------------------------------------------------ compare
#: Runs each side needs before ``--compare`` gives a verdict.
MIN_RUNS = 10


def _load_records(path: Path) -> list:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r.get("trace")]


def compare(old_path: Path, new_path: Path = RESULTS) -> int:
    """Per workload, each end-to-end metric's new/old median ratio.

    A verdict needs :data:`MIN_RUNS` runs on each side, all of the same
    length; fewer runs give ``unresolved``, mixed lengths are refused."""
    from harness import quartile_spread

    spec = benchmark_spec()
    old, new = _load_records(old_path), _load_records(new_path)
    lengths = {r["seconds"] for r in old + new}
    if len(lengths) > 1:
        print(f"refusing to compare runs of different lengths: "
              f"{sorted(lengths)} s", file=sys.stderr)
        return 1
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    if not workloads:
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    print(f"{'workload':15s} {'metric':16s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'spread o/n':>11s}  verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in old if r["workload"] == name]
            b = [r["metrics"][key]["value"] for r in new if r["workload"] == name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("inf")
            sign = 1.0 if metric["better"] == "higher" else -1.0
            gain = sign * (ratio - 1.0)  # > 0 means the new median is better
            sa, sb = quartile_spread(a), quartile_spread(b)
            if min(len(a), len(b)) < MIN_RUNS or max(sa, sb) > bound:
                verdict = "unresolved"
            elif all(sign * (y - x) > 0 for x in a for y in b):
                verdict = "better"
            elif gain < -bound:
                verdict = "worse"
            elif gain > sa:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{name:15s} {key:16s} {ma:12.5g} {mb:12.5g} {ratio:8.3f} "
                  f"{sa:5.3f}/{sb:5.3f}  {verdict} "
                  f"(n={len(a)}/{len(b)}, bound {bound})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="OLD", type=Path,
                        help="result file or directory to compare "
                             "perfbench/results against")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(args.compare)
    _import_package()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    from harness import stop_child_processes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    finally:
        stop_child_processes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
