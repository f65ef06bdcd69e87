"""Paired benchmark runs of a parent revision against the working tree.

Usage (from the repository root)::

    python scripts/pairs.py --parent HEAD~1 --workload iris-bulk --pairs 10

Exports ``--parent``'s committed files with ``git archive`` into a
fresh temporary directory (as the benchmark runs a commit; nothing is
written into the repository's ``.git``) and runs ``perfbench/run.py``
on it and on the working tree, ``--pairs`` times each.  Pair ``i``
runs both sides with seed ``i`` (from 1) for ``BENCHMARK.json``'s
``run_seconds``, and the side that runs first alternates from pair to
pair, so a drift in host speed lands on both sides alike.  Each side
writes its records to a fresh ``perfbench/results`` (the working
tree's old one is moved aside to a stamped
``perfbench/results.<time>``).  The run ends with a table of pairwise
wins per end-to-end metric and ``perfbench/run.py --compare``, and the
export is removed.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """Write ``rev``'s committed files into the directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True,
    )
    if archive.returncode:
        sys.exit(f"pairs: git archive {rev} failed:\n"
                 f"{archive.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result object (its
    log is shown only when the run fails)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"pairs: perfbench/run.py failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartile_distance(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(spec: dict, parent: list, change: list) -> None:
    """Pairwise wins, medians and the parent's quartile distance of
    every end-to-end metric."""
    print(f"{'metric':16s} {'wins':>6s} {'parent':>12s} {'change':>12s} "
          f"{'parent IQR':>11s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        print(f"{name:16s} {wins:3d}/{len(a):<2d} {statistics.median(a):12.5g} "
              f"{statistics.median(b):12.5g} {quartile_distance(a):11.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    parent_tree = Path(tempfile.mkdtemp(prefix="pairs-parent-"))
    try:
        export(args.parent, parent_tree)
        results = ROOT / "perfbench" / "results"
        if results.exists():
            aside = results.with_name(
                "results." + time.strftime("%Y%m%dT%H%M%S"))
            results.rename(aside)
            print(f"pairs: moved the old perfbench/results to {aside}")
        sides = {"parent": parent_tree, "change": ROOT}
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                               "parent")
            for side in order:
                result = run_side(sides[side], args.workload, seed, seconds)
                runs[side].append(result)
                metrics = " ".join(
                    f"{name}={m['value']:.4g}"
                    for name, m in result["metrics"].items()
                )
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side:6s} "
                      f"{'ok' if result['correct'] else 'WRONG'} {metrics}",
                      flush=True)
        summarise(spec, runs["parent"], runs["change"])
        sys.stdout.flush()
        compared = subprocess.run(
            [sys.executable, "perfbench/run.py", "--compare",
             str(parent_tree / "perfbench" / "results")],
            cwd=ROOT,
        )
        return compared.returncode
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
