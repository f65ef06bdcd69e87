"""Paired benchmark runs of a parent revision against the working tree.

Usage (from the repository root)::

    python scripts/pairs.py --parent HEAD~1 --workload iris-bulk --pairs 10

Exports ``--parent``'s committed files with ``git archive`` into a
fresh temporary directory (as the benchmark runs a commit; nothing is
written into the repository's ``.git``) and runs ``perfbench/run.py``
on it and on the working tree, ``--pairs`` times each.  Pair ``i``
runs both sides with seed ``--first-seed + i`` (from ``--first-seed``,
default 1, so acceptance pairs can use seeds the development pairs did
not) for ``BENCHMARK.json``'s ``run_seconds``, and the side that runs
first alternates from pair to pair, so a drift in host speed lands on
both sides alike.  Each side writes its records to a fresh
``perfbench/results`` (the working tree's old one is moved aside to a
stamped ``perfbench/results.<time>``).  The run ends with a table per
end-to-end metric and ``perfbench/run.py --compare``, and the export is
removed.  The table gives the pairwise wins, both medians and the
parent's quartile distance (IQR), whether the gain rule holds (the
change wins at least 9 in 10 pairs and its median beats the parent's by
more than the parent's IQR), and whether the change is worse than the
metric's ``BENCHMARK.json`` bound (its median worse than the parent's
by more than that fraction).
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
    """Pairwise wins, medians, the parent's quartile distance, the gain
    rule and the bound check of every end-to-end metric."""
    print(f"{'metric':16s} {'wins':>6s} {'parent':>12s} {'change':>12s} "
          f"{'parent IQR':>11s} {'gain rule':>10s} {'vs bound':>9s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ma, mb, iqr = statistics.median(a), statistics.median(b), \
            quartile_distance(a)
        gain = wins * 10 >= 9 * len(a) and sign * (mb - ma) > iqr
        ratio = mb / ma if ma else float("inf")
        worse = sign * (ratio - 1.0) < -metric["bound"]
        print(f"{name:16s} {wins:3d}/{len(a):<2d} {ma:12.5g} {mb:12.5g} "
              f"{iqr:11.4g} {'holds' if gain else 'no':>10s} "
              f"{'WORSE' if worse else 'ok':>9s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
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
            seed = args.first_seed + i
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
