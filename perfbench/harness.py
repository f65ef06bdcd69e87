"""Measurement plumbing shared by every workload.

* :class:`Spans` — the benchmark-side tracer.  Each call the benchmark
  makes into a layer's public function can be wrapped in
  ``with spans.span("layer.function", rows=n):``.  A span records its
  name, start, end, parent and attributes in memory; nothing is written
  until :meth:`Spans.dump` at the end of the run.  With tracing off the
  context manager records nothing.
* :class:`HostSpeed` — the host-speed reference every host time is
  normalised by (see its docstring);
* percentile / spread helpers used for the reported latencies;
* :func:`environment` — the provenance stamp every result carries.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class Spans:
    """In-memory span recorder (name, start, end, parent, attributes).

    Parents are tracked per thread: a span opened while another span of
    the same thread is open becomes its child.  Times are
    ``time.perf_counter()`` readings in seconds.

    With ``alternate=True`` the workload loops call :meth:`next_block`
    before each measured block, which switches recording off and on
    from block to block, so one run on one stack yields traced and
    untraced blocks side by side (the tracing overhead).
    """

    def __init__(self, enabled: bool, alternate: bool = False):
        self.enabled = bool(enabled)
        self.alternate = alternate
        self.records: List[dict] = []
        self._blocks = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def next_block(self) -> bool:
        """Whether the next measured block is traced (odd blocks are,
        in alternating mode)."""
        if self.alternate:
            self.enabled = self._blocks % 2 == 1
            self._blocks += 1
        return self.enabled

    @contextmanager
    def span(self, name: str, **attributes):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "id": None,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attributes,
        }
        with self._lock:
            record["id"] = len(self.records)
            self.records.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, **attributes) -> None:
        """Record an already-timed span with no parent (e.g. a request
        whose end is observed on another thread)."""
        if not self.enabled:
            return
        with self._lock:
            self.records.append({
                "id": len(self.records), "name": name, "parent": None,
                "start": start, "end": end, "attrs": attributes,
            })

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (seconds)."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def rows(self, name: str) -> int:
        return sum(int(r["attrs"].get("rows", 1)) for r in self.records
                   if r["name"] == name)

    def durations(self, name: str) -> np.ndarray:
        return np.array([r["end"] - r["start"] for r in self.records
                         if r["name"] == name])

    def us_per_row(self, name: str) -> float:
        return self.total(name) / max(self.rows(name), 1) * 1e6

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total and self time in seconds.

        Self time is a span's duration minus the part of it covered by
        its children (children of one parent run on the parent's thread
        and never overlap, so their durations add up)."""
        child_time: Dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = (
                    child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
                )
        table: Dict[str, dict] = {}
        for r in self.records:
            duration = r["end"] - r["start"]
            row = table.setdefault(r["name"], {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(r["id"], 0.0)
        return table

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.records, "self_times": self.self_times()},
                      fh)
            fh.write("\n")


def format_self_times(table: Dict[str, dict]) -> str:
    lines = [f"{'span':<36} {'count':>7} {'total ms':>10} {'self ms':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<36} {row['count']:7d} {row['total_s'] * 1e3:10.2f} "
                     f"{row['self_s'] * 1e3:10.2f}")
    return "\n".join(lines)


def paired_overhead(block_s: Sequence[float],
                    traced: Sequence[bool]) -> Optional[float]:
    """Tracing overhead in percent: the median ratio of each traced
    block's time to the mean of the untraced blocks either side of it
    (None when there is no such block).  Comparing neighbours cancels
    the host's drift over the run."""
    ratios = [2.0 * block_s[i] / (block_s[i - 1] + block_s[i + 1])
              for i in range(1, len(block_s) - 1)
              if traced[i] and not traced[i - 1] and not traced[i + 1]]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else None


#: Runs in a child process: one sample of the host's speed is the time
#: of a fixed mix of interpreter work and small numpy calls, the same
#: kind of work that dominates every workload.
_CALIBRATION = r"""
import sys, time
import numpy as np
a = np.random.default_rng(0).random((256, 64))
def sample():
    t0 = time.perf_counter()
    for _ in range(200):
        np.count_nonzero(a > 0.5, axis=1)
        d = {i: [i] for i in range(20)}
        sorted(d, key=lambda k: -k)
    return time.perf_counter() - t0
for _ in sys.stdin:
    sys.stdout.write(repr(sample()) + "\n")
    sys.stdout.flush()
"""


class HostSpeed:
    """The host's speed during a phase of a run, for normalising times.

    The hosts this benchmark runs on are shared: the same interpreter
    loop runs up to 1.6x slower for minutes at a time while neighbours
    are busy, and CPU time slows with it (the slowdown is not stolen
    time).  So every host time a workload reports is normalised to a
    reference speed.  Before each block (or set-up) the benchmark asks
    a calibration process for one sample; at the end of the phase, its
    times are scaled by :meth:`factor`, ``REF_S`` over the median sample
    of the phase.  A result therefore reads as the time the work would
    take on a host where a sample takes :data:`REF_S`.  One factor per
    phase, not per block: within a phase the scatter of single samples
    is larger than the host's drift.  The raw times go into the run
    record too.

    The sample runs in its own process so that nothing the program
    under test does on the benchmark's interpreter (threads holding the
    GIL) slows the sample down.
    """

    #: A calibration sample's time on the reference host (s).
    REF_S = 0.005

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, "-c", _CALIBRATION], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.samples: List[float] = []
        for _ in range(5):  # the child's first samples run cold
            self._ask()

    def _ask(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("host-speed calibration process exited")
        return float(line)

    def sample(self) -> int:
        """Take one sample now; returns how many were taken before it,
        the ``since`` of a phase that starts here."""
        self.samples.append(self._ask())
        return len(self.samples) - 1

    def factor(self, since: int) -> float:
        """The factor turning host seconds into reference seconds for
        the phase whose first sample is ``samples[since]``."""
        return self.REF_S / statistics.median(self.samples[since:])

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stop_child_processes() -> None:
    """Stop every process the run left behind and wait for each to end.

    Cluster workers are joined by ``ClusterServer.close``; any still
    alive here is killed.  Spawning them also starts multiprocessing's
    resource-tracker process, which otherwise outlives the benchmark by
    a moment: it exits only on reading end-of-file from a pipe the
    interpreter closes at exit.  Its ``_stop`` closes that pipe and
    waits for it."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")


def _git_sha() -> Optional[str]:
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None  # not a git checkout
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment() -> dict:
    """Where and how a result was measured."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "switch_interval_s": sys.getswitchinterval(),
        # Set by the harness: objects alive after set-up are frozen out
        # of the cyclic collector for the measured phase (see
        # workloads.settled).
        "gc_freeze_while_measuring": True,
        "host_speed_ref_s": HostSpeed.REF_S,
        "blas_threads_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }
