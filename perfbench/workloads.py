"""The three workloads: seeded inputs pushed through the public API.

Every workload builds its stack from scratch (train, register, deploy,
spawn, first read) ``sizes.setups`` times and reports the median as
``setup_s``; the last stack is then driven for the measured phase.
Every served prediction is checked against ``FeBiMEngine.predict`` on
the same rows, and every served modelled delay against
``FeBiMEngine.infer_batch``; a mismatch or a raised request counts as
failed.

Every host time reported (except the lone-request latency of the
serving workloads, which is mostly the scheduler's flush timer) is
normalised to the reference host speed by the median
:class:`~harness.HostSpeed` sample of its phase, set-up or measured;
the raw figures are kept in the run's detail.

The model is fixed: iris is split and trained with :data:`MODEL_SEED`,
so accuracy is a property of the array, not of the draw.  The run's seed drives every traffic draw — which held-out rows
are sent, in which blocks — and the sample the modelled delay and
energy are averaged over.  The program never
sees the seed, only the rows.
"""

from __future__ import annotations

import functools
import gc
import shutil
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_iris, train_test_split
from repro.serving import (
    BatchPolicy,
    ClusterServer,
    Deployment,
    FeBiMServer,
    ModelRegistry,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
)

from harness import HostSpeed, Spans, paired_overhead, percentile

#: The ROADMAP baseline serving setup: one `cost` replica, default
#: `reference` kernel, max_batch 256, max_wait 2 ms.
POLICY = BatchPolicy(max_batch=256, max_wait_ms=2.0)

#: Every workload serves iris, the paper's operating point (3 classes
#: x 64 columns), split and trained with this seed.
MODEL = "iris"
MODEL_SEED = 0

#: Rows in the seeded sample the modelled delay/energy are averaged over.
SIM_SAMPLE = 4096


@dataclass(frozen=True)
class Sizes:
    """Work per run; :data:`TINY` shrinks it for the self-tests."""

    block: int = 4096          # rows per closed-loop block
    batch: int = 256           # rows per offline infer_batch call
    setups: int = 41           # full set-ups per run (median -> setup_s)
    cluster_setups: int = 7    # ... each of which spawns a worker process
    warmup: int = 2            # unmeasured blocks / passes before timing
    lone_per_block: int = 4    # bulk: lone requests after each block
    round_batches: int = 16    # offline: batch calls per host-speed sample
    probe_rows: int = 2048     # layer probes: rows per block
    probe_reps: int = 2
    probe_singles: int = 200
    probe_rps: float = 4000.0  # layer probes: paced burst rate ...
    probe_paced_s: float = 0.5  # ... and length


DEFAULT = Sizes()
TINY = Sizes(block=128, batch=32, setups=1, cluster_setups=1, warmup=1,
             lone_per_block=2, round_batches=2, probe_rows=128, probe_reps=1,
             probe_singles=12, probe_paced_s=0.1)


# ------------------------------------------------------------------ inputs
@dataclass
class Split:
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray


def load_split() -> Split:
    """The train/held-out split every workload trains on and serves."""
    data = load_iris()
    return Split(*train_test_split(data.data, data.target, seed=MODEL_SEED))


def fit(split: Split, spans: Spans) -> FeBiMPipeline:
    with spans.span("pipeline.fit"):
        return FeBiMPipeline(q_f=4, q_l=2, seed=MODEL_SEED).fit(
            split.X_train, split.y_train
        )


@dataclass
class Reference:
    """What every served answer is checked against."""

    levels: np.ndarray       # held-out rows, discretised (the traffic pool)
    predictions: np.ndarray  # FeBiMEngine.predict on those rows
    delay: np.ndarray        # FeBiMEngine.infer_batch modelled delay (s)
    energy: np.ndarray       # ... and energy (J)
    accuracy: float          # FeBiMPipeline.score(mode="hardware")

    @staticmethod
    def build(pipe: FeBiMPipeline, split: Split) -> "Reference":
        levels = pipe.transform_levels(split.X_test)
        report = pipe.engine_.infer_batch(levels)
        return Reference(
            levels=levels,
            predictions=pipe.engine_.predict(levels),
            delay=np.asarray(report.delay, dtype=float),
            energy=np.asarray(report.energy.total, dtype=float),
            accuracy=pipe.score(split.X_test, split.y_test, mode="hardware"),
        )


class Tally:
    """Attempted / failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes

    def check(self, ok: np.ndarray, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.attempted += ok.size
        bad = int(ok.size - ok.sum())
        if bad:
            self.failed += bad
            if len(self.notes) < 8:
                self.notes.append(f"{what}: {bad} of {ok.size} wrong")


# ------------------------------------------------------------------ stacks
class Stack:
    """One built deployment: pipeline, registry and serving front end."""

    def __init__(self, pipe, frontend=None, root: Optional[Path] = None):
        self.pipe = pipe
        self.frontend = frontend
        self.root = root

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


def deployment(model: str, placement: Optional[PlacementSpec] = None):
    return Deployment(model, [ReplicaSpec("fefet")], RoutingPolicy("cost"),
                      placement=placement)


def build_stack(kind: str, split: Split, spans: Spans,
                scratch: Path) -> Stack:
    """Train, register, deploy and read once: everything ``setup_s`` covers.

    ``kind`` is ``offline`` (pipeline only), ``server`` (one-replica
    local deployment) or ``cluster`` (the same deployment on one worker
    process)."""
    pipe = fit(split, spans)
    first = pipe.transform_levels(split.X_test[:1])
    if kind == "offline":
        with spans.span("engine.first_read"):
            pipe.infer_batch(split.X_test[:1])
        return Stack(pipe)
    root = Path(tempfile.mkdtemp(prefix="registry-", dir=scratch))
    stack = Stack(pipe, root=root)
    try:
        registry = ModelRegistry(root)
        with spans.span("registry.register"):
            pipe.register_into(registry, MODEL)
        if kind == "server":
            stack.frontend = FeBiMServer(registry, policy=POLICY,
                                         seed=MODEL_SEED)
            with spans.span("server.deploy"):
                stack.frontend.deploy(deployment(MODEL))
        else:
            stack.frontend = ClusterServer(registry, policy=POLICY,
                                           seed=MODEL_SEED)
            with spans.span("cluster.deploy"):
                stack.frontend.deploy(deployment(
                    MODEL, PlacementSpec(kind="process", workers=1)
                ))
        with spans.span("engine.first_read"):
            stack.frontend.submit(MODEL, first[0]).result(timeout=60)
    except BaseException:
        stack.close()
        raise
    return stack


def timed_setups(kind: str, split: Split, sizes: Sizes, spans: Spans,
                 scratch: Path, host: HostSpeed):
    """Build the stack repeatedly (each after a full collection, so no
    collector pause lands inside one); keep the last.  Returns the stack
    and the raw and normalised set-up times."""
    raw = []
    stack = None
    since = None
    for _ in range(sizes.cluster_setups if kind == "cluster" else sizes.setups):
        if stack is not None:
            stack.close()
        gc.collect()
        first = host.sample()
        since = first if since is None else since
        t0 = time.perf_counter()
        stack = build_stack(kind, split, spans, scratch)
        raw.append(time.perf_counter() - t0)
    factor = host.factor(since)
    return stack, raw, [t * factor for t in raw]


def settle() -> None:
    """Collect, then move every surviving object out of the collector's
    reach (``gc.freeze``).  Without it a full collection scans the ~90k
    objects the imports and set-up leave behind, a 20-50 ms pause that
    lands at random in the measured phase; with it the collector only
    sees what the measured traffic allocates.  The caller runs
    ``gc.unfreeze()`` once the measured phase is over, so the stack can
    be collected after it is closed."""
    gc.collect()
    gc.freeze()


# -------------------------------------------------------------- traffic
def served(future, timeout: float = 60.0):
    """(prediction, delay) of a resolved request; (-1, nan) if it raised."""
    try:
        result = future.result(timeout=timeout)
    except Exception:  # noqa: BLE001 — a failed request is counted, not fatal
        return -1, float("nan")
    return int(result.prediction), float(result.delay)


def check_rows(tally: Tally, ref: Reference, idx, preds, delays, what):
    tally.check((preds == ref.predictions[idx]) & (delays == ref.delay[idx]),
                what)


def closed_loop(frontend, model: str, ref: Reference, rng, seconds: float,
                sizes: Sizes, spans: Spans, tally: Tally, label: str,
                host: HostSpeed) -> dict:
    """One client sends ``sizes.block``-row blocks through
    ``submit_many`` and waits for every row before the next block.
    After each block it sends ``sizes.lone_per_block`` single requests
    one at a time onto the now idle system, so the lone-request samples
    are spread over the whole run."""
    n_pool = len(ref.levels)
    block_s: List[float] = []
    traced: List[bool] = []
    row_ms: List[np.ndarray] = []
    lone_ms: List[np.ndarray] = []

    def one_block():
        # The client's own work (drawing rows, checking answers) is the
        # self time of this parent span.
        with spans.span("client.block", rows=sizes.block):
            idx = rng.integers(0, n_pool, sizes.block)
            preds = np.empty(sizes.block, dtype=int)
            delays = np.empty(sizes.block)
            seen = np.empty(sizes.block)
            t0 = time.perf_counter()
            with spans.span(f"{label}.submit_many", rows=sizes.block):
                futures = frontend.submit_many(model, ref.levels[idx])
            with spans.span(f"{label}.resolve", rows=sizes.block):
                for i, future in enumerate(futures):
                    preds[i], delays[i] = served(future)
                    seen[i] = time.perf_counter()
            check_rows(tally, ref, idx, preds, delays, f"{label} block")
            lone = lone_requests(frontend, model, ref, rng,
                                 sizes.lone_per_block, spans, tally, label)
        return seen[-1] - t0, (seen - t0) * 1e3, lone

    for _ in range(sizes.warmup):
        one_block()
    since = None
    deadline = time.perf_counter() + seconds
    while len(block_s) < 3 or time.perf_counter() < deadline:
        first = host.sample()
        since = first if since is None else since
        traced.append(spans.next_block())
        elapsed, rows, lone = one_block()
        block_s.append(elapsed)
        row_ms.append(rows)
        lone_ms.append(lone)
    factor = host.factor(since)
    block_ref_s = np.asarray(block_s) * factor
    rows = np.concatenate(row_ms) * factor
    # Not normalised: most of a lone request's time is the scheduler's
    # max_wait_ms flush timer, which does not slow down with the host.
    lone_ms = np.concatenate(lone_ms)
    return {
        "throughput_sps": sizes.block / statistics.median(block_ref_s),
        "p50_ms": percentile(rows, 50),
        "p90_ms": percentile(rows, 90),
        "p99_ms": percentile(rows, 99),
        "lone_p50_ms": percentile(lone_ms, 50),
        "blocks": len(block_s),
        "block_p50_ms": statistics.median(block_ref_s) * 1e3,
        "rows": int(rows.size),
        "lone": int(lone_ms.size),
        "raw_throughput_sps": sizes.block / statistics.median(block_s),
        "host_factor": factor,
        "trace_overhead_pct": paired_overhead(block_s, traced),
    }


def lone_requests(frontend, model: str, ref: Reference, rng, count: int,
                  spans: Spans, tally: Tally, label: str) -> np.ndarray:
    """Latencies (ms) of ``count`` requests sent one at a time."""
    idx = rng.integers(0, len(ref.levels), count)
    preds = np.empty(count, dtype=int)
    delays = np.empty(count)
    lat = np.empty(count)
    for i, row in enumerate(idx):
        t0 = time.perf_counter()
        with spans.span(f"{label}.submit", rows=1):
            future = frontend.submit(model, ref.levels[row])
        preds[i], delays[i] = served(future)
        lat[i] = time.perf_counter() - t0
    check_rows(tally, ref, idx, preds, delays, f"{label} lone")
    return lat * 1e3


class _Outcomes:
    """Per-request results recorded by done-callbacks, so the generator
    keeps no resolved future (and the collector no pile of them)."""

    def __init__(self, n: int):
        self.done = np.full(n, np.nan)
        self.preds = np.full(n, -1)
        self.delays = np.full(n, np.nan)

    def callback(self, i: int):
        return functools.partial(self._record, i)

    def _record(self, i: int, future) -> None:
        self.done[i] = time.perf_counter()
        prediction, self.delays[i] = served(future, timeout=0)
        self.preds[i] = prediction


def open_loop(frontend, model: str, ref: Reference, rng, rate: float,
              duration: float, spans: Spans, tally: Tally,
              label: str) -> dict:
    """One generator thread sends single requests on a seeded Poisson
    schedule; latency is timed from each request's due time (the layer
    probes' paced burst)."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    due = np.cumsum(gaps)
    due = due[due < duration]
    n = len(due)
    idx = rng.integers(0, len(ref.levels), n)
    outcomes = _Outcomes(n)
    sent = np.empty(n)
    in_flight = deque()
    start = time.perf_counter() + 0.002
    due = due + start
    for i in range(n):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent[i] = time.perf_counter()
        with spans.span(f"{label}.submit", rows=1):
            future = frontend.submit(model, ref.levels[idx[i]])
        future.add_done_callback(outcomes.callback(i))
        in_flight.append(future)
        while in_flight and in_flight[0].done():
            in_flight.popleft()
    for future in in_flight:
        served(future)  # wait; the callback records the outcome
    ok = ((outcomes.preds == ref.predictions[idx])
          & (outcomes.delays == ref.delay[idx]))
    tally.check(ok, f"paced {rate:.0f} rps")
    for i in range(n):
        spans.add("request", due[i], outcomes.done[i], req=i, rate=rate)
    lat_ms = (outcomes.done - due) * 1e3
    lag_ms = (sent - due) * 1e3
    return {
        "rate": rate,
        "n": n,
        "ok": bool(ok.all()),
        "p50_ms": percentile(lat_ms, 50),
        "p90_ms": percentile(lat_ms, 90),
        "p99_ms": percentile(lat_ms, 99),
        "lag_p99_ms": percentile(lag_ms, 99),
    }


# ------------------------------------------------------------ workloads
@dataclass
class Outcome:
    metrics: Dict[str, float]
    tally: Tally
    detail: dict


def _finish(metrics: dict, setups, tally: Tally, ref: Reference, seed: int,
            detail: dict) -> Outcome:
    raw, normalised = setups
    metrics["setup_s"] = statistics.median(normalised)
    detail["setup_times_s"] = normalised
    detail["raw_setup_times_s"] = raw
    sample = np.random.default_rng([seed, 0]).integers(
        0, len(ref.levels), SIM_SAMPLE)
    metrics["accuracy"] = ref.accuracy
    metrics["sim_delay_ps"] = float(np.mean(ref.delay[sample]) * 1e12)
    metrics["sim_energy_fj"] = float(np.mean(ref.energy[sample]) * 1e15)
    metrics["ok_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    return Outcome(metrics, tally, detail)


def run_bulk(kind: str, seed: int, seconds: float, sizes: Sizes,
             spans: Spans, scratch: Path, host: HostSpeed) -> Outcome:
    """iris-bulk (``kind="server"``) and cluster-bulk (``"cluster"``)."""
    split = load_split()
    stack, *setups = timed_setups(kind, split, sizes, spans, scratch, host)
    try:
        ref = Reference.build(stack.pipe, split)
        tally = Tally()
        rng = np.random.default_rng([seed, 1])
        label = "server" if kind == "server" else "cluster"
        settle()
        loop = closed_loop(stack.frontend, MODEL, ref, rng, seconds,
                           sizes, spans, tally, label, host)
    finally:
        stack.close()
        gc.unfreeze()
    metrics = {key: loop[key] for key in
               ("throughput_sps", "p50_ms", "p90_ms", "lone_p50_ms")}
    return _finish(metrics, setups, tally, ref, seed, {"closed_loop": loop})


def run_offline(seed: int, seconds: float, sizes: Sizes, spans: Spans,
                scratch: Path, host: HostSpeed) -> Outcome:
    split = load_split()
    stack, *setups = timed_setups("offline", split, sizes, spans, scratch,
                                  host)
    pipe = stack.pipe
    ref = Reference.build(pipe, split)
    tally = Tally()
    # One full pass over the held-out set in serving-size batches: the
    # scored accuracy and modelled costs must equal the reference.
    preds, delays, energy = [], [], []
    for lo in range(0, len(split.X_test), sizes.batch):
        rows = split.X_test[lo:lo + sizes.batch]
        with spans.span("pipeline.infer_batch", rows=len(rows)):
            report = pipe.infer_batch(rows)
        preds.append(report.predictions)
        delays.append(report.delay)
        energy.append(report.energy.total)
    preds = np.concatenate(preds)
    all_rows = np.arange(len(preds))
    check_rows(tally, ref, all_rows, preds, np.concatenate(delays),
               "offline pass")
    scored = float(np.mean(preds == split.y_test))
    tally.check([scored == ref.accuracy], "accuracy vs score(hardware)")
    tally.check([np.array_equal(np.concatenate(energy), ref.energy)],
                "modelled energy")

    rng = np.random.default_rng([seed, 3])
    n_pool = len(split.X_test)

    def one_batch(n: int) -> float:
        idx = rng.integers(0, n_pool, n)
        t0 = time.perf_counter()
        with spans.span("pipeline.infer_batch", rows=n):
            report = pipe.infer_batch(split.X_test[idx])
        elapsed = time.perf_counter() - t0
        check_rows(tally, ref, idx, report.predictions,
                   np.asarray(report.delay), "offline batch")
        return elapsed

    # A round is ``sizes.round_batches`` batch calls, each followed by a
    # single-row call (so the lone samples span the run), after one
    # host-speed sample.
    call_s: List[float] = []
    lone_s: List[float] = []
    round_s: List[float] = []
    traced: List[bool] = []
    since = None
    settle()
    try:
        for _ in range(sizes.warmup * 8):
            one_batch(sizes.batch)
        deadline = time.perf_counter() + seconds
        while len(round_s) < 3 or time.perf_counter() < deadline:
            first = host.sample()
            since = first if since is None else since
            traced.append(spans.next_block())
            spent = 0.0
            for _ in range(sizes.round_batches):
                call_s.append(one_batch(sizes.batch))
                lone_s.append(one_batch(1))
                spent += call_s[-1] + lone_s[-1]
            round_s.append(spent)
    finally:
        gc.unfreeze()
    factor = host.factor(since)
    calls_ms = np.asarray(call_s) * (1e3 * factor)
    metrics = {"throughput_sps": sizes.batch / (statistics.median(call_s) * factor),
               "p50_ms": percentile(calls_ms, 50),
               "p90_ms": percentile(calls_ms, 90),
               "lone_p50_ms": percentile(np.asarray(lone_s) * (1e3 * factor), 50)}
    return _finish(metrics, setups, tally, ref, seed, {
        "calls": len(call_s), "lone": len(lone_s),
        "p99_ms": percentile(calls_ms, 99),
        "raw_throughput_sps": sizes.batch / statistics.median(call_s),
        "host_factor": factor,
        "trace_overhead_pct": paired_overhead(round_s, traced),
    })


#: Each workload's entry point:
#: ``run(seed, seconds, sizes, spans, scratch, host)``.
WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "iris-bulk": functools.partial(run_bulk, "server"),
    "iris-offline": run_offline,
    "cluster-bulk": functools.partial(run_bulk, "cluster"),
}
