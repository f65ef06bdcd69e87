"""Layer probes for the traced run: one span per call into each layer.

:func:`probe_layers` rebuilds the workloads' model and pushes the same
seeded rows through every public boundary of the stack, wrapping each
call in a benchmark-side span:

* set-up — ``pipeline.fit``, ``registry.register``, ``server.deploy``,
  ``engine.first_read``, ``cluster.spawn`` / ``cluster.deploy``;
* read path — ``FeBiMPipeline.transform_levels``,
  ``layout.active_columns_batch``, ``backend.wordline_currents_batch``,
  ``sensing.decide_batch``, ``backend.inference_cost_batch``,
  ``FeBiMEngine.winners_batch`` / ``infer_batch`` and each registered
  kernel's ``winners`` over ``backend.read_tables()``;
* request plane — a standalone ``MicroBatchScheduler``, the legacy
  (undeployed) ``FeBiMServer`` path, the routed deployment, single
  submits, and a short paced burst with the server's own tracing armed
  (``enable_observability(trace_rate=1.0)``) for queue/execute spans;
* wire — the same rows through ``ClusterServer`` on one worker, plus
  ``encode_frame`` / ``FrameDecoder`` on one request and one result.

Every number it returns is derived from those spans (or, where named,
from the program's own counters).  The same code runs for every
workload, so every traced run emits the same metric names.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.kernels import KernelContext, default_pool, get_kernel
from repro.serving import (
    ClusterServer,
    FeBiMServer,
    MicroBatchScheduler,
    ModelRegistry,
    PlacementSpec,
)
from repro.serving.transport import (
    FrameDecoder,
    encode_frame,
    encode_result,
    make,
)

from harness import Spans, percentile
from workloads import (
    MODEL,
    MODEL_SEED,
    POLICY,
    Reference,
    Sizes,
    Tally,
    check_rows,
    deployment,
    fit,
    load_split,
    open_loop,
    served,
    settle,
)

KERNELS = ("reference", "gemm", "fused")
WIRE_REPS = 2000


def _resolve(futures, tally, ref, idx, what) -> None:
    preds = np.empty(len(futures), dtype=int)
    delays = np.empty(len(futures))
    for i, future in enumerate(futures):
        preds[i], delays[i] = served(future)
    check_rows(tally, ref, idx, preds, delays, what)


def _read_path(pipe, split, idx, sizes: Sizes, spans: Spans) -> Dict[str, float]:
    engine = pipe.engine_
    ctx = KernelContext(tables=engine.backend.read_tables(),
                        pool=default_pool(),
                        native_read=engine.backend.wordline_currents_batch)
    gains = engine.sensing.mirrors.gains
    agree = {k: 0 for k in KERNELS}
    for _ in range(sizes.probe_reps):
        for lo in range(0, len(idx), sizes.batch):
            rows = idx[lo:lo + sizes.batch]
            n = len(rows)
            with spans.span("discretize.transform_levels", rows=n):
                levels = pipe.transform_levels(split.X_test[rows])
            with spans.span("layout.active_columns_batch", rows=n):
                masks = engine.layout.active_columns_batch(levels)
            with spans.span("backend.wordline_currents_batch", rows=n):
                currents = engine.backend.wordline_currents_batch(masks)
            with spans.span("sensing.decide_batch", rows=n):
                winners = engine.sensing.decide_batch(currents)
            with spans.span("backend.inference_cost_batch", rows=n):
                engine.backend.inference_cost_batch(
                    currents, engine.layout.activated_per_inference
                )
            with spans.span("engine.winners_batch", rows=n):
                engine.winners_batch(levels)
            with spans.span("engine.infer_batch", rows=n):
                engine.infer_batch(levels)
            for k in KERNELS:
                with spans.span(f"kernels.{k}.winners", rows=n):
                    got = get_kernel(k).winners(ctx, masks, row_scale=gains)
                agree[k] += int(np.sum(got == winners))
    reads = sizes.probe_reps * len(idx)
    tables = ctx.tables
    # Computed, not measured: bytes a float64 GEMM read touches per row
    # at the probe batch — the weight and base tables amortised over the
    # batch, plus the row's mask operand and its current outputs.
    table_bytes = 8 * tables.rows * (tables.cols + 1)
    bytes_per_row = table_bytes / sizes.batch + 8 * (tables.cols + tables.rows)
    parts = ("layout.active_columns_batch", "backend.wordline_currents_batch",
             "sensing.decide_batch", "backend.inference_cost_batch")
    out = {
        "discretize.us_per_row": spans.us_per_row("discretize.transform_levels"),
        "layout.masks_us_per_row": spans.us_per_row(parts[0]),
        "backend.read_us_per_row": spans.us_per_row(parts[1]),
        "sensing.decide_us_per_row": spans.us_per_row(parts[2]),
        "backend.cost_us_per_row": spans.us_per_row(parts[3]),
        "engine.winners_us_per_row": spans.us_per_row("engine.winners_batch"),
        "engine.infer_us_per_row": spans.us_per_row("engine.infer_batch"),
        "kernels.bytes_per_row": float(bytes_per_row),
    }
    out["engine.self_us_per_row"] = out["engine.infer_us_per_row"] - sum(
        spans.us_per_row(p) for p in parts
    )
    for k in KERNELS:
        out[f"kernels.{k}.us_per_row"] = spans.us_per_row(f"kernels.{k}.winners")
    for k in ("gemm", "fused"):
        out[f"kernels.{k}.parity"] = agree[k] / reads
    return out


def _per_row(spans: Spans, *names: str) -> float:
    return sum(spans.us_per_row(n) for n in names)


def probe_layers(seed: int, sizes: Sizes, spans: Spans, scratch: Path,
                 tally: Tally) -> Tuple[Dict[str, float], List[dict]]:
    """Per-layer metrics and the layer ledger on the workloads' model."""
    split = load_split()
    model, legacy = MODEL, f"{MODEL}-legacy"
    rng = np.random.default_rng([seed, 4])
    root = Path(tempfile.mkdtemp(prefix="probe-", dir=scratch))
    server = cluster = scheduler = None
    try:
        # ---------------------------------------------------------- set-up
        pipe = fit(split, spans)
        ref = Reference.build(pipe, split)
        registry = ModelRegistry(root)
        with spans.span("registry.register"):
            pipe.register_into(registry, model)
        registry.register(legacy, pipe.quantized_model_, pipe.engine_.spec)
        server = FeBiMServer(registry, policy=POLICY, seed=MODEL_SEED)
        with spans.span("server.deploy"):
            server.deploy(deployment(model))
        with spans.span("engine.first_read"):
            first = server.submit(model, ref.levels[0])
            _resolve([first], tally, ref, [0], "first read")
        _resolve([server.submit(legacy, ref.levels[0])], tally, ref, [0],
                 "legacy first read")
        sent = 2
        cluster = ClusterServer(registry, policy=POLICY, seed=MODEL_SEED)
        process = PlacementSpec(kind="process", workers=1)
        # The first process deployment spawns the worker; the second
        # reuses it, so it times the apply alone.
        with spans.span("cluster.spawn_and_deploy"):
            cluster.deploy(deployment(model, process))
        with spans.span("cluster.deploy"):
            cluster.deploy(deployment(legacy, process))
        _resolve([cluster.submit(model, ref.levels[0])], tally, ref, [0],
                 "cluster first read")
        engine = pipe.engine_
        scheduler = MicroBatchScheduler(lambda key: engine, policy=POLICY)
        settle()

        idx = rng.integers(0, len(ref.levels), sizes.probe_rows)
        block = ref.levels[idx]
        out = _read_path(pipe, split, idx, sizes, spans)

        # --------------------------------------------- bulk, layer by layer
        n = len(idx)
        for _ in range(sizes.probe_reps):
            with spans.span("ledger.engine", rows=n):
                for lo in range(0, n, sizes.batch):
                    engine.winners_batch(block[lo:lo + sizes.batch])
            for label, submit_many in (
                ("scheduler", lambda: scheduler.submit_many(model, block)),
                ("server.legacy", lambda: server.submit_many(legacy, block)),
                ("server", lambda: server.submit_many(model, block)),
                ("cluster", lambda: cluster.submit_many(model, block)),
            ):
                with spans.span(f"ledger.{label}", rows=n):
                    with spans.span(f"{label}.submit_many", rows=n):
                        futures = submit_many()
                    with spans.span(f"{label}.resolve", rows=n):
                        _resolve(futures, tally, ref, idx, f"{label} block")
            sent += 2 * n

        # ------------------------------------------------ single requests
        singles = rng.integers(0, len(ref.levels), sizes.probe_singles)
        for row in singles:
            with spans.span("server.submit", rows=1):
                routed = server.submit(model, ref.levels[row])
            with spans.span("scheduler.submit", rows=1):
                direct = scheduler.submit(model, ref.levels[row])
            _resolve([routed, direct], tally, ref, [row, row], "single")
        sent += len(singles)

        # ---------------------- paced burst with the server's own tracing
        observability = server.enable_observability(trace_rate=1.0)
        burst = open_loop(server, model, ref, rng, sizes.probe_rps,
                          sizes.probe_paced_s, spans, tally, "paced")
        sent += burst["n"]
        server.disable_observability()
        stage = {"queue": [], "execute": []}
        for trace in observability.tracer.finished():
            for span in trace.spans:
                if span.name in stage:
                    stage[span.name].append(span.duration_s * 1e3)
        stats = server.stats()

        # ------------------------------------------------------------ wire
        row = [int(v) for v in ref.levels[0]]
        request = make("request", id="r0", model=model, replica_index=0,
                       levels=row, priority=0)
        result = make("result", id="r0", result=encode_result(
            server.submit(model, ref.levels[0]).result(timeout=60)))
        frames = {}
        for kind, message in (("request", request), ("result", result)):
            with spans.span(f"transport.encode.{kind}", rows=WIRE_REPS):
                for _ in range(WIRE_REPS):
                    frame = encode_frame(message)
            frames[kind] = frame
            with spans.span(f"transport.decode.{kind}", rows=WIRE_REPS):
                for _ in range(WIRE_REPS):
                    FrameDecoder().feed(frame)
    finally:
        for closer in (cluster, server):
            if closer is not None:
                closer.close()
        if scheduler is not None:
            scheduler.shutdown()
        gc.unfreeze()
        shutil.rmtree(root, ignore_errors=True)

    routed = _per_row(spans, "server.submit_many", "server.resolve")
    over_wire = _per_row(spans, "cluster.submit_many", "cluster.resolve")
    spawn_and_deploy = spans.total("cluster.spawn_and_deploy")
    out.update({
        "pipeline.fit_s": spans.total("pipeline.fit"),
        "registry.register_s": spans.total("registry.register"),
        "server.deploy_s": spans.total("server.deploy"),
        "engine.first_read_s": spans.total("engine.first_read"),
        "cluster.deploy_s": spans.total("cluster.deploy"),
        "cluster.spawn_s": spawn_and_deploy - spans.total("cluster.deploy"),
        "server.submit_many_us_per_row": spans.us_per_row("server.submit_many"),
        "server.resolve_us_per_row": spans.us_per_row("server.resolve"),
        "scheduler.submit_many_us_per_row":
            spans.us_per_row("scheduler.submit_many"),
        "server.legacy_submit_many_us_per_row":
            spans.us_per_row("server.legacy.submit_many"),
        "server.submit_us": statistics.median(spans.durations("server.submit")) * 1e6,
        "scheduler.submit_us":
            statistics.median(spans.durations("scheduler.submit")) * 1e6,
        "scheduler.queue_ms.p50": percentile(stage["queue"], 50),
        "scheduler.execute_ms.p50": percentile(stage["execute"], 50),
        "scheduler.batches": float(stats.batches),
        "scheduler.avg_batch": float(stats.avg_batch),
        "scheduler.occupancy": float(stats.occupancy),
        "scheduler.attempts_per_request": stats.submitted / sent,
        "router.failovers": float(stats.failovers),
        "scheduler.shed": float(stats.shed_requests),
        "generator.lag_p99_ms": burst["lag_p99_ms"],
        "cluster.submit_many_us_per_row": spans.us_per_row("cluster.submit_many"),
        "cluster.resolve_us_per_row": spans.us_per_row("cluster.resolve"),
        "cluster.wire_us_per_row": over_wire - routed,
        "transport.request_bytes": float(len(frames["request"])),
        "transport.result_bytes": float(len(frames["result"])),
        "transport.encode_us": _per_row(spans, "transport.encode.request",
                                        "transport.encode.result"),
        "transport.decode_us": _per_row(spans, "transport.decode.request",
                                        "transport.decode.result"),
    })
    out["router.self_us"] = out["server.submit_us"] - out["scheduler.submit_us"]

    ledger = []
    previous = None
    engine_us = spans.us_per_row("ledger.engine")
    for layer, us in (
        ("engine b256", engine_us),
        ("scheduler", _per_row(spans, "scheduler.submit_many",
                               "scheduler.resolve")),
        ("legacy server", _per_row(spans, "server.legacy.submit_many",
                                   "server.legacy.resolve")),
        ("router", routed),
        ("cluster", over_wire),
    ):
        ledger.append({
            "layer": layer,
            "us_per_row": us,
            "sps": 1e6 / us,
            "adds_us_per_row": None if previous is None else us - previous,
            "x_engine": us / engine_us,
        })
        previous = us
    for row in ledger:
        key = row["layer"].split()[0]
        out[f"ledger.{key}_sps"] = row["sps"]
    out["ledger.router_over_engine"] = ledger[3]["sps"] / ledger[0]["sps"]
    return out, ledger


def format_ledger(ledger: List[dict]) -> str:
    lines = [f"{'layer':<14} {'us/row':>9} {'sps':>11} {'adds us/row':>12} "
             f"{'x engine':>9}"]
    for row in ledger:
        adds = "" if row["adds_us_per_row"] is None else f"{row['adds_us_per_row']:+.2f}"
        lines.append(
            f"{row['layer']:<14} {row['us_per_row']:9.2f} {row['sps']:11.0f} "
            f"{adds:>12} {row['x_engine']:9.1f}"
        )
    return "\n".join(lines)
