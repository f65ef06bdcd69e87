"""Read-kernel layer benchmark and the CI kernel gate.

Two measurement planes (see THROUGHPUT.md for recorded numbers):

1. **synthetic** — the kernels head-to-head on a large dense shape
   where the read dominates: random float ``(I_on, I_off)`` tables,
   ``reference`` (the historical elementwise ``np.where(...).sum``
   select-and-reduce) against the affine ``gemm`` and the blocked
   ``fused`` read+decide.  Gates the layer's raison d'être — the fast
   kernels must beat the reference by **>= 3x** on the large shape
   (measured: >20x on every shape swept) *and* agree with it to 100 %
   argmax parity.
2. **engine matrix** — every fused-read backend end-to-end on iris at
   a dense batch: ``engine.predict`` samples/sec per kernel selection
   (``reference``/``gemm``/``fused``/``auto``), each fast mode's
   predictions checked against the reference-kernel engine exactly.
   Also pins the degradation contract: the stochastic memristor and a
   noisy-read FeFET refuse explicit fast kernels with
   :class:`CapabilityError` while ``auto`` falls back to ``reference``.

The recorded snapshot (``BENCH_kernels.json``) keeps the per-shape
autotuner decisions, so the kernel-selection table in THROUGHPUT.md is
regenerable.  Absolute samples/sec are machine-facts; only the relative
claims (speedup floor, parity, degradation) gate CI (``--smoke``,
stage 11).

Runnable directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --json --out benchmarks/BENCH_kernels.json

or under pytest-benchmark::

    pytest benchmarks/bench_kernels.py --benchmark-only
"""

import os

# One BLAS thread, pinned before numpy loads its BLAS (so it holds when
# the script runs directly, as CI stage 11 runs it): the gate compares
# single-core kernels, and a multi-threaded BLAS on a small, shared host
# spends the smoke shape's GEMM on thread hand-offs (it read 0.3-0.8x
# the reference kernel there instead of >20x).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import time

import numpy as np
import pytest

from repro.backends import CapabilityError
from repro.core.pipeline import FeBiMPipeline
from repro.datasets import load_dataset, train_test_split
from repro.devices.variation import VariationModel
from repro.kernels import (
    FloatReadTables,
    KernelContext,
    ScratchPool,
    get_kernel,
)
from repro.kernels.read import reference_wordline_currents

#: The large synthetic shape: a 64-class model over 512 active columns
#: at a dense micro-batch — read-dominated, the regime the layer is for.
FULL_SHAPE = (64, 512, 2048)
#: Smoke shape for CI: small enough for a sub-second gate, large enough
#: that the >= 3x floor sits far below the measured >20x margin.
SMOKE_SHAPE = (32, 128, 256)
ENGINE_KERNELS = ("reference", "gemm", "fused", "auto")
BATCH = 256
REPEATS = 5
SEED = 0
#: CI floor for the fast kernels on the synthetic shape (measured
#: margins are 12-86x across shapes; 3x is the contract, not the goal).
MIN_SPEEDUP = 3.0


def _best_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-12)


# ------------------------------------------------------------------ synthetic
def run_synthetic(shape=FULL_SHAPE, repeats=REPEATS, seed=SEED):
    """The three kernels head-to-head on one synthetic float shape."""
    rows, cols, batch = shape
    rng = np.random.default_rng(seed)
    i_off = rng.uniform(0.0, 1e-9, size=(rows, cols))
    i_on = i_off + rng.uniform(1e-7, 1e-5, size=(rows, cols))
    masks = rng.random((batch, cols)) < 0.4
    ctx = KernelContext(
        tables=FloatReadTables(i_on, i_off),
        pool=ScratchPool(),
        native_read=lambda m: reference_wordline_currents(i_on, i_off, m),
    )
    reference = get_kernel("reference").winners(ctx, masks)
    kernels = {}
    for name in ("reference", "gemm", "fused"):
        kernel = get_kernel(name)
        winners = kernel.winners(ctx, masks)  # warm-up + parity sample
        seconds = _best_seconds(lambda: kernel.winners(ctx, masks), repeats)
        kernels[name] = {
            "sps": batch / seconds,
            "us_per_batch": seconds * 1e6,
            "parity": bool(np.array_equal(winners, reference)),
        }
    base = kernels["reference"]["us_per_batch"]
    for name in ("gemm", "fused"):
        kernels[name]["speedup"] = base / kernels[name]["us_per_batch"]
    return {
        "rows": rows,
        "cols": cols,
        "batch": batch,
        "kernels": kernels,
        "pool": ctx.pool.stats(),
    }


# -------------------------------------------------------------- engine matrix
def _fit(dataset, backend, seed, **options):
    data = load_dataset(dataset)
    X_tr, X_te, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=seed
    )
    pipe = FeBiMPipeline(
        q_f=4, q_l=2, seed=seed, backend=backend, backend_options=options or None
    ).fit(X_tr, y_tr)
    return pipe.engine_, pipe.transform_levels(X_te)


def run_engine_matrix(
    dataset="iris",
    backends=("fefet", "ideal", "cmos"),
    batch=BATCH,
    repeats=REPEATS,
    seed=SEED,
):
    """End-to-end ``engine.predict`` throughput per backend x kernel."""
    rows = []
    for backend in backends:
        reference_engine, levels = _fit(dataset, backend, seed)
        idx = np.arange(batch) % levels.shape[0]
        dense = levels[idx]
        expected = reference_engine.predict(dense)
        for kernel in ENGINE_KERNELS:
            engine, _ = _fit(dataset, backend, seed, kernel=kernel)
            engine.predict(dense[:1])  # warm caches / autotune the shape
            engine.predict(dense)
            seconds = _best_seconds(lambda: engine.predict(dense), repeats)
            report = engine.kernel_report()
            rows.append(
                {
                    "backend": backend,
                    "kernel": kernel,
                    "dataset": dataset,
                    "batch": batch,
                    "sps": batch / seconds,
                    "parity": bool(
                        np.array_equal(engine.predict(dense), expected)
                    ),
                    "kernel_choices": report["choices"],
                }
            )
    return rows


def run_degradation_checks(dataset="iris", seed=SEED):
    """The refusal/degradation contract where tables are unavailable."""
    checks = {}
    try:
        _fit(dataset, "memristor", seed, kernel="gemm")
        checks["memristor_explicit_raises"] = False
    except CapabilityError:
        checks["memristor_explicit_raises"] = True
    engine, _ = _fit(dataset, "memristor", seed, kernel="auto")
    checks["memristor_auto_degrades"] = engine.kernel_name == "reference"

    data = load_dataset(dataset)
    X_tr, _, y_tr, _ = train_test_split(
        data.data, data.target, test_size=0.7, seed=seed
    )
    noisy = VariationModel(sigma_vth=0.0, sigma_read=5e-3)
    try:
        FeBiMPipeline(
            q_f=4, q_l=2, seed=seed, variation=noisy,
            backend_options={"kernel": "fused"},
        ).fit(X_tr, y_tr)
        checks["noisy_fefet_explicit_raises"] = False
    except CapabilityError:
        checks["noisy_fefet_explicit_raises"] = True
    pipe = FeBiMPipeline(
        q_f=4, q_l=2, seed=seed, variation=noisy,
        backend_options={"kernel": "auto"},
    ).fit(X_tr, y_tr)
    checks["noisy_fefet_auto_degrades"] = (
        pipe.engine_.kernel_name == "reference"
    )
    return checks


# -------------------------------------------------------------------- gates
def check_kernels(synthetic, matrix, checks) -> None:
    for name, row in synthetic["kernels"].items():
        assert row["parity"], f"synthetic {name} kernel broke argmax parity"
    for name in ("gemm", "fused"):
        speedup = synthetic["kernels"][name]["speedup"]
        assert speedup >= MIN_SPEEDUP, (
            f"{name} kernel only {speedup:.1f}x the reference on the "
            f"{synthetic['rows']}x{synthetic['cols']} synthetic shape "
            f"(floor {MIN_SPEEDUP}x)"
        )
    for row in matrix:
        assert row["parity"], (
            f"{row['backend']}/{row['kernel']} predictions diverged from "
            f"the reference kernel"
        )
    by_key = {(r["backend"], r["kernel"]): r for r in matrix}
    for (backend, kernel), row in by_key.items():
        if kernel == "auto":
            # The tuner must have recorded a decision for the dense
            # batch shape it just served.
            assert row["kernel_choices"], f"{backend}/auto recorded no choice"
    for name, passed in checks.items():
        assert passed, f"degradation contract broken: {name}"


def headline(matrix, backend="ideal"):
    """Best measured predict throughput on ``backend`` (any kernel)."""
    rates = [r["sps"] for r in matrix if r["backend"] == backend]
    return max(rates) if rates else 0.0


# ------------------------------------------------------------------ formatting
def format_kernels(synthetic, matrix, checks) -> str:
    s = synthetic
    lines = [
        f"synthetic kernel head-to-head "
        f"({s['rows']} rows x {s['cols']} cols, batch {s['batch']})",
        f"{'kernel':<10s} {'us/batch':>10s} {'sps':>12s} {'speedup':>8s}  parity",
    ]
    for name, row in s["kernels"].items():
        speed = f"{row.get('speedup', 1.0):7.1f}x"
        lines.append(
            f"{name:<10s} {row['us_per_batch']:10.1f} {row['sps']:12.0f} "
            f"{speed}  {'yes' if row['parity'] else 'NO'}"
        )
    lines.append("")
    lines.append(f"engine predict throughput (iris, batch {BATCH})")
    lines.append(f"{'backend':<10s} {'kernel':<10s} {'sps':>12s}  parity")
    for row in matrix:
        lines.append(
            f"{row['backend']:<10s} {row['kernel']:<10s} {row['sps']:12.0f}  "
            f"{'yes' if row['parity'] else 'NO'}"
        )
        for choice in row["kernel_choices"]:
            lines.append(
                f"{'':<10s} autotuned: batch<={choice['batch_bucket']} on "
                f"{choice['rows']}x{choice['cols']} -> {choice['kernel']}"
            )
    lines.append("")
    lines.append(f"ideal-backend headline: {headline(matrix):.0f} sps")
    for name, passed in checks.items():
        lines.append(f"degradation [{name}] -> {'ok' if passed else 'BROKEN'}")
    return "\n".join(lines)


# ------------------------------------------------------------ pytest entries
def test_kernel_gates_smoke(once):
    synthetic = once(run_synthetic, shape=SMOKE_SHAPE)
    matrix = run_engine_matrix(backends=("fefet", "ideal"))
    checks = run_degradation_checks()
    check_kernels(synthetic, matrix, checks)


@pytest.mark.slow
def test_kernel_gates_full(once):
    synthetic = once(run_synthetic)
    matrix = run_engine_matrix()
    checks = run_degradation_checks()
    print()
    print(format_kernels(synthetic, matrix, checks))
    check_kernels(synthetic, matrix, checks)


# ------------------------------------------------------------------- __main__
def main(argv=None) -> int:
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: small synthetic shape, two-backend engine matrix "
        "— asserts the relative claims (>= 3x, parity, degradation), "
        "not absolute wall-clock",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable snapshot instead of the table",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON snapshot here (e.g. BENCH_kernels.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        synthetic = run_synthetic(shape=SMOKE_SHAPE)
        matrix = run_engine_matrix(backends=("fefet", "ideal"))
    else:
        synthetic = run_synthetic()
        matrix = run_engine_matrix()
    checks = run_degradation_checks()

    snapshot = {
        "bench": "kernels",
        "batch": BATCH,
        "repeats": REPEATS,
        "min_speedup": MIN_SPEEDUP,
        "synthetic": synthetic,
        "engine_matrix": matrix,
        "ideal_headline_sps": headline(matrix),
        "degradation_checks": checks,
    }
    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        print(format_kernels(synthetic, matrix, checks))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
    check_kernels(synthetic, matrix, checks)
    print("kernel gates -> PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
