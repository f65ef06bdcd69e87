"""Command-line interface: ``febim <command>``.

Commands
--------
``train``    Train a GNBC on a bundled dataset, program the crossbar,
             report software/quantised/hardware accuracy and circuit
             metrics; optionally save the model artifact.
``eval``     Load a saved model artifact and score it on a dataset.
``table1``   Regenerate the Table 1 comparison.
``sweep``    Print the Fig. 6 delay/energy scalability sweeps.
``bench``    Measure batched read-path throughput (samples/sec sweep
             over batch sizes, vs the per-sample baseline loop).
             ``--backend`` runs the sweep on any registered array
             technology (fefet/ideal/cmos/memristor).
``serve``    Run a serving scenario (:func:`repro.serving.workload.
             run_scenario`, every serving invariant checked) and report
             served throughput, occupancy and latency against the
             offline ceiling: mixed-tenant traffic by default,
             ``--slo`` the autoscale spike, or ``--deployment
             spec.json`` through a declarative replica deployment on
             either placement (``--workers N`` forces process
             placement, ``--kill-worker`` SIGKILLs a worker mid-burst
             and reports the failover and respawn).
``trace``    Run a traced workload and print sampled request traces —
             the admit/queue/execute (and failover) span decomposition
             with modeled device delay and energy on the execute span.
``events``   Replay the observability flight recorder from a bursty
             autoscale run: sheds, displacements, failovers and scale
             decisions in causal order, filterable and JSONL-dumpable.
``deploy``   Validate a deployment spec JSON against a registry,
             materialise and probe every replica, print the replica
             table (a dry-run apply).
``submit``   One-shot request against a registry directory: register
             (if needed), route, serve, print the result.
``reliability``  Run a Monte-Carlo fault or aging campaign (stuck
             cells, dead lines, retention bake) with a selectable
             mitigation strategy over a process pool.
``info``     Show calibrated device/circuit parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

def _cmd_train(args: argparse.Namespace) -> int:
    from repro.analysis.efficiency import summarize_pipeline
    from repro.core.pipeline import FeBiMPipeline
    from repro.datasets import load_dataset, train_test_split
    from repro.devices.variation import VariationModel

    data = load_dataset(args.dataset)
    print(data.describe())
    X_tr, X_te, y_tr, y_te = train_test_split(
        data.data, data.target, test_size=args.test_size, seed=args.seed
    )
    variation = VariationModel.from_millivolts(args.sigma_vth_mv)
    pipe = FeBiMPipeline(
        q_f=args.qf, q_l=args.ql, variation=variation, seed=args.seed
    ).fit(X_tr, y_tr)
    rows, cols = pipe.engine_.shape
    print(f"crossbar: {rows} x {cols}, {pipe.engine_.spec.n_levels} states/cell")
    for mode in ("software", "quantized", "hardware"):
        print(f"accuracy [{mode:9s}] {pipe.score(X_te, y_te, mode=mode) * 100:6.2f} %")
    summary = summarize_pipeline(pipe, X_te, y_te)
    print(summary.format_lines())
    if args.save:
        from repro.io import save_model

        path = save_model(args.save, pipe.quantized_model_, pipe.engine_.spec)
        print(f"model artifact written to {path}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.bayes.discretize import FeatureDiscretizer
    from repro.core.engine import FeBiMEngine
    from repro.datasets import load_dataset, train_test_split
    from repro.io import load_model

    model, spec = load_model(args.model)
    engine = FeBiMEngine(model, spec=spec, seed=args.seed)
    data = load_dataset(args.dataset)
    X_tr, X_te, y_tr, y_te = train_test_split(
        data.data, data.target, test_size=args.test_size, seed=args.seed
    )
    widths = {t.shape[1] for t in model.likelihood_levels}
    if len(widths) != 1:
        print("error: artifact has heterogeneous evidence widths", file=sys.stderr)
        return 2
    disc = FeatureDiscretizer(widths.pop()).fit(X_tr)
    acc = engine.score(disc.transform(X_te), y_te)
    print(f"crossbar {engine.shape[0]} x {engine.shape[1]}")
    print(f"hardware accuracy on {args.dataset}: {acc * 100:.2f} %")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1_comparison import (
        format_table1_experiment,
        run_table1,
    )

    print(format_table1_experiment(run_table1(seed=args.seed)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.fig6_scalability import format_fig6, run_fig6

    print(format_fig6(run_fig6()))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.throughput import (
        format_throughput,
        run_throughput,
        throughput_to_dict,
    )

    try:
        batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    except ValueError:
        print("error: --batch-sizes must be comma-separated integers", file=sys.stderr)
        return 2
    if not batch_sizes or any(b < 1 for b in batch_sizes):
        print("error: --batch-sizes needs at least one integer >= 1", file=sys.stderr)
        return 2
    result = run_throughput(
        dataset=args.dataset,
        batch_sizes=batch_sizes,
        repeats=args.repeats,
        q_f=args.qf,
        q_l=args.ql,
        include_loop=not args.no_baseline,
        seed=args.seed,
        backend=args.backend,
        kernel=args.kernel,
    )
    if args.json:
        print(json.dumps(throughput_to_dict(result), indent=2))
    else:
        print(format_throughput(result))
    return 0


def _write_jsonl(path: str, rows) -> None:
    """Write dict rows (traces, events, metrics points) as strict JSONL."""
    import json

    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, allow_nan=False) + "\n")


def _emit_rows(args: argparse.Namespace, rows: list, noun: str, render,
               limit: Optional[int] = None) -> int:
    """The tail ``trace`` and ``events`` share: every row to ``--out``
    as JSONL, or the first ``limit`` printed one JSON object per line
    (``--json``) or rendered by ``render``."""
    import json

    if args.out:
        _write_jsonl(args.out, rows)
        print(f"{len(rows)} {noun} written to {args.out}")
    elif args.json:
        for row in rows[:limit]:
            print(json.dumps(row, allow_nan=False))
    else:
        print(render(rows[:limit]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.serving.scheduler import BatchPolicy
    from repro.serving.workload import (
        MAINTENANCE_S,
        Fault,
        Scenario,
        run_scenario,
        spike,
    )

    registry = args.registry
    common = dict(
        policy=BatchPolicy(max_batch=args.max_batch),
        n_requests=args.requests,
        submitters=args.submitters,
        trace_rate=args.trace_rate,
        metrics_s=0.1 if args.metrics_out else None,
        seed=args.seed,
    )
    try:
        if (args.workers or args.kill_worker) and not args.deployment:
            raise ValueError("--workers and --kill-worker need --deployment")
        if args.slo:
            registry = None
            scenario = dataclasses.replace(
                spike(trace_rate=args.trace_rate, seed=args.seed),
                metrics_s=common["metrics_s"],
            )
        elif args.deployment:
            from repro.io import load_deployment
            from repro.serving.deployment import PlacementSpec
            from repro.serving.registry import ModelRegistry

            if not args.registry:
                raise ValueError(
                    "--deployment needs --registry (the directory the "
                    "deployed model is registered in)"
                )
            deployment = load_deployment(args.deployment)
            if args.workers is not None:
                # Force the spec onto process placement without editing
                # the file.
                deployment = dataclasses.replace(
                    deployment,
                    placement=PlacementSpec(
                        kind="process", workers=args.workers
                    ).validate(),
                )
            registry = ModelRegistry(args.registry, backend=args.backend)
            scenario = Scenario(
                deployment=deployment,
                maintenance_s=MAINTENANCE_S if args.kill_worker else None,
                faults=(
                    (Fault("kill_worker", at=args.requests // 4),)
                    if args.kill_worker else ()
                ),
                **common,
            )
        else:
            scenario = Scenario(
                dataset=args.dataset,
                n_models=args.models,
                q_f=args.qf,
                q_l=args.ql,
                backend=args.backend,
                **common,
            )
        result = run_scenario(scenario, registry)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics_out:
        _write_jsonl(args.metrics_out, result.metrics)
        print(f"metrics time-series written to {args.metrics_out}")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.format())
        if args.report:
            print(f"drain clean: {result.telemetry.in_flight == 0}")
    return 0 if result.errors == 0 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.serving.observability import format_trace_dicts
    from repro.serving.workload import Scenario, run_scenario, spike

    if not 0.0 < args.rate <= 1.0:
        print("error: --rate must lie in (0, 1]", file=sys.stderr)
        return 2
    if args.slo:
        scenario = spike(trace_rate=args.rate, seed=args.seed)
    else:
        scenario = Scenario(
            n_models=args.models,
            n_requests=args.requests,
            submitters=args.submitters,
            seed=args.seed,
            trace_rate=args.rate,
        )
    traces = list(run_scenario(scenario).traces)
    return _emit_rows(args, traces, "traces", format_trace_dicts, args.limit)


def _cmd_events(args: argparse.Namespace) -> int:
    from repro.serving.observability import EVENT_KINDS, format_events
    from repro.serving.workload import run_scenario, spike

    kinds = None
    if args.kinds:
        kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
        unknown = kinds - EVENT_KINDS
        if unknown:
            print(
                f"error: unknown event kinds: {', '.join(sorted(unknown))} "
                f"(taxonomy: {', '.join(sorted(EVENT_KINDS))})",
                file=sys.stderr,
            )
            return 2
    result = run_scenario(
        spike(spike_factor=args.spike_factor, trace_rate=args.rate, seed=args.seed)
    )
    events = [
        e for e in result.flight if kinds is None or e["kind"] in kinds
    ]
    return _emit_rows(args, events, "events", format_events)


def _cmd_health(args: argparse.Namespace) -> int:
    import json

    from repro.serving.workload import format_health_run, run_health_workload

    if not 0.0 < args.warn_ratio <= 1.0:
        print("error: --warn-ratio must lie in (0, 1]", file=sys.stderr)
        return 2
    if args.drift_rate <= 0.0:
        print("error: --drift-rate must be > 0", file=sys.stderr)
        return 2
    result = run_health_workload(
        warn_ratio=args.warn_ratio,
        drift_rate=args.drift_rate,
        seed=args.seed,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"health run written to {args.out}")
        return 0
    if args.json:
        print(json.dumps(result.to_dict(), allow_nan=False))
    else:
        print(format_health_run(result))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    import json

    from repro.io import load_deployment
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import FeBiMServer

    try:
        deployment = load_deployment(args.spec)
    except (ValueError, OSError) as exc:
        print(f"error: invalid deployment spec: {exc}", file=sys.stderr)
        return 2
    registry = ModelRegistry(args.registry, backend=args.backend)
    if deployment.model not in registry:
        known = ", ".join(sorted(registry.list_models())) or "<none>"
        print(
            f"error: deployment model {deployment.model!r} is not in the "
            f"registry (registered: {known})",
            file=sys.stderr,
        )
        return 2
    if args.validate_only:
        print(f"spec OK: {deployment.describe()}")
        return 0
    # Dry-run apply: materialise and probe every replica exactly as a
    # live server would, then report the replica table.
    with FeBiMServer(registry, seed=args.seed) as server:
        try:
            applied = server.deploy(deployment)
        except (ValueError, KeyError) as exc:
            print(f"error: deployment failed to apply: {exc}", file=sys.stderr)
            return 2
        statuses = [s.to_dict() for s in server.router.status(deployment.model)]
    if args.json:
        print(
            json.dumps(
                {
                    "deployment": deployment.to_dict(),
                    "version": applied.version,
                    "replicas": statuses,
                },
                indent=2,
            )
        )
    else:
        print(f"applied: {deployment.model}@v{applied.version} "
              f"policy={deployment.policy.kind}")
        for status in statuses:
            print(
                f"  {status['replica']:26s} {status['state']:8s} "
                f"unit delay {status['unit_delay_s'] * 1e9:8.1f} ns  "
                f"weight {status['weight']:g}"
            )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serving.registry import ModelRegistry
    from repro.serving.scheduler import BatchPolicy
    from repro.serving.server import FeBiMServer

    try:
        levels = [int(v) for v in args.levels.split(",") if v.strip()]
    except ValueError:
        print("error: --levels must be comma-separated integers", file=sys.stderr)
        return 2
    if not levels:
        print("error: --levels needs at least one integer", file=sys.stderr)
        return 2
    registry = ModelRegistry(args.registry, backend=args.backend)
    if args.model not in registry:
        known = ", ".join(sorted(registry.list_models())) or "<none>"
        print(
            f"error: no model {args.model!r} in registry "
            f"(registered: {known})",
            file=sys.stderr,
        )
        return 2
    with FeBiMServer(
        registry,
        policy=BatchPolicy(max_batch=args.max_batch),
        seed=args.seed,
    ) as server:
        try:
            result = server.predict(
                args.model, levels, version=args.version, timeout=60.0
            )
        except (ValueError, KeyError) as exc:
            print(f"error: request rejected: {exc}", file=sys.stderr)
            return 2
        payload = {
            "model": result.model,
            "prediction": int(result.prediction),
            "delay_s": result.delay,
            "energy_j": result.energy_total,
            "batch_size": result.batch_size,
            "queue_wait_ms": result.queue_wait_s * 1e3,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"model       {payload['model']}")
        print(f"prediction  {payload['prediction']}")
        print(f"delay       {payload['delay_s'] * 1e9:.2f} ns")
        print(f"energy      {payload['energy_j'] * 1e15:.2f} fJ")
        print(
            f"served in a batch of {payload['batch_size']} after "
            f"{payload['queue_wait_ms']:.2f} ms queued"
        )
    return 0


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers") from None
    if not values:
        raise ValueError(f"{flag} needs at least one number")
    return values


def _cmd_reliability(args: argparse.Namespace) -> int:
    import json

    from repro.reliability.campaign import (
        CampaignConfig,
        aging_points,
        fault_rate_points,
        format_campaign,
        run_campaign,
    )
    from repro.devices.retention import RetentionModel

    # Every usage error follows the CLI contract: message on stderr,
    # exit code 2 — never a traceback or a bare SystemExit(1).
    try:
        if args.ages is not None:
            ages = _parse_float_list(args.ages, "--ages")
            if any(a < 0 for a in ages):
                raise ValueError("--ages must be >= 0")
            points = aging_points(ages)
        else:
            rates = _parse_float_list(args.rates, "--rates")
            if any(not 0.0 <= r <= 1.0 for r in rates):
                raise ValueError("--rates must lie in [0, 1]")
            points = fault_rate_points(rates)
        config = CampaignConfig(
            points=points,
            dataset=args.dataset,
            trials=args.trials,
            q_f=args.qf,
            q_l=args.ql,
            mitigation=args.mitigation,
            spare_rows=args.spare_rows,
            max_rows=args.max_rows,
            retention=RetentionModel(drift_rate=args.drift_rate_mv * 1e-3),
            backend=args.backend,
            shared_model=args.shared_model,
        )
        result = run_campaign(config, seed=args.seed, workers=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(format_campaign(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report, write_report

    if args.output:
        path = write_report(
            args.output, epochs=args.epochs, seed=args.seed, fast=args.fast
        )
        print(f"report written to {path}")
    else:
        print(generate_report(epochs=args.epochs, seed=args.seed, fast=args.fast))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.crossbar.parameters import CircuitParameters
    from repro.devices import FeFET, MultiLevelCellSpec, PulseProgrammer

    params = CircuitParameters()
    device = FeFET()
    print("operating point")
    print(f"  V_on/V_off/V_w      {params.v_on} / {params.v_off} / {params.v_write} V")
    print(f"  memory window       [{device.vth_low}, {device.vth_high}] V")
    print(f"  cell area           {params.cell_area * 1e12:.3f} um^2 (45 nm)")
    spec = MultiLevelCellSpec()
    currents = ", ".join(f"{c * 1e6:.1f}" for c in spec.level_currents())
    print(f"  2-bit state currents  [{currents}] uA at V_on")
    table = PulseProgrammer(device, spec).pulse_count_map()
    print(f"  write pulse counts  {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.backends import backend_names

    parser = argparse.ArgumentParser(
        prog="febim",
        description="FeBiM: FeFET in-memory Bayesian inference engine "
        "(DAC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--backend",
            default="fefet",
            choices=backend_names(),
            help="array technology to run on (default fefet)",
        )

    train = sub.add_parser("train", help="train, program and score a GNBC")
    train.add_argument("--dataset", default="iris", choices=["iris", "wine", "cancer"])
    train.add_argument("--qf", type=int, default=4, help="feature bits (default 4)")
    train.add_argument("--ql", type=int, default=2, help="likelihood bits (default 2)")
    train.add_argument("--test-size", type=float, default=0.7)
    train.add_argument("--sigma-vth-mv", type=float, default=0.0)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", metavar="PATH", help="write the model artifact JSON")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="score a saved model artifact")
    evaluate.add_argument("model", help="artifact path from 'train --save'")
    evaluate.add_argument("--dataset", default="iris", choices=["iris", "wine", "cancer"])
    evaluate.add_argument("--test-size", type=float, default=0.7)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=_cmd_eval)

    table1 = sub.add_parser("table1", help="regenerate the Table 1 comparison")
    table1.add_argument("--seed", type=int, default=0)
    table1.set_defaults(func=_cmd_table1)

    sweep = sub.add_parser("sweep", help="print the Fig. 6 scalability sweeps")
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser(
        "bench", help="measure batched read-path throughput (samples/sec)"
    )
    bench.add_argument("--dataset", default="iris", choices=["iris", "wine", "cancer"])
    bench.add_argument(
        "--batch-sizes",
        default="1,16,64,256",
        help="comma-separated batch sizes to sweep (default 1,16,64,256)",
    )
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--qf", type=int, default=4)
    bench.add_argument("--ql", type=int, default=2)
    bench.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the slow per-sample baseline loop",
    )
    bench.add_argument("--seed", type=int, default=0)
    add_backend_flag(bench)
    bench.add_argument(
        "--kernel",
        default="reference",
        choices=["reference", "gemm", "fused", "auto"],
        help="read kernel: reference (bit-identical default), gemm, "
        "fused, or auto (per-shape autotuner; choices land in --json)",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run a mixed-tenant online serving workload (micro-batching)",
    )
    serve.add_argument(
        "--dataset",
        default="iris",
        choices=["iris", "wine", "cancer", "synthetic"],
        help="tenant training data; 'synthetic' draws many-class blobs",
    )
    serve.add_argument("--models", type=int, default=2, help="tenant count")
    serve.add_argument("--requests", type=int, default=2048)
    serve.add_argument("--submitters", type=int, default=4)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--qf", type=int, default=4)
    serve.add_argument("--ql", type=int, default=2)
    serve.add_argument(
        "--registry", metavar="DIR", help="persist tenants here (default: temp dir)"
    )
    serve.add_argument(
        "--deployment",
        metavar="SPEC.json",
        help="drive the traffic through this deployment spec instead of "
        "auto-trained tenants (needs --registry with the model registered; "
        "see 'febim deploy'); 'placement: process' specs run on worker "
        "processes",
    )
    serve.add_argument(
        "--workers",
        type=int,
        help="with --deployment: force 'process' placement with this many "
        "workers, overriding the spec's placement block",
    )
    serve.add_argument(
        "--kill-worker",
        action="store_true",
        help="with a process-placed --deployment: SIGKILL one worker a "
        "quarter into the burst and report the supervised failover",
    )
    serve.add_argument(
        "--slo",
        action="store_true",
        help="run the SLO-driven autoscale demo instead: a bursty "
        "open-loop trace against a bounded-queue deployment whose "
        "controller grows/shrinks the replica set (exit 0 iff no "
        "request *failed*; load-shed is expected under the spike)",
    )
    serve.add_argument("--seed", type=int, default=0)
    add_backend_flag(serve)
    serve.add_argument(
        "--report",
        action="store_true",
        help="append the drain-clean verdict to the report",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the report",
    )
    serve.add_argument(
        "--trace-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="sample this fraction of requests into traces "
        "(arms observability; traces land in the --json output)",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's telemetry time-series as JSONL "
        "(arms observability; sampled every 100 ms, and on the "
        "maintenance cadence with --slo)",
    )
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="run a traced serving workload and print sampled request "
        "traces (admit/queue/execute span decomposition)",
    )
    trace.add_argument(
        "--rate",
        type=float,
        default=0.1,
        help="fraction of requests to trace (default 0.1)",
    )
    trace.add_argument(
        "--slo",
        action="store_true",
        help="trace the bursty autoscale workload instead of the plain "
        "mixed-tenant stream",
    )
    trace.add_argument("--models", type=int, default=2, help="tenant count")
    trace.add_argument("--requests", type=int, default=256)
    trace.add_argument("--submitters", type=int, default=4)
    trace.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="print only the first N traces",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--json", action="store_true", help="emit one JSON object per trace"
    )
    trace.add_argument(
        "--out", metavar="PATH", help="write the traces as JSONL instead"
    )
    trace.set_defaults(func=_cmd_trace)

    events = sub.add_parser(
        "events",
        help="replay the flight recorder from a bursty autoscale run "
        "(sheds, failovers, scale decisions in causal order)",
    )
    events.add_argument(
        "--kinds",
        metavar="K1,K2",
        help="comma-separated event kinds to keep (default: all)",
    )
    events.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="trace sample rate while the recorder runs (default 0.05)",
    )
    events.add_argument(
        "--spike-factor",
        type=float,
        default=12.0,
        help="arrival-rate multiplier during the spike (default 12)",
    )
    events.add_argument("--seed", type=int, default=0)
    events.add_argument(
        "--json", action="store_true", help="emit one JSON object per event"
    )
    events.add_argument(
        "--out", metavar="PATH", help="write the events as JSONL instead"
    )
    events.set_defaults(func=_cmd_events)

    health = sub.add_parser(
        "health",
        help="age a live deployment at a drift corner and print the "
        "per-replica device-health timeline (margin collapse -> "
        "early warning -> heal -> recovery)",
    )
    health.add_argument(
        "--warn-ratio",
        type=float,
        default=0.7,
        help="signal-ratio floor that arms the heal ladder in the "
        "early-warning phase (default 0.7)",
    )
    health.add_argument(
        "--drift-rate",
        type=float,
        default=0.2,
        help="retention drift per decade, volts (default 0.2: a leaky "
        "stack corner)",
    )
    health.add_argument("--seed", type=int, default=0)
    health.add_argument(
        "--json", action="store_true", help="emit the full run as one JSON object"
    )
    health.add_argument(
        "--out", metavar="PATH", help="write the run as JSON instead"
    )
    health.set_defaults(func=_cmd_health)

    deploy = sub.add_parser(
        "deploy",
        help="validate a deployment spec and dry-run apply it (replica table)",
    )
    deploy.add_argument("registry", help="registry directory holding the model")
    deploy.add_argument("spec", help="deployment spec JSON (see repro.io.save_deployment)")
    deploy.add_argument(
        "--validate-only",
        action="store_true",
        help="check the spec without materialising any replica",
    )
    deploy.add_argument("--seed", type=int, default=0)
    add_backend_flag(deploy)
    deploy.add_argument("--json", action="store_true", help="emit JSON")
    deploy.set_defaults(func=_cmd_deploy)

    submit = sub.add_parser(
        "submit", help="serve one request from a registry directory"
    )
    submit.add_argument("registry", help="registry directory (see 'serve --registry')")
    submit.add_argument("model", help="registered model name")
    submit.add_argument(
        "--levels",
        required=True,
        help="comma-separated discretised evidence levels, e.g. 3,0,1,2",
    )
    submit.add_argument("--version", type=int, help="pin a version (default latest)")
    submit.add_argument("--max-batch", type=int, default=64)
    submit.add_argument("--seed", type=int, default=0)
    add_backend_flag(submit)
    submit.add_argument("--json", action="store_true", help="emit JSON")
    submit.set_defaults(func=_cmd_submit)

    reliability = sub.add_parser(
        "reliability",
        help="run a Monte-Carlo fault/aging campaign with mitigation",
    )
    reliability.add_argument(
        "--dataset", default="iris", choices=["iris", "wine", "cancer"]
    )
    reliability.add_argument(
        "--rates",
        default="0,0.002,0.01,0.05",
        help="comma-separated stuck-cell fault rates to sweep (split "
        "evenly between stuck-on and stuck-off; default 0,0.002,0.01,0.05)",
    )
    reliability.add_argument(
        "--ages",
        metavar="SECONDS",
        help="sweep retention bake ages (seconds) instead of fault rates",
    )
    reliability.add_argument(
        "--drift-rate-mv",
        type=float,
        default=5.0,
        help="retention drift per decade for a half-switched state "
        "(mV; default the calibrated 5.0)",
    )
    reliability.add_argument("--trials", type=int, default=20)
    reliability.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign process-pool width (results are bit-identical "
        "at any worker count)",
    )
    reliability.add_argument(
        "--mitigation",
        default="none",
        choices=["none", "refresh", "spare-rows", "retire-tiles"],
    )
    reliability.add_argument(
        "--spare-rows",
        type=int,
        default=2,
        help="spare wordlines manufactured per array (spare-rows mode)",
    )
    reliability.add_argument(
        "--max-rows",
        type=int,
        help="tile row limit — builds tiled engines (required for "
        "retire-tiles)",
    )
    reliability.add_argument("--qf", type=int, default=4)
    reliability.add_argument("--ql", type=int, default=2)
    reliability.add_argument("--seed", type=int, default=0)
    add_backend_flag(reliability)
    reliability.add_argument(
        "--shared-model",
        action="store_true",
        help="train/quantise once per campaign, fresh hardware per "
        "trial (isolates hardware variance, ~2x faster; default "
        "retrains per trial for golden compatibility)",
    )
    reliability.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    reliability.set_defaults(func=_cmd_reliability)

    report = sub.add_parser(
        "report", help="regenerate the full evaluation (all figures + Table 1)"
    )
    report.add_argument("--epochs", type=int, default=20)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--fast", action="store_true", help="skip the slow grids")
    report.add_argument("--output", metavar="PATH", help="write to a file")
    report.set_defaults(func=_cmd_report)

    info = sub.add_parser("info", help="show calibrated device/circuit parameters")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``febim`` console script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
