"""Reliability walkthrough: break a FeBiM array every way it can break.

A programmed crossbar is only the *start* of its life.  This demo walks
one iris engine through the lifetime failure modes the
:mod:`repro.reliability` subsystem models, and the repairs that answer
each one:

1. **stuck-at cells** (manufacturing / wear-out defects) — detected by
   a behavioural BIST scan, repaired by remapping rows onto spare
   wordlines;
2. **retention drift** (bake time) — the read margin collapses
   common-mode long before accuracy moves; repaired by
   refresh-by-reprogram;
3. **write wear** (endurance) — the memory window narrows with
   cumulative program cycles until the spec's top state is physically
   unreachable;
4. **self-healing serving** — the same faults hit a *live served*
   model: caller-installed canaries (``Router.install_canaries``)
   detect, the router's heal ladder (``Router.check_replica``)
   escalates refresh -> replace, traffic returns to bit-identical
   results.

Run with::

    PYTHONPATH=src python examples/reliability_demo.py
"""

import tempfile

import numpy as np

from repro import (
    AgeClock,
    FaultInjector,
    FaultSpec,
    FeBiMPipeline,
    FeBiMServer,
    ModelRegistry,
    WearState,
    load_iris,
    train_test_split,
)
from repro.devices import RetentionModel
from repro.reliability import refresh_engine, scan_faulty_cells, spare_row_repair


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main() -> None:
    data = load_iris()
    X_tr, X_te, y_tr, y_te = train_test_split(
        data.data, data.target, test_size=0.7, seed=0
    )
    # Manufacture the array with 2 spare wordlines for repair.
    pipe = FeBiMPipeline(q_f=4, q_l=2, spare_rows=2, seed=0).fit(X_tr, y_tr)
    engine = pipe.engine_
    levels = pipe.transform_levels(X_te)
    y = np.asarray(y_te)

    def acc() -> float:
        return engine.score(levels, y)

    pristine = acc()
    print(f"programmed {engine.crossbar!r}")
    print(f"pristine hardware accuracy: {pristine * 100:.2f} %")

    banner("1. stuck-at cells -> BIST scan -> spare-row remap")
    FaultInjector(engine.crossbar, seed=7).inject(
        FaultSpec(stuck_on_rate=0.02, stuck_off_rate=0.02)
    )
    print(f"injected {engine.crossbar.stuck_fault_count()} stuck cells")
    print(f"degraded accuracy: {acc() * 100:.2f} %")
    flagged = scan_faulty_cells(engine.crossbar)
    print(f"BIST scan flags {int(flagged.sum())} cells "
          f"in rows {np.flatnonzero(flagged.any(axis=1)).tolist()}")
    repaired = spare_row_repair(engine)
    print(f"remapped rows {repaired} onto spares "
          f"(row map {engine.crossbar.row_map().tolist()})")
    print(f"repaired accuracy: {acc() * 100:.2f} %")

    banner("2. retention drift -> margin collapse -> refresh")
    clock = AgeClock(engine.crossbar, RetentionModel(drift_rate=0.02))
    signal = lambda: float(np.mean(engine.read_batch(levels).max(axis=1)))
    fresh_signal = signal()
    for age in (1e4, 3.15e7, 3.15e8):
        clock.advance(age - clock.age_s)
        print(f"  after {age:>9.3g} s: accuracy {acc() * 100:6.2f} %, "
              f"read signal {signal() / fresh_signal * 100:5.1f} % of fresh")
    refresh_engine(engine, clock)
    print(f"refresh-by-reprogram: accuracy {acc() * 100:.2f} %, "
          f"signal {signal() / fresh_signal * 100:.1f} % of fresh")

    banner("3. write wear -> window narrows -> programming fails")
    wear = WearState(engine.crossbar)
    template = engine.crossbar.template
    print(f"pristine window: {template.vth_high - template.vth_low:.2f} V")
    wear.add_cycles(1e10)
    template = engine.crossbar.template
    print(f"after 1e10 cycles: {template.vth_high - template.vth_low:.2f} V "
          f"(accuracy now {acc() * 100:.2f} %)")
    try:
        engine.crossbar.program_cell(0, 0, engine.spec.n_levels - 1)
    except ValueError as exc:
        print(f"reprogram to top state correctly fails: {exc}")

    banner("4. self-healing serving: canary detect -> refresh -> replace")
    served_pipe = FeBiMPipeline(q_f=4, q_l=2, seed=0).fit(X_tr, y_tr)
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        served_pipe.register_into(registry, "iris")
        with FeBiMServer(registry, seed=42) as server:
            server.router.max_current_shift = 0.05
            canaries = served_pipe.transform_levels(X_te[:32])
            server.router.install_canaries("iris", canaries)
            print(f"canaries installed: "
                  f"{server.router.check_replica('iris', 0)}")
            live = server.engine_for("iris")
            masks = live.layout.active_columns_batch(canaries)
            column = int(np.argmax(masks.sum(axis=0)))
            FaultInjector(live.crossbar, seed=5).inject_dead_column(
                column, mode="off"
            )
            print(f"killed bitline {column} of the live engine")
            report = server.router.check_replica("iris", 0)
            print(f"sweep: shift {report.current_shift * 100:.1f} % -> "
                  f"action={report.action}, healed={report.healed}")
            final = server.router.check_replica("iris", 0)
            print(f"post-heal sweep: {final.action} "
                  f"(accuracy {final.accuracy * 100:.0f} %)")
            print(server.stats().format_lines())


if __name__ == "__main__":
    main()
