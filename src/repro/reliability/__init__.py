"""Reliability: fault injection, aging, and repair for FeBiM arrays.

The paper validates FeBiM under programming-time V_TH variation
(Fig. 8c); this package covers the rest of the lifetime — the failure
modes a production deployment meets after programming:

* :mod:`repro.reliability.faults` — stuck-at cells, dead rows/columns
  (:class:`FaultInjector`), retention drift under a monotonic
  :class:`AgeClock`, and write wear (:class:`WearState`), all injected
  through the crossbar's cache-invalidating mutation API;
* :mod:`repro.reliability.campaign` — Monte-Carlo fault/aging sweeps
  over a ``multiprocessing`` pool with per-trial ``SeedSequence``
  streams (bit-identical at any worker count), reporting
  accuracy-vs-fault-rate and time-to-refresh curves;
* :mod:`repro.reliability.mitigation` — behavioural BIST detection plus
  the repair strategies: refresh-by-reprogram, spare-row remapping and
  tile retirement;
* :mod:`repro.reliability.observability` — hardware-plane telemetry:
  read-margin probes derived from batch reports
  (:class:`MarginProbe`), a bounded per-replica device-health ledger
  (:class:`DeviceHealthLedger`) and the aggregated
  :class:`HardwareGauges` the serving metrics exporter publishes.

The serving-side consumer is the heal ladder of
:meth:`repro.serving.Router.check_replica`, which runs canary inputs
against every live replica and triggers the same repairs
automatically.  See ``benchmarks/RELIABILITY.md`` for measured
curves and ``examples/reliability_demo.py`` for a walkthrough.
"""

from repro.reliability.campaign import (
    CampaignConfig,
    CampaignPoint,
    CampaignResult,
    TrialResult,
    aging_points,
    fault_rate_points,
    format_campaign,
    parallel_map,
    run_campaign,
    trial_seeds,
)
from repro.reliability.faults import (
    AgeClock,
    FaultInjector,
    FaultReport,
    FaultSpec,
    WearState,
    inject_into_engine,
)
from repro.reliability.mitigation import (
    MITIGATIONS,
    apply_mitigation,
    faulty_rows,
    refresh_engine,
    retire_faulty_tiles,
    scan_faulty_cells,
    spare_row_repair,
)
from repro.reliability.observability import (
    LEDGER_CAPACITY,
    DeviceHealthLedger,
    DeviceHealthSample,
    HardwareGauges,
    MarginProbe,
    MarginReading,
    format_health_timeline,
    margin_signal,
    report_currents,
    sample_margin,
)

__all__ = [
    "AgeClock",
    "CampaignConfig",
    "CampaignPoint",
    "CampaignResult",
    "DeviceHealthLedger",
    "DeviceHealthSample",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "HardwareGauges",
    "LEDGER_CAPACITY",
    "MITIGATIONS",
    "MarginProbe",
    "MarginReading",
    "TrialResult",
    "WearState",
    "format_health_timeline",
    "margin_signal",
    "report_currents",
    "sample_margin",
    "aging_points",
    "apply_mitigation",
    "fault_rate_points",
    "faulty_rows",
    "inject_into_engine",
    "format_campaign",
    "parallel_map",
    "refresh_engine",
    "retire_faulty_tiles",
    "run_campaign",
    "scan_faulty_cells",
    "spare_row_repair",
    "trial_seeds",
]
