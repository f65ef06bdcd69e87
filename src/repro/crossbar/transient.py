"""Macro-level inference transient: WL settling coupled into the WTA.

The behavioural :class:`~repro.crossbar.timing.DelayModel` gives the
*calibrated worst-case* latency; this module produces the actual
waveform a SPECTRE run would show (the paper's Fig. 5c, but for the
whole macro): each wordline's current rises with an RC time constant set
by its attached column capacitance, and those rising currents drive the
replicator-style WTA competition.  The result exposes *when* the winner
becomes distinguishable for a real activation pattern, including the
transient hazard where an early-settling loser briefly leads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.crossbar.parameters import CircuitParameters
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MacroTransientResult:
    """Full-macro inference transient.

    Attributes
    ----------
    time:
        Time points (seconds).
    wordline_currents:
        Settling I_WL(t), shape ``(rows, len(time))``.
    wta_outputs:
        WTA output currents, same shape.
    winner:
        Final winner index.
    resolution_time:
        First time the winner holds >= ``resolve_fraction`` of the bias
        and keeps it to the end (guards against transient hazards).
    """

    time: np.ndarray
    wordline_currents: np.ndarray
    wta_outputs: np.ndarray
    winner: int
    resolution_time: float

    @property
    def resolved(self) -> bool:
        return np.isfinite(self.resolution_time)


def macro_transient(
    final_currents: np.ndarray,
    cols: int,
    params: Optional[CircuitParameters] = None,
    r_driver: float = 2e4,
    i_bias: float = 8e-6,
    tau_wta: float = 25e-12,
    t_stop: float = 1.2e-9,
    n_points: int = 1201,
    resolve_fraction: float = 0.9,
    settle_spread: float = 0.15,
) -> MacroTransientResult:
    """Simulate one full inference: WL settling + WTA competition.

    Parameters
    ----------
    final_currents:
        Steady-state wordline currents (amperes) — e.g. from
        :meth:`FeFETCrossbar.wordline_currents`.
    cols:
        Attached columns per wordline (sets the WL capacitance and hence
        the settling time constant ``tau = r_driver * cols * c_wl``).
    r_driver:
        Effective wordline driver/source resistance (ohms).
    settle_spread:
        Fractional spread of per-row settling constants (layout skew);
        deterministically alternates so the *losing* rows can settle
        first and create the transient-hazard scenario.
    """
    # Imported on use: no serving or programming path needs the ODE solver.
    from scipy.integrate import solve_ivp

    currents = np.asarray(final_currents, dtype=float)
    if currents.ndim != 1 or currents.size < 2:
        raise ValueError("need at least two wordline currents")
    if np.any(currents < 0):
        raise ValueError("currents must be non-negative")
    check_positive(cols, "cols")
    check_positive(t_stop, "t_stop")
    params = params or CircuitParameters()

    n = currents.size
    tau_wl = r_driver * cols * params.c_wl_per_cell
    # Deterministic per-row skew: even rows fast, odd rows slow.
    skew = 1.0 + settle_spread * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    taus = np.maximum(tau_wl * skew, 1e-15)

    t_eval = np.linspace(0.0, t_stop, n_points)
    # I_WL(t): first-order settling toward the steady state.
    settling = currents[:, None] * (1.0 - np.exp(-t_eval[None, :] / taus[:, None]))

    i_scale = float(np.mean(currents)) or 1e-12
    x0 = np.full(n, 1.0 / n)
    x0 *= 1.0 + 1e-3 * np.linspace(1.0, 0.0, n)
    x0 /= x0.sum()

    def rhs(t, x):
        x = np.maximum(x, 1e-12)
        inst = currents * (1.0 - np.exp(-t / taus))
        mean_fitness = float(np.dot(x, inst) / x.sum())
        return x * (inst - mean_fitness) / (tau_wta * i_scale)

    sol = solve_ivp(
        rhs, (0.0, t_stop), x0, t_eval=t_eval, method="RK45", rtol=1e-7, atol=1e-12
    )
    shares = np.clip(sol.y, 0.0, None)
    totals = shares.sum(axis=0)
    totals[totals == 0] = 1.0
    shares /= totals[None, :]
    outputs = i_bias * shares

    winner = int(np.argmax(shares[:, -1]))
    held = shares[winner] >= resolve_fraction
    # Resolution = the start of the final contiguous held window.
    if held[-1]:
        idx = len(held) - 1
        while idx > 0 and held[idx - 1]:
            idx -= 1
        resolution_time = float(t_eval[idx])
    else:
        resolution_time = float("inf")

    return MacroTransientResult(
        time=t_eval,
        wordline_currents=settling,
        wta_outputs=outputs,
        winner=winner,
        resolution_time=resolution_time,
    )
