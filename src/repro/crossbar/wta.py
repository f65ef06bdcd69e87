"""Winner-take-all sensing (Sec. 3.2; validated in Fig. 5c).

Two levels of modelling:

* :class:`WinnerTakeAll` — the behavioural model used in application
  benchmarking: pick the wordline with maximum mirrored current (exact
  argmax, optionally with mirror mismatch applied upstream).
* :func:`wta_transient` — a dynamical model of the compact cross-
  inhibiting current-mode WTA (the CosIME-style circuit the paper
  adopts): cell output currents evolve under replicator-style
  competition for a shared bias current, so the largest input's output
  rises toward the full bias while losers collapse.  This reproduces the
  Fig. 5(c) transient: distinguishable winner in < ~300 ps for paper-like
  current gaps, with resolution time growing as the gap shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


class WinnerTakeAll:
    """Behavioural WTA: one-hot winner detection over wordline currents.

    Parameters
    ----------
    ties:
        ``"lowest"`` (default) resolves exact ties to the lowest index —
        deterministic, mirroring a fixed circuit asymmetry; ``"error"``
        raises instead, for tests that must not silently tie.
    """

    def __init__(self, ties: str = "lowest"):
        if ties not in ("lowest", "error"):
            raise ValueError(f"ties must be 'lowest' or 'error', got {ties!r}")
        self.ties = ties

    def winner(self, currents: np.ndarray) -> int:
        """Index of the maximum current."""
        currents = np.asarray(currents, dtype=float)
        if currents.ndim != 1 or currents.size == 0:
            raise ValueError("currents must be a non-empty 1-D array")
        top = int(np.argmax(currents))
        if self.ties == "error":
            if np.sum(currents == currents[top]) > 1:
                raise ValueError("tie between wordline currents")
        return top

    def one_hot(self, currents: np.ndarray) -> np.ndarray:
        """One-hot output vector (the circuit's I_out pattern)."""
        currents = np.asarray(currents, dtype=float)
        out = np.zeros_like(currents)
        out[self.winner(currents)] = 1.0
        return out

    def winner_batch(self, currents: np.ndarray) -> np.ndarray:
        """Winner index per sample for a ``(n_samples, n_inputs)`` batch.

        Vectorised argmax with the same tie semantics as :meth:`winner`:
        exact ties resolve to the lowest index (or raise for
        ``ties="error"``).  An empty batch returns an empty index array.
        """
        currents = np.asarray(currents, dtype=float)
        if currents.ndim != 2 or currents.shape[1] == 0:
            raise ValueError(
                "currents must be a (n_samples, n_inputs) array with at "
                f"least one input, got shape {currents.shape}"
            )
        winners = np.argmax(currents, axis=1)
        if self.ties == "error" and currents.shape[0]:
            top = currents[np.arange(currents.shape[0]), winners]
            if np.any(np.sum(currents == top[:, None], axis=1) > 1):
                raise ValueError("tie between wordline currents")
        return winners

    def one_hot_batch(self, currents: np.ndarray) -> np.ndarray:
        """Per-sample one-hot decisions, shape ``(n_samples, n_inputs)``."""
        currents = np.asarray(currents, dtype=float)
        winners = self.winner_batch(currents)
        out = np.zeros_like(currents)
        out[np.arange(currents.shape[0]), winners] = 1.0
        return out

    def margin(self, currents: np.ndarray) -> float:
        """Winner-to-runner-up current gap (amperes); 0 when < 2 inputs."""
        currents = np.asarray(currents, dtype=float)
        if currents.size < 2:
            return 0.0
        ordered = np.sort(currents)
        return float(ordered[-1] - ordered[-2])


@dataclass(frozen=True)
class WTATransientResult:
    """Transient solution of the WTA competition.

    Attributes
    ----------
    time:
        Time points (seconds).
    outputs:
        Output currents, shape ``(n_cells, len(time))`` (amperes).
    winner:
        Index of the cell that won.
    resolution_time:
        First time the winner's output exceeds ``resolve_fraction`` of
        the bias current while every loser is below the loser threshold;
        ``inf`` when unresolved within the simulated window.
    """

    time: np.ndarray
    outputs: np.ndarray
    winner: int
    resolution_time: float

    @property
    def resolved(self) -> bool:
        return np.isfinite(self.resolution_time)


def wta_transient(
    input_currents: np.ndarray,
    i_bias: float = 8e-6,
    tau: float = 25e-12,
    t_stop: float = 600e-12,
    n_points: int = 1201,
    resolve_fraction: float = 0.9,
    loser_fraction: float = 0.1,
    seed_spread: float = 1e-3,
) -> WTATransientResult:
    """Simulate the WTA cells' output-current competition.

    The state is each cell's share ``x_i`` of the bias current (outputs
    start nearly equal).  The dynamics are the current-mode competition

        tau dx_i/dt = x_i * (I_i - sum_j x_j I_j / sum_j x_j) / I_scale

    — cells whose input exceeds the population's weighted mean grow at
    the expense of the rest, which is the small-signal behaviour of a
    shared-source current-mode WTA.  ``I_scale`` is the mean input, so
    the resolution time scales with the *relative* gap, matching the
    worst-case (minimum adjacent-gap) delay measurements of Fig. 6.

    Parameters
    ----------
    input_currents:
        Wordline currents entering the WTA (amperes).
    i_bias:
        Total output bias current (the Fig. 5c output scale, ~8 uA).
    tau:
        Competition time constant (seconds).
    resolve_fraction, loser_fraction:
        Output thresholds declaring the winner resolved.
    seed_spread:
        Tiny initial asymmetry (fraction) so exact ties break
        deterministically toward the lowest index.
    """
    # Imported on use: no serving or programming path needs the ODE solver.
    from scipy.integrate import solve_ivp

    currents = np.asarray(input_currents, dtype=float)
    if currents.ndim != 1 or currents.size < 2:
        raise ValueError("need at least two input currents")
    if np.any(currents < 0):
        raise ValueError("input currents must be non-negative")
    check_positive(i_bias, "i_bias")
    check_positive(tau, "tau")
    check_positive(t_stop, "t_stop")
    if not 0.0 < loser_fraction < resolve_fraction < 1.0:
        raise ValueError("need 0 < loser_fraction < resolve_fraction < 1")

    n = currents.size
    i_scale = float(np.mean(currents)) or 1e-12
    x0 = np.full(n, 1.0 / n)
    # Deterministic tie-breaking asymmetry favouring lower indices.
    x0 *= 1.0 + seed_spread * np.linspace(1.0, 0.0, n)
    x0 /= x0.sum()

    def rhs(_t, x):
        x = np.maximum(x, 1e-12)
        mean_fitness = float(np.dot(x, currents) / x.sum())
        return x * (currents - mean_fitness) / (tau * i_scale)

    t_eval = np.linspace(0.0, t_stop, n_points)
    sol = solve_ivp(
        rhs, (0.0, t_stop), x0, t_eval=t_eval, method="RK45", rtol=1e-7, atol=1e-12
    )
    shares = np.clip(sol.y, 0.0, None)
    totals = shares.sum(axis=0)
    totals[totals == 0] = 1.0
    shares = shares / totals[None, :]
    outputs = i_bias * shares

    winner = int(np.argmax(shares[:, -1]))
    win_ok = shares[winner] >= resolve_fraction
    losers = np.delete(shares, winner, axis=0)
    lose_ok = (
        np.all(losers <= loser_fraction, axis=0)
        if losers.size
        else np.ones_like(win_ok, dtype=bool)
    )
    resolved = win_ok & lose_ok
    resolution_time = float(t_eval[np.argmax(resolved)]) if resolved.any() else float("inf")

    return WTATransientResult(
        time=t_eval, outputs=outputs, winner=winner, resolution_time=resolution_time
    )
