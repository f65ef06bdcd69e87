"""Inference delay model (Fig. 6a/6c).

Delay is measured as the time from bitline activation to a resolved WTA
winner in the worst case (minimum gap between adjacent wordline
currents).  The behavioural decomposition:

* fixed front-end overhead (clocking, BL drivers) — ``t_base``;
* wordline settling, proportional to the attached column count (wire/
  junction capacitance) — ``t_per_col * cols``;
* WTA common-node loading, proportional to the competing row count —
  ``t_per_row * rows``;
* gap-dependent WTA resolution, logarithmic in the ratio of the total
  competing current to the worst-case adjacent gap — ``t_gap_coeff *
  ln(I_total / delta_I)``.

Constants are calibrated so the Fig. 6 sweeps land on the paper's ranges
(200 -> ~800 ps over 2-256 columns at 2 rows; 200 -> ~1000 ps over 2-32
rows at 32 columns); see EXPERIMENTS.md for measured-vs-paper values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crossbar.parameters import CircuitParameters
from repro.utils.validation import check_positive, check_positive_int


class DelayModel:
    """Worst-case single-inference latency of the FeBiM macro."""

    def __init__(self, params: Optional[CircuitParameters] = None):
        self.params = params or CircuitParameters()

    def wordline_settling(self, cols: int) -> float:
        """WL settling component (seconds)."""
        check_positive_int(cols, "cols")
        return self.params.t_per_col * cols

    def wta_loading(self, rows: int) -> float:
        """WTA common-node loading component (seconds)."""
        check_positive_int(rows, "rows")
        return self.params.t_per_row * rows

    def fixed_delay(self, rows: int, cols: int) -> float:
        """The part of every inference's delay the geometry alone sets:
        front-end overhead, WL settling and WTA loading (seconds).

        Summed in the order :meth:`inference_delay` adds them, so a
        caller that adds the gap-dependent part to this once-computed
        value gets the same bits as the full method.
        """
        return (
            self.params.t_base
            + self.wordline_settling(cols)
            + self.wta_loading(rows)
        )

    @staticmethod
    def default_delta_i(i_cell_max: float = 1.0e-6, levels: int = 4) -> float:
        """The worst-case adjacent-gap default: one cell LSB (amperes).

        Shared by :meth:`inference_delay` (when ``delta_i`` is omitted)
        and the energy model's batch path, so the two can never drift.
        """
        return i_cell_max * 0.9 / max(levels - 1, 1)

    def gap_resolution(self, i_total: float, delta_i: float) -> float:
        """Gap-dependent WTA resolution component (seconds).

        ``i_total`` is the summed competing current, ``delta_i`` the
        worst-case gap between adjacent wordline currents (one LSB of the
        cell spec unless measured currents say otherwise).
        """
        check_positive(i_total, "i_total")
        check_positive(delta_i, "delta_i")
        ratio = max(i_total / delta_i, 1.0)
        return self.params.t_gap_coeff * float(np.log(ratio))

    def inference_delay(
        self,
        rows: int,
        cols: int,
        i_total: Optional[float] = None,
        delta_i: Optional[float] = None,
        i_cell_max: float = 1.0e-6,
        levels: int = 4,
    ) -> float:
        """Total worst-case inference delay (seconds).

        When ``i_total``/``delta_i`` are omitted, the worst case is
        constructed from the geometry: every activated cell conducting
        near mid-range and adjacent wordlines separated by a single cell
        LSB (``i_cell_max / (levels - 1)`` and change).
        """
        check_positive_int(rows, "rows")
        check_positive_int(cols, "cols")
        if i_total is None:
            i_total = rows * cols * 0.55 * i_cell_max
        if delta_i is None:
            delta_i = self.default_delta_i(i_cell_max, levels)
        return self.fixed_delay(rows, cols) + self.gap_resolution(i_total, delta_i)

    def gap_resolution_batch(self, i_total: np.ndarray, delta_i: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`gap_resolution` over per-sample currents/gaps.

        Both arguments broadcast; every element equals the scalar method
        applied to the corresponding ``(i_total, delta_i)`` pair
        bit-for-bit (same ``max`` clamp, same ``log``).
        """
        i_total = np.asarray(i_total, dtype=float)
        delta_i = np.asarray(delta_i, dtype=float)
        if np.any(i_total <= 0):
            raise ValueError("i_total must be positive")
        if np.any(delta_i <= 0):
            raise ValueError("delta_i must be positive")
        ratio = np.maximum(i_total / delta_i, 1.0)
        return self.params.t_gap_coeff * np.log(ratio)

    def inference_delay_batch(
        self,
        rows: int,
        cols: int,
        i_total: np.ndarray,
        delta_i: np.ndarray,
    ) -> np.ndarray:
        """Per-sample worst-case delays for a batch of inferences.

        ``i_total``/``delta_i`` hold one entry per sample (shapes
        broadcast); the result stacks :meth:`inference_delay` over the
        samples without the per-sample Python overhead.  The summation
        order matches the scalar method exactly, keeping batched delays
        bit-identical to the legacy loop.
        """
        return self.fixed_delay(rows, cols) + self.gap_resolution_batch(
            i_total, delta_i
        )

    def column_sweep(self, rows: int, col_counts) -> np.ndarray:
        """Delay per column count (the Fig. 6a series), seconds."""
        return np.array(
            [self.inference_delay(rows, int(c)) for c in col_counts]
        )

    def row_sweep(self, cols: int, row_counts) -> np.ndarray:
        """Delay per row count (the Fig. 6c series), seconds."""
        return np.array(
            [self.inference_delay(int(r), cols) for r in row_counts]
        )
