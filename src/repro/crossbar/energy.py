"""Inference energy model (Fig. 6b/6d; Table 1's 17.20 fJ/inference).

Combines the array-side driver energies (:mod:`repro.crossbar.drivers`)
with the sensing-side mirror/WTA energies
(:class:`repro.crossbar.sensing.SensingModule`), mirroring the paper's
"Array" vs "Sensing" stacked bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.crossbar.drivers import (
    bitline_switch_energy,
    conduction_energy,
    wordline_bias_energy,
)
from repro.crossbar.parameters import CircuitParameters
from repro.crossbar.timing import DelayModel


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-inference energy split (joules), Fig. 6 style.

    ``array`` covers the WL/BL drivers and cell conduction; ``sensing``
    the current mirrors and WTA circuit.
    """

    bitline: float
    wordline: float
    conduction: float
    mirrors: float
    wta: float

    @property
    def array(self) -> float:
        return self.bitline + self.wordline + self.conduction

    @property
    def sensing(self) -> float:
        return self.mirrors + self.wta

    @property
    def total(self) -> float:
        return self.array + self.sensing


@dataclass(frozen=True)
class BatchEnergyBreakdown:
    """Energy split of a batch of inferences: one entry per sample.

    Mirrors :class:`EnergyBreakdown` with ``(n_samples,)`` arrays in
    every field; the derived ``array``/``sensing``/``total`` properties
    combine them with the same arithmetic, so ``batch.total[i]`` is
    bit-identical to the matching per-sample ``EnergyBreakdown.total``.
    The :class:`~repro.backends.fefet.FeFETBackend` cost pass builds it
    (see ``FeFETBackend.inference_cost_batch``).
    """

    bitline: np.ndarray
    wordline: np.ndarray
    conduction: np.ndarray
    mirrors: np.ndarray
    wta: np.ndarray

    @property
    def array(self) -> np.ndarray:
        return self.bitline + self.wordline + self.conduction

    @property
    def sensing(self) -> np.ndarray:
        return self.mirrors + self.wta

    @cached_property
    def total(self) -> np.ndarray:
        """``array + sensing`` per sample, computed on the first read
        and kept: a served batch reads it once per row."""
        return self.array + self.sensing

    def __len__(self) -> int:
        return self.bitline.shape[0]

    def sample(self, i: int) -> EnergyBreakdown:
        """The ``i``-th sample's breakdown as a scalar :class:`EnergyBreakdown`."""
        return EnergyBreakdown(
            bitline=float(self.bitline[i]),
            wordline=float(self.wordline[i]),
            conduction=float(self.conduction[i]),
            mirrors=float(self.mirrors[i]),
            wta=float(self.wta[i]),
        )


class EnergyModel:
    """Single-inference energy of the FeBiM macro."""

    def __init__(self, params: Optional[CircuitParameters] = None):
        self.params = params or CircuitParameters()
        self._delay_model = DelayModel(self.params)

    def inference_energy(
        self,
        rows: int,
        cols: int,
        n_active_bls: int,
        wordline_currents: np.ndarray,
        delay: Optional[float] = None,
    ) -> EnergyBreakdown:
        """Energy breakdown for one inference.

        Parameters
        ----------
        rows, cols:
            Array geometry.
        n_active_bls:
            Bitlines activated for this inference (n features + prior,
            or all columns in the Fig. 6 stress sweeps).
        wordline_currents:
            The accumulated I_WL vector of this inference (amperes).
        delay:
            Inference duration; computed from the delay model's worst
            case when omitted.
        """
        currents = np.asarray(wordline_currents, dtype=float)
        if delay is None:
            i_total = float(currents.sum())
            delay = self._delay_model.inference_delay(
                rows, cols, i_total=max(i_total, 1e-12)
            )
        params = self.params
        mirrors = rows * params.e_mirror_per_row + (
            2.0 * params.mirror_ratio * float(currents.sum()) * params.v_dd * delay
        )
        return EnergyBreakdown(
            bitline=bitline_switch_energy(params, rows, n_active_bls),
            wordline=wordline_bias_energy(params, rows, cols),
            conduction=conduction_energy(params, currents, delay),
            mirrors=mirrors,
            wta=rows * params.e_wta_per_row,
        )

    def stress_energy(self, rows: int, cols: int) -> EnergyBreakdown:
        """Fig. 6-style energy with *all* bitlines activated.

        Every cell conducts near mid-range (the sweeps program random
        states), so I_WL ~ cols * 0.55 uA per row.
        """
        i_wl = np.full(rows, cols * 0.55e-6)
        return self.inference_energy(rows, cols, n_active_bls=cols, wordline_currents=i_wl)
