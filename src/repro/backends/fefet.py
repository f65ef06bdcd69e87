"""The reference backend: the paper's multi-level FeFET crossbar.

:class:`FeFETBackend` is a thin adapter over
:class:`~repro.crossbar.array.FeFETCrossbar` — it owns one, forwards
the protocol surface to it verbatim and implements the cost model as
one pass over the calibrated :class:`~repro.crossbar.timing.DelayModel`
/ :class:`~repro.crossbar.energy.EnergyModel` arithmetic, bit-identical
to the values the engine computed before the backend abstraction
existed.  Construction order matters
and is preserved: the crossbar's variation offsets are drawn inside
its constructor from the ``seed`` stream passed through unchanged, so
an engine built through this backend is **bit-identical** to the
pre-refactor engine (the iris goldens pin this).

This is the only backend with the full capability set: stuck-at
faults, retention drift, endurance wear (template swap), spare-row
repair and per-read noise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends.base import ArrayBackend, Capability, CapabilityError
from repro.backends.registry import register_backend
from repro.crossbar.array import FeFETCrossbar
from repro.crossbar.drivers import bitline_switch_energy, wordline_bias_energy
from repro.crossbar.energy import BatchEnergyBreakdown
from repro.crossbar.parameters import CircuitParameters
from repro.crossbar.timing import DelayModel
from repro.devices.fefet import FeFET, MultiLevelCellSpec
from repro.devices.variation import VariationModel
from repro.utils.rng import RngLike


@register_backend
class FeFETBackend(ArrayBackend):
    """The FeFET crossbar as an :class:`ArrayBackend`.

    Parameters mirror :class:`~repro.crossbar.array.FeFETCrossbar`;
    every argument is forwarded, none is ignored.
    """

    name = "fefet"
    capabilities = frozenset(
        {
            Capability.STUCK_FAULTS,
            Capability.VTH_DRIFT,
            Capability.WEAR,
            Capability.SPARE_ROWS,
            Capability.READ_NOISE,
            # Default reads are noise-free (sigma_read=0), so margins
            # are analytic; with read noise configured the probe
            # reports that configuration's expected-read margin.
            Capability.MARGIN_PROBE,
            # Affine tables over the cached (I_on, I_off) device-physics
            # reads; refused at runtime when per-read noise is
            # configured (tables would silently drop the noise).
            Capability.FUSED_READ,
        }
    )

    def __init__(
        self,
        rows: int,
        cols: int,
        spec: Optional[MultiLevelCellSpec] = None,
        params: Optional[CircuitParameters] = None,
        template: Optional[FeFET] = None,
        variation: Optional[VariationModel] = None,
        seed: RngLike = None,
        spare_rows: int = 0,
        kernel_dtype: str = "float64",
    ):
        if kernel_dtype not in ("float64", "float32"):
            raise ValueError(
                f"kernel_dtype must be 'float64' or 'float32', "
                f"got {kernel_dtype!r}"
            )
        self.crossbar = FeFETCrossbar(
            rows=rows,
            cols=cols,
            spec=spec,
            template=template,
            variation=variation,
            params=params,
            seed=seed,
            spare_rows=spare_rows,
        )
        self.spec = self.crossbar.spec
        self.params = self.crossbar.params
        # Compute dtype of the opt-in GEMM/fused kernel tables only —
        # the native (reference) read path is untouched by it.  float32
        # halves the table bandwidth where not even approximate
        # current values are contractual; winners stay parity-gated.
        self.kernel_dtype = kernel_dtype
        self._delay_model = DelayModel(self.params)
        self._terms: dict = {}

    # ------------------------------------------------------------- geometry
    @property
    def rows(self) -> int:
        return self.crossbar.rows

    @property
    def cols(self) -> int:
        return self.crossbar.cols

    @property
    def state_version(self) -> int:
        return self.crossbar.state_version

    # ---------------------------------------------------------- programming
    def program(self, level_matrix: np.ndarray) -> None:
        self.crossbar.program_matrix(level_matrix)

    def programmed_levels(self) -> np.ndarray:
        return self.crossbar.programmed_levels()

    # ----------------------------------------------------------------- reads
    def wordline_currents(
        self, active_cols: np.ndarray, read_noise_seed: RngLike = None
    ) -> np.ndarray:
        return self.crossbar.wordline_currents(active_cols, read_noise_seed)

    def wordline_currents_batch(
        self, active_cols: np.ndarray, read_noise_seed: RngLike = None
    ) -> np.ndarray:
        return self.crossbar.wordline_currents_batch(active_cols, read_noise_seed)

    def current_matrix(self) -> np.ndarray:
        return self.crossbar.current_matrix()

    def read_tables(self):
        """Affine tables over the cached ``(I_on, I_off)`` matrices.

        Refused when the variation model configures per-read noise:
        the tables describe the *noise-free* read, and serving them
        would silently return expectation winners where the contract
        is one stochastic draw per read.  Cached per crossbar
        ``state_version`` alongside the read-current cache the tables
        are derived from.
        """
        from repro.kernels.tables import FloatReadTables

        if self.crossbar.variation.sigma_read > 0.0:
            raise CapabilityError(
                self.name,
                Capability.FUSED_READ,
                "per-read noise is configured (sigma_read > 0); the "
                "fused kernels serve noise-free reads only",
            )
        cache = getattr(self, "_read_tables_cache", None)
        if cache is None or cache[0] != self.crossbar.state_version:
            i_on, i_off = self.crossbar.read_current_matrices()
            tables = FloatReadTables(i_on, i_off, dtype=self.kernel_dtype)
            self._read_tables_cache = (self.crossbar.state_version, tables)
        return self._read_tables_cache[1]

    # ------------------------------------------------------------ cost model
    def _cost_terms(self, n_active_bls: int) -> tuple:
        """The cost-model terms no read changes, computed once per
        engine (and activation count): the geometry part of the delay,
        the gap fallback and floor, and the per-sample driver, mirror
        and WTA energies."""
        terms = self._terms.get(n_active_bls)
        if terms is None:
            params, rows, cols = self.params, self.rows, self.cols
            terms = self._terms[n_active_bls] = (
                self._delay_model.fixed_delay(rows, cols),
                self.spec.level_separation(),
                1e-9 * self.spec.i_min,
                bitline_switch_energy(params, rows, n_active_bls),
                wordline_bias_energy(params, rows, cols),
                rows * params.e_mirror_per_row,
                rows * params.e_wta_per_row,
            )
        return terms

    def inference_cost_batch(
        self, wordline_currents: np.ndarray, n_active_bls: int
    ) -> Tuple[np.ndarray, BatchEnergyBreakdown]:
        """The calibrated FeBiM delay/energy models (Fig. 6), in one pass.

        Per sample: the top-two gap with the ``gap or one LSB`` tie
        fallback, floored at ``1e-9 * i_min``; the delay
        ``fixed + t_gap_coeff * ln(max(I_total / gap, 1))`` with
        ``I_total`` clamped at 1e-12 A; then the conduction and mirror
        energies from the same row sums.  Each row's currents are summed
        once, the geometry terms come from :meth:`_cost_terms`, and only
        the input is checked (a negative current raises ``ValueError``):
        the clamps make every intermediate positive, so nothing is
        checked twice.  Every value is bit-identical to composing
        :meth:`~repro.crossbar.timing.DelayModel.inference_delay_batch`
        with the energy model's per-sample arithmetic, which is how the
        engine computed it before (the golden and property tests keep
        that composition as the reference).
        """
        currents = np.asarray(wordline_currents, dtype=float)
        rows = self.rows
        if currents.ndim != 2 or currents.shape[1] != rows:
            raise ValueError(
                f"wordline_currents must have shape (n, {rows}), "
                f"got {currents.shape}"
            )
        if currents.min(initial=0.0) < 0:
            raise ValueError("wordline currents must be non-negative")
        fixed, separation, floor, bitline, wordline, mirror, wta = (
            self._cost_terms(n_active_bls)
        )
        params = self.params
        n = currents.shape[0]
        if rows > 1:
            top_two = np.partition(currents, rows - 2, axis=1)[:, rows - 2:]
            gaps = top_two[:, 1] - top_two[:, 0]
            gaps[gaps == 0.0] = separation
            np.maximum(gaps, floor, out=gaps)
        else:
            gaps = np.full(n, max(separation, floor))
        sums = currents.sum(axis=1)
        delay = np.maximum(sums, 1e-12)
        delay /= gaps
        np.maximum(delay, 1.0, out=delay)
        np.log(delay, out=delay)
        delay *= params.t_gap_coeff
        delay += fixed
        conduction = sums * params.v_wl_read
        conduction *= delay
        mirrors = 2.0 * params.mirror_ratio * sums
        mirrors *= params.v_dd
        mirrors *= delay
        mirrors += mirror
        return delay, BatchEnergyBreakdown(
            bitline=np.full(n, bitline),
            wordline=np.full(n, wordline),
            conduction=conduction,
            mirrors=mirrors,
            wta=np.full(n, wta),
        )

    # ``stage2_cost`` is inherited: the ArrayBackend default *is* the
    # paper's analog current-mode second-stage WTA, this backend's own
    # physics — kept in one place so the calibration cannot diverge.

    # --------------------------------------------------------------- health
    def bist_scan(self, tolerance: Optional[float] = None) -> np.ndarray:
        """Behavioural BIST against each cell's programmed target
        (:meth:`~repro.crossbar.array.FeFETCrossbar.bist_scan` — the
        cached noise-free verify read vs the spec's level currents)."""
        return self.crossbar.bist_scan(tolerance)

    # ------------------------------------------------------- mutation hooks
    def inject_stuck_faults(
        self,
        stuck_on: Optional[np.ndarray] = None,
        stuck_off: Optional[np.ndarray] = None,
    ) -> None:
        self.crossbar.inject_stuck_faults(stuck_on=stuck_on, stuck_off=stuck_off)

    def clear_stuck_faults(self) -> None:
        self.crossbar.clear_stuck_faults()

    def stuck_fault_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.crossbar.stuck_fault_masks()

    def stuck_fault_count(self) -> int:
        return self.crossbar.stuck_fault_count()

    def apply_vth_drift(self, delta: np.ndarray) -> None:
        self.crossbar.apply_vth_drift(delta)

    def clear_vth_drift(self) -> None:
        self.crossbar.clear_vth_drift()

    def polarization_matrix(self) -> np.ndarray:
        return self.crossbar.polarization_matrix()

    @property
    def template(self) -> FeFET:
        return self.crossbar.template

    def set_template(self, template: FeFET) -> None:
        self.crossbar.set_template(template)

    @property
    def spare_rows_free(self) -> int:
        return self.crossbar.spare_rows_free

    def remap_row(self, row: int) -> int:
        return self.crossbar.remap_row(row)
