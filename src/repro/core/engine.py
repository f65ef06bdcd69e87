"""The FeBiM in-memory Bayesian inference engine (Sec. 3, Fig. 3).

:class:`FeBiMEngine` owns a programmed :class:`FeFETCrossbar`, its column
layout and its sensing module.  Inference is one "cycle": activate one
bitline per evidence node (plus the prior column when present), read the
accumulated wordline currents — which *are* the quantised log-posteriors
— and let the WTA pick the winner.

The engine also reports per-inference delay/energy through the calibrated
circuit models and exposes the programmed state map (Fig. 8b).

Batched inference API
---------------------

The macro performs one inference per read cycle, and the simulator
serves whole request streams the same way: densely batched.
:meth:`FeBiMEngine.infer_batch` takes ``(n_samples, n_features)``
evidence levels and pushes the entire batch through every layer in one
vectorised pass — activation masks
(:meth:`~repro.crossbar.layout.BayesianArrayLayout.active_columns_batch`),
wordline reads
(:meth:`~repro.crossbar.array.FeFETCrossbar.wordline_currents_batch`
over the array's cached per-cell current matrices), WTA decisions
(:meth:`~repro.crossbar.sensing.SensingModule.decide_batch`), and the
backend's cost model
(:meth:`~repro.backends.base.ArrayBackend.inference_cost_batch`, one
pass over the batch on the FeFET backend) — returning a
:class:`BatchInferenceReport` with per-sample predictions, currents,
delays and an energy breakdown.

The batch path is *bit-identical* to per-sample inference under a fixed
seed (enforced by ``tests/property/test_batch_equivalence.py``):
:meth:`FeBiMEngine.predict` and :meth:`FeBiMEngine.infer_one` are thin
wrappers over the same batch core, and per-read noise is drawn once per
batch in the exact order the per-sample loop would consume it.

Hardware backends
-----------------

The engine is technology-agnostic: it owns the layout, the sensing
module and the quantised model, and addresses the array itself only
through the :class:`~repro.backends.base.ArrayBackend` protocol —
programming, (batched) wordline reads and the per-technology
delay/energy cost model all live behind ``self.backend``, constructed
by name through :func:`repro.backends.create`.  The default
``"fefet"`` backend wraps the paper's
:class:`~repro.crossbar.array.FeFETCrossbar` bit-identically (the iris
goldens pin this); ``"ideal"``, ``"cmos"`` and ``"memristor"`` swap in
alternative technologies under the same engine, serving and
reliability stack.  For the FeFET backend, :attr:`FeBiMEngine.crossbar`
still exposes the underlying array; other backends raise a clear error
there — address ``engine.backend`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backends.base import CapabilityError
from repro.backends.registry import create as create_backend
from repro.core.mapping import ProbabilityMapper, levels_to_currents
from repro.core.quantization import QuantizedBayesianModel
from repro.crossbar.parameters import CircuitParameters
from repro.crossbar.sensing import SensingModule
from repro.devices.fefet import FeFET, MultiLevelCellSpec
from repro.devices.variation import VariationModel
from repro.kernels import (
    KERNEL_CHOICES,
    KernelAutotuner,
    KernelContext,
    default_pool,
    get_kernel,
)
from repro.utils.rng import RngLike, spawn_rngs


@dataclass(frozen=True)
class InferenceReport:
    """Per-inference circuit-level summary.

    Attributes
    ----------
    prediction:
        Winning class label.
    wordline_currents:
        The accumulated I_WL vector (amperes) — the analog posterior.
    delay:
        Worst-case inference latency (seconds).
    energy:
        Energy breakdown (array vs sensing), joules.
    """

    prediction: int
    wordline_currents: np.ndarray
    delay: float
    energy: object  # EnergyBreakdown (fefet) or SimpleEnergy (other backends)


@dataclass(frozen=True)
class BatchInferenceReport:
    """Circuit-level summary of a batch of inferences (one read cycle each).

    Attributes
    ----------
    predictions:
        Winning class label per sample, shape ``(n_samples,)``.
    winners:
        Winning wordline index per sample (row into the array).
    wordline_currents:
        Accumulated I_WL per sample, shape ``(n_samples, rows)`` (amperes).
    delay:
        Worst-case inference latency per sample (seconds).
    energy:
        Per-sample energy report: a
        :class:`~repro.crossbar.energy.BatchEnergyBreakdown` from the
        FeFET backend, a total-only
        :class:`~repro.backends.base.SimpleBatchEnergy` from the
        others — both expose ``total`` and ``sample(i)``.
    """

    predictions: np.ndarray
    winners: np.ndarray
    wordline_currents: np.ndarray
    delay: np.ndarray
    energy: object

    def __len__(self) -> int:
        return self.predictions.shape[0]

    def sample(self, i: int) -> InferenceReport:
        """The ``i``-th sample's result as a scalar :class:`InferenceReport`."""
        return InferenceReport(
            prediction=int(self.predictions[i]),
            wordline_currents=self.wordline_currents[i],
            delay=float(self.delay[i]),
            energy=self.energy.sample(i),
        )


class FeBiMEngine:
    """A programmed FeBiM macro ready for in-memory inference.

    Parameters
    ----------
    model:
        The quantised Bayesian model to program.
    spec:
        Multi-level cell spec (defaults to 4 levels over 0.1-1.0 uA; must
        match the model's quantisation level count).
    variation:
        FeFET V_TH variation for robustness studies; ideal by default.
    params:
        Circuit operating point / calibration constants.
    template:
        Template FeFET device (physics).
    mirror_gain_sigma:
        Current-mirror mismatch in the sensing module.
    spare_rows:
        Extra physical wordlines manufactured for spare-row repair
        (:meth:`~repro.crossbar.array.FeFETCrossbar.remap_row`); zero by
        default, which reproduces the plain engine bit-for-bit.  Only
        valid on backends declaring the ``spare-rows`` capability.
    seed:
        Seed for the stochastic draws.  It is split into independent
        child streams (:func:`~repro.utils.rng.spawn_rngs`) for the
        backend's variation/read-noise draws and the sensing module's
        mirror-mismatch draw, so the two noise sources are never
        correlated by a shared seed.
    backend:
        Array technology, by registry name (``"fefet"`` — the
        default, bit-identical reference — ``"ideal"``, ``"cmos"``,
        ``"memristor"``, or any :func:`repro.backends.register_backend`
        registration).
    backend_options:
        Extra keyword arguments forwarded to the backend constructor
        (e.g. ``{"n_cycles": 255}`` for ``"memristor"``).  A
        ``"kernel"`` entry is consumed by the engine itself (see
        ``kernel``), so serving deployments can select a kernel purely
        through their per-replica backend options.
    kernel:
        Read-kernel selection (:mod:`repro.kernels`):
        ``"reference"`` (default — the backend's own elementwise read,
        bit-identical to every golden), ``"gemm"`` (one BLAS matmul
        over the backend's affine read tables), ``"fused"`` (blocked
        read+decide, never materialising per-row currents on the
        winners-only path), or ``"auto"`` (per-shape autotuner).  The
        fast modes need the backend's ``fused-read`` capability and
        are contractually argmax-parity-equal, not bit-identical, in
        their reported currents; ``"auto"`` degrades to the reference
        kernel where tables are unavailable (e.g. configured per-read
        noise), explicit fast modes raise.
    """

    def __init__(
        self,
        model: QuantizedBayesianModel,
        spec: Optional[MultiLevelCellSpec] = None,
        variation: Optional[VariationModel] = None,
        params: Optional[CircuitParameters] = None,
        template: Optional[FeFET] = None,
        mirror_gain_sigma: float = 0.0,
        spare_rows: int = 0,
        seed: RngLike = None,
        backend: str = "fefet",
        backend_options: Optional[dict] = None,
        kernel: Optional[str] = None,
    ):
        self.model = model
        self.spec = spec or MultiLevelCellSpec(n_levels=model.quantizer.n_levels)
        self.params = params or CircuitParameters()
        self.backend_name = str(backend)
        mapper = ProbabilityMapper(self.spec)
        self.level_matrix, self.layout = mapper.level_matrix(model)

        # The spawn order predates the backend abstraction: stream 0
        # feeds the array (the FeFET backend's variation draw happens
        # inside its constructor, exactly where the crossbar's used
        # to), stream 1 the sensing module — bit-identical to the
        # pre-backend engine.
        backend_rng, sensing_rng = spawn_rngs(seed, 2)
        # backend_options may carry its own spare_rows (a deployment's
        # ReplicaSpec provisioning spares on one replica) — it wins
        # over the constructor default rather than colliding with it.
        options = dict(backend_options or {})
        # The kernel knob travels either as the explicit constructor
        # argument or inside backend_options (the serving layer's
        # per-replica channel); the explicit argument wins.  Popped
        # before construction — it configures the engine's read path,
        # not the backend.
        options_kernel = options.pop("kernel", None)
        if kernel is None:
            kernel = options_kernel if options_kernel is not None else "reference"
        kernel = str(kernel)
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from "
                f"{', '.join(KERNEL_CHOICES)}"
            )
        options.setdefault("spare_rows", spare_rows)
        self.backend = create_backend(
            self.backend_name,
            rows=self.layout.total_rows,
            cols=self.layout.total_cols,
            spec=self.spec,
            params=self.params,
            template=template,
            variation=variation,
            seed=backend_rng,
            **options,
        )
        self.backend.program(self.level_matrix)
        self.sensing = SensingModule(
            self.layout.total_rows,
            params=self.params,
            mirror_gain_sigma=mirror_gain_sigma,
            seed=sensing_rng,
        )
        # Resolve the kernel against the backend's capabilities now:
        # an engine must fail (or degrade) at construction, not on the
        # first read of a serving deployment.  The probe builds the
        # read tables once and draws no randomness.
        self._scratch_pool = default_pool()
        self._autotuner: Optional[KernelAutotuner] = None
        if kernel != "reference":
            try:
                self.backend.read_tables()
            except CapabilityError:
                if kernel != "auto":
                    raise
                kernel = "reference"
        self.kernel_name = kernel
        if kernel == "auto":
            self._autotuner = KernelAutotuner()

    @property
    def crossbar(self):
        """The underlying :class:`~repro.crossbar.array.FeFETCrossbar`.

        Only the FeFET reference backend has one; technology-agnostic
        code should address :attr:`backend` instead.
        """
        xbar = getattr(self.backend, "crossbar", None)
        if xbar is None:
            raise AttributeError(
                f"backend {self.backend_name!r} has no FeFET crossbar; "
                f"address engine.backend through the ArrayBackend "
                f"protocol instead"
            )
        return xbar

    # ---------------------------------------------------------------- reads
    def wordline_currents(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Measured I_WL for one discretised sample (amperes)."""
        mask = self.layout.active_columns(evidence_levels)
        return self.backend.wordline_currents(mask)

    def ideal_wordline_currents(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Theoretical I_WL from the spec's target currents (Fig. 5a).

        Sums the *ideal* level currents of the activated cells — no
        device physics, variation or leakage.
        """
        evidence_levels = np.asarray(evidence_levels, dtype=int)
        scores = self.model.level_scores(evidence_levels[None, :])[0]
        n_active = self.layout.activated_per_inference
        # n_active cells per row, each i_min + level * step: the sum is
        # affine in the level sum.
        return n_active * self.spec.i_min + scores * self.spec.level_separation()

    # ------------------------------------------------------------ inference
    def _batch_levels(self, evidence_levels: np.ndarray) -> np.ndarray:
        evidence_levels = np.asarray(evidence_levels, dtype=int)
        if evidence_levels.ndim == 1:
            evidence_levels = evidence_levels[None, :]
        return evidence_levels

    def _kernel_context(self) -> KernelContext:
        return KernelContext(
            tables=self.backend.read_tables(),
            pool=self._scratch_pool,
            native_read=self.backend.wordline_currents_batch,
        )

    def _resolve_kernel(self, masks: np.ndarray) -> str:
        """The concrete kernel for this batch (``auto`` -> tuned choice)."""
        if self.kernel_name != "auto":
            return self.kernel_name
        return self._autotuner.choose(
            self._kernel_context(), masks, self.sensing.mirrors.gains
        )

    def read_batch(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Measured I_WL for a batch of samples, shape ``(n, rows)``.

        The batch form of :meth:`wordline_currents`: masks for the whole
        batch are derived in one shot and the array is read through the
        selected kernel — the backend's own cached elementwise read on
        the default ``reference`` kernel, the affine GEMM on the opt-in
        fast modes.
        """
        masks = self.layout.active_columns_batch(self._batch_levels(evidence_levels))
        kernel = self._resolve_kernel(masks)
        if kernel == "reference":
            return self.backend.wordline_currents_batch(masks)
        return get_kernel(kernel).currents(self._kernel_context(), masks)

    def winners_batch(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Winning wordline index per sample — the winners-only entry.

        The fused read+decide path: masks are derived once and the
        selected kernel returns the argmax directly, so callers that
        only need decisions (:meth:`predict`, :meth:`score`) never
        materialise per-row currents on the fast kernels.  On the
        reference kernel this is exactly read + sensing decision,
        bit-identical to the historical path.
        """
        masks = self.layout.active_columns_batch(self._batch_levels(evidence_levels))
        kernel = self._resolve_kernel(masks)
        if kernel == "reference":
            return self.sensing.decide_batch(
                self.backend.wordline_currents_batch(masks)
            )
        return get_kernel(kernel).winners(
            self._kernel_context(), masks, row_scale=self.sensing.mirrors.gains
        )

    def predict(self, evidence_levels: np.ndarray) -> np.ndarray:
        """In-memory MAP predictions for a batch of discretised samples.

        Fully vectorised through :meth:`winners_batch`: one batched
        (possibly fused) wordline read plus one batched WTA decision,
        with no per-sample Python iteration.
        """
        return self.model.classes[self.winners_batch(evidence_levels)]

    def kernel_report(self) -> dict:
        """The active kernel and the autotuner's per-shape decisions.

        ``kernel`` is the resolved selection mode; ``choices`` lists
        one record per tuned shape class (empty unless ``auto``).
        """
        return {
            "kernel": self.kernel_name,
            "choices": self._autotuner.report() if self._autotuner else [],
        }

    def infer_batch(self, evidence_levels: np.ndarray) -> BatchInferenceReport:
        """Batched inference with full circuit-level reporting.

        Accepts ``(n_samples, n_features)`` evidence levels (a single
        1-D sample is treated as a batch of one; an empty batch returns
        empty per-sample arrays) and evaluates predictions, wordline
        currents, worst-case delays and energy breakdowns for the whole
        batch in one vectorised pass per layer.  Results are
        bit-identical to looping :meth:`infer_one` over the samples.
        """
        evidence_levels = self._batch_levels(evidence_levels)
        currents = self.read_batch(evidence_levels)
        winners = self.sensing.decide_batch(currents)
        # Delay/energy are the technology's own circuit model: the
        # FeFET backend reproduces the calibrated Fig. 6 models
        # bit-for-bit, the others charge their own physics (bitstream
        # cycles, DRAM fetches, ...).
        delay, energy = self.backend.inference_cost_batch(
            currents, self.layout.activated_per_inference
        )
        return BatchInferenceReport(
            predictions=self.model.classes[winners],
            winners=winners,
            wordline_currents=currents,
            delay=delay,
            energy=energy,
        )

    def infer_one(self, evidence_levels: np.ndarray) -> InferenceReport:
        """Single inference with full circuit-level reporting.

        Thin wrapper over :meth:`infer_batch` with a batch of one — the
        batch path *is* the implementation.
        """
        evidence_levels = np.asarray(evidence_levels, dtype=int)
        if evidence_levels.shape != (self.layout.n_features,):
            raise ValueError(
                f"evidence_levels must have shape ({self.layout.n_features},), "
                f"got {evidence_levels.shape}"
            )
        return self.infer_batch(evidence_levels[None, :]).sample(0)

    def score(self, evidence_levels: np.ndarray, y: np.ndarray) -> float:
        """In-memory classification accuracy."""
        y = np.asarray(y)
        return float(np.mean(self.predict(evidence_levels) == y))

    # ------------------------------------------------------------- reporting
    def state_map(self) -> np.ndarray:
        """Programmed ideal I_DS per cell (amperes) — Fig. 8(b)."""
        currents = np.zeros(self.level_matrix.shape)
        programmed = self.level_matrix >= 0
        currents[programmed] = levels_to_currents(
            self.level_matrix[programmed], self.spec
        )
        return currents

    def measured_state_map(self) -> np.ndarray:
        """Measured I_DS per cell with all columns activated (amperes)."""
        return self.backend.current_matrix()

    @property
    def shape(self) -> tuple:
        """(rows, cols) of the programmed array."""
        return (self.backend.rows, self.backend.cols)

    @property
    def n_features(self) -> int:
        """Evidence width a request must have (serving-layer contract)."""
        return self.layout.n_features

    def __repr__(self) -> str:
        rows, cols = self.shape
        return (
            f"FeBiMEngine({rows}x{cols} {self.backend_name} array, "
            f"{self.spec.n_levels} levels, "
            f"prior_column={self.layout.include_prior})"
        )
