"""Column organisation of the Bayesian crossbar (Fig. 3).

The array has ``k`` rows (one per event/class) and, left to right:

* one optional *prior* column (``BL_0``), activated on every inference —
  omitted when the prior is uniform (the paper omits it for iris,
  Fig. 8b);
* ``n`` *likelihood blocks*, one per evidence node; evidence node ``i``
  with ``m_i`` discrete values owns ``m_i`` columns, and evidence value
  ``b`` activates the block's ``b``-th column.

The paper's classifier uses a uniform ``m = 2^Qf`` for every feature,
but general Bayesian networks mix evidence arities, so the layout
accepts either a single ``n_levels`` or a per-feature sequence.

This module is pure bookkeeping: it translates (feature, level) pairs to
flat column indices and evidence vectors to activation masks.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_positive_int


class BayesianArrayLayout:
    """Prior-column + likelihood-block addressing.

    Parameters
    ----------
    n_features:
        Number of evidence nodes ``n``.
    n_levels:
        Discrete evidence values per node: a single int (uniform blocks)
        or a sequence of length ``n_features``.
    n_classes:
        Number of events ``k`` (rows).
    include_prior:
        Whether a prior column is materialised.
    """

    def __init__(
        self,
        n_features: int,
        n_levels: Union[int, Sequence[int]],
        n_classes: int,
        include_prior: bool = True,
    ):
        self.n_features = check_positive_int(n_features, "n_features")
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self.include_prior = bool(include_prior)
        if isinstance(n_levels, (int, np.integer)):
            widths = (check_positive_int(int(n_levels), "n_levels"),) * self.n_features
        else:
            widths = tuple(
                check_positive_int(int(m), f"n_levels[{i}]")
                for i, m in enumerate(n_levels)
            )
            if len(widths) != self.n_features:
                raise ValueError(
                    f"n_levels sequence length {len(widths)} != "
                    f"n_features {self.n_features}"
                )
        self.block_widths: Tuple[int, ...] = widths
        offset = self.n_prior_cols
        starts = []
        for width in widths:
            starts.append(offset)
            offset += width
        self._block_starts = tuple(starts)
        self._total_cols = offset
        # The batch path's bounds and offsets, built once.
        self._width_array = np.asarray(widths, dtype=np.uint64)
        self._start_array = np.asarray(starts, dtype=np.int64)

    # ------------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BayesianArrayLayout):
            return NotImplemented
        return (
            self.n_features == other.n_features
            and self.block_widths == other.block_widths
            and self.n_classes == other.n_classes
            and self.include_prior == other.include_prior
        )

    def __repr__(self) -> str:
        return (
            f"BayesianArrayLayout(features={self.n_features}, "
            f"widths={self.block_widths}, classes={self.n_classes}, "
            f"prior={self.include_prior})"
        )

    # ------------------------------------------------------------- geometry
    @property
    def n_levels(self) -> int:
        """Uniform block width; raises for heterogeneous layouts."""
        if len(set(self.block_widths)) != 1:
            raise ValueError(
                "layout has heterogeneous block widths; use block_widths"
            )
        return self.block_widths[0]

    @property
    def n_prior_cols(self) -> int:
        return 1 if self.include_prior else 0

    @property
    def total_cols(self) -> int:
        """Total bitlines: prior column + all likelihood blocks."""
        return self._total_cols

    @property
    def total_rows(self) -> int:
        return self.n_classes

    @property
    def prior_col(self) -> int:
        """Index of the prior column."""
        if not self.include_prior:
            raise ValueError("layout has no prior column (uniform prior omitted)")
        return 0

    def _check_feature(self, feature: int) -> None:
        if not 0 <= feature < self.n_features:
            raise ValueError(
                f"feature must lie in 0..{self.n_features - 1}, got {feature}"
            )

    def likelihood_col(self, feature: int, level: int) -> int:
        """Flat column index of evidence node ``feature`` at value ``level``."""
        self._check_feature(feature)
        width = self.block_widths[feature]
        if not 0 <= level < width:
            raise ValueError(
                f"level must lie in 0..{width - 1} for feature {feature}, "
                f"got {level}"
            )
        return self._block_starts[feature] + level

    def block_slice(self, feature: int) -> slice:
        """Column slice covering one likelihood block."""
        self._check_feature(feature)
        start = self._block_starts[feature]
        return slice(start, start + self.block_widths[feature])

    # ------------------------------------------------------------ activation
    def active_columns(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Boolean activation mask for one discretised sample.

        ``evidence_levels`` holds one level per feature; the prior column
        (when present) is always activated.
        """
        evidence_levels = np.asarray(evidence_levels, dtype=int)
        if evidence_levels.shape != (self.n_features,):
            raise ValueError(
                f"evidence_levels must have shape ({self.n_features},), "
                f"got {evidence_levels.shape}"
            )
        mask = np.zeros(self.total_cols, dtype=bool)
        if self.include_prior:
            mask[self.prior_col] = True
        for feature, level in enumerate(evidence_levels):
            mask[self.likelihood_col(feature, int(level))] = True
        return mask

    def active_columns_batch(self, evidence_levels: np.ndarray) -> np.ndarray:
        """Activation masks for a batch, shape ``(n_samples, total_cols)``."""
        evidence_levels = np.asarray(evidence_levels, dtype=np.int64)
        if evidence_levels.ndim != 2 or evidence_levels.shape[1] != self.n_features:
            raise ValueError(
                f"evidence_levels must have shape (n, {self.n_features}), "
                f"got {evidence_levels.shape}"
            )
        # One pass checks both bounds: read as unsigned, a negative
        # level is larger than any width.
        if (evidence_levels.view(np.uint64) >= self._width_array).any():
            raise ValueError("evidence level out of range")
        n = evidence_levels.shape[0]
        total = self.total_cols
        masks = np.zeros((n, total), dtype=bool)
        if self.include_prior:
            masks[:, self.prior_col] = True
        flat = evidence_levels + self._start_array
        flat += np.arange(0, n * total, total)[:, None]
        masks.put(flat, True)
        return masks

    @property
    def activated_per_inference(self) -> int:
        """Bitlines activated per inference: one per feature (+ prior)."""
        return self.n_features + self.n_prior_cols

    def column_labels(self) -> List[str]:
        """Human-readable per-column labels (for state-map displays)."""
        labels = ["prior"] if self.include_prior else []
        for f, width in enumerate(self.block_widths):
            labels.extend(f"f{f}:b{v}" for v in range(width))
        return labels
