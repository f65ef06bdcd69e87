"""Tree-augmented naive Bayes (TAN) and its crossbar mapping.

The paper's conclusion points at "a broad range of Bayesian inference
applications" beyond the plain naive classifier.  TAN (Friedman et al.,
1997) is the canonical first step: each feature may additionally depend
on one other feature, with the dependency tree chosen as the maximum
spanning tree of class-conditional mutual information (Chow-Liu).

FeBiM maps TAN with a block-widening trick: a feature whose likelihood
is ``P(B_i | parent(B_i), A)`` gets a block of ``m_parent * m_i``
columns — one per *joint* (parent value, own value) evidence pair — and
an inference activates the column matching the observed joint value.
Everything downstream (Eq. 5 accumulation, WTA) is unchanged, because
the wordline still sums exactly one activated cell per block.  Arbitrary
per-feature block widths are exactly what
:class:`~repro.crossbar.layout.BayesianArrayLayout` supports.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int


def conditional_mutual_information(
    xi: np.ndarray, xj: np.ndarray, y: np.ndarray, mi_levels: int, mj_levels: int
) -> float:
    """I(X_i; X_j | Y) from integer-coded samples (natural log)."""
    xi = np.asarray(xi, dtype=int)
    xj = np.asarray(xj, dtype=int)
    y = np.asarray(y)
    classes = np.unique(y)
    n = len(y)
    total = 0.0
    for cls in classes:
        sel = y == cls
        n_c = int(sel.sum())
        if n_c == 0:
            continue
        joint = np.zeros((mi_levels, mj_levels))
        np.add.at(joint, (xi[sel], xj[sel]), 1.0)
        joint /= n_c
        pi = joint.sum(axis=1, keepdims=True)
        pj = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(joint > 0, joint / (pi * pj), 1.0)
            contrib = np.where(joint > 0, joint * np.log(ratio), 0.0)
        total += (n_c / n) * float(contrib.sum())
    return max(total, 0.0)


class TreeAugmentedNaiveBayes:
    """TAN over integer-coded features (Chow-Liu structure learning).

    Parameters
    ----------
    n_levels:
        Levels per feature (uniform, as produced by the discretiser).
    alpha:
        Laplace smoothing for the (joint) frequency counts.

    Attributes (after :meth:`fit`)
    ------------------------------
    parents_:
        ``parents_[i]`` is feature i's tree parent or ``None`` for the
        root.
    tables_:
        For the root: ``(k, m)`` with P(B_root | A).  For others:
        ``(k, m_parent * m)`` with P(B_i | parent value, A) laid out
        parent-major (column ``p * m + v``), each ``m``-wide slice
        normalised per (class, parent value).
    """

    def __init__(self, n_levels: int, alpha: float = 1.0):
        self.n_levels = check_positive_int(n_levels, "n_levels")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alpha = float(alpha)

    # ------------------------------------------------------------ structure
    def _chow_liu_tree(self, X: np.ndarray, y: np.ndarray) -> List[Optional[int]]:
        # Imported on use, so that importing repro does not load networkx.
        import networkx as nx

        n_features = X.shape[1]
        if n_features == 1:
            return [None]
        graph = nx.Graph()
        graph.add_nodes_from(range(n_features))
        for i in range(n_features):
            for j in range(i + 1, n_features):
                weight = conditional_mutual_information(
                    X[:, i], X[:, j], y, self.n_levels, self.n_levels
                )
                graph.add_edge(i, j, weight=weight)
        tree = nx.maximum_spanning_tree(graph)
        parents: List[Optional[int]] = [None] * n_features
        for parent, child in nx.bfs_edges(tree, source=0):
            parents[child] = parent
        return parents

    # ---------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "TreeAugmentedNaiveBayes":
        X = np.asarray(X, dtype=int)
        y = np.asarray(y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be 2-D with matching y")
        if np.any(X < 0) or np.any(X >= self.n_levels):
            raise ValueError(f"levels must lie in 0..{self.n_levels - 1}")

        self.classes_, counts = np.unique(y, return_counts=True)
        self.class_prior_ = counts / counts.sum()
        k = len(self.classes_)
        m = self.n_levels
        self.parents_ = self._chow_liu_tree(X, y)

        self.tables_: List[np.ndarray] = []
        for f, parent in enumerate(self.parents_):
            if parent is None:
                table = np.full((k, m), self.alpha)
                for idx, cls in enumerate(self.classes_):
                    vals, c = np.unique(X[y == cls, f], return_counts=True)
                    table[idx, vals] += c
                table /= table.sum(axis=1, keepdims=True)
            else:
                table = np.full((k, m * m), self.alpha)
                for idx, cls in enumerate(self.classes_):
                    sel = y == cls
                    joint_idx = X[sel, parent] * m + X[sel, f]
                    vals, c = np.unique(joint_idx, return_counts=True)
                    table[idx, vals] += c
                # Normalise each m-wide slice: P(B_f | parent=p, A).
                reshaped = table.reshape(k, m, m)
                reshaped /= reshaped.sum(axis=2, keepdims=True)
                table = reshaped.reshape(k, m * m)
            self.tables_.append(table)
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "tables_"):
            raise RuntimeError("model is not fitted; call fit() first")

    # ------------------------------------------------------------ inference
    def evidence_columns(self, X: np.ndarray) -> np.ndarray:
        """Per-feature activated column within each block.

        Root features address their own value; augmented features the
        joint ``parent_value * m + own_value`` column — this is exactly
        the evidence vector the crossbar layout consumes.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=int)
        if X.ndim != 2 or X.shape[1] != len(self.parents_):
            raise ValueError(
                f"X must have shape (n, {len(self.parents_)}), got {X.shape}"
            )
        cols = np.empty_like(X)
        for f, parent in enumerate(self.parents_):
            if parent is None:
                cols[:, f] = X[:, f]
            else:
                cols[:, f] = X[:, parent] * self.n_levels + X[:, f]
        return cols

    def block_widths(self) -> List[int]:
        """Crossbar block width per feature (m or m^2)."""
        self._check_fitted()
        return [t.shape[1] for t in self.tables_]

    def joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        """log P(A) + sum_f log P(B_f | parent, A)."""
        cols = self.evidence_columns(X)
        jll = np.tile(np.log(self.class_prior_), (X.shape[0], 1))
        for f, table in enumerate(self.tables_):
            jll += np.log(table[:, cols[:, f]]).T
        return jll

    def predict(self, X: np.ndarray) -> np.ndarray:
        """MAP class labels."""
        self._check_fitted()
        return self.classes_[np.argmax(self.joint_log_likelihood(X), axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # --------------------------------------------------------------- engine
    def to_engine(
        self,
        q_l: int = 2,
        clip_decades: float = 1.0,
        seed: RngLike = None,
        **engine_kwargs,
    ) -> Tuple["object", "TreeAugmentedNaiveBayes"]:
        """Quantise and program this TAN onto a FeBiM engine.

        Returns ``(engine, self)``; feed the engine
        :meth:`evidence_columns` output as its evidence levels.
        """
        from repro.core.engine import FeBiMEngine
        from repro.core.quantization import quantize_model

        self._check_fitted()
        model = quantize_model(
            self.tables_,
            self.class_prior_,
            n_levels=2**q_l,
            clip_decades=clip_decades,
            classes=self.classes_,
        )
        engine = FeBiMEngine(model, seed=seed, **engine_kwargs)
        return engine, self
