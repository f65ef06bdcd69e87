"""Small discrete Bayesian networks.

The paper motivates FeBiM with Bayesian networks (Fig. 2 shows a network
with two evidence nodes and two events; the cited applications include
medical diagnosis).  This module implements a general discrete Bayesian
network over a DAG with:

* conditional probability tables (CPTs) per node,
* exact posterior inference by enumeration (adequate for the small
  diagnostic networks FeBiM targets),
* ancestral sampling for generating synthetic observations, and
* :func:`naive_bayes_network` — the naive-Bayes-shaped network (one class
  node, conditionally independent evidence nodes) that maps directly onto
  the crossbar layout of Sec. 3.2.

The graph bookkeeping uses :mod:`networkx` for cycle/topology checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


@dataclass
class DiscreteNode:
    """A discrete random variable with a CPT over its parents.

    Attributes
    ----------
    name:
        Unique node name.
    states:
        Names of the node's discrete states (cardinality >= 2 not
        enforced; single-state nodes are degenerate but legal).
    parents:
        Parent node names, in the order indexing the CPT.
    cpt:
        Array of shape ``(card(parent_1), ..., card(parent_k), card(self))``
        with each final-axis slice summing to 1.  For a root node the shape
        is simply ``(card(self),)``.
    """

    name: str
    states: List[str]
    parents: List[str] = field(default_factory=list)
    cpt: np.ndarray = None

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError(f"node {self.name!r} needs at least one state")
        if self.cpt is None:
            raise ValueError(f"node {self.name!r} needs a CPT")
        self.cpt = np.asarray(self.cpt, dtype=float)
        if self.cpt.shape[-1] != len(self.states):
            raise ValueError(
                f"node {self.name!r}: CPT last axis {self.cpt.shape[-1]} != "
                f"{len(self.states)} states"
            )
        if np.any(self.cpt < 0):
            raise ValueError(f"node {self.name!r}: CPT has negative entries")
        sums = self.cpt.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-8):
            raise ValueError(
                f"node {self.name!r}: CPT slices must sum to 1, got sums {sums}"
            )

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise KeyError(
                f"node {self.name!r} has no state {state!r}; states: {self.states}"
            ) from None


class BayesianNetwork:
    """A discrete Bayesian network over a DAG of :class:`DiscreteNode`.

    Nodes must be added parents-first or all at once via the constructor;
    the DAG property is validated with networkx.
    """

    def __init__(self, nodes: Optional[Sequence[DiscreteNode]] = None):
        # networkx is imported where it is used, so that importing repro
        # (every serving process does) does not load it.
        import networkx as nx

        self._nodes: Dict[str, DiscreteNode] = {}
        self._graph = nx.DiGraph()
        for node in nodes or []:
            self.add_node(node)

    # ------------------------------------------------------------ structure
    def add_node(self, node: DiscreteNode) -> None:
        """Add a node whose parents are already present."""
        import networkx as nx

        if node.name in self._nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        for parent in node.parents:
            if parent not in self._nodes:
                raise ValueError(
                    f"node {node.name!r} references unknown parent {parent!r} "
                    "(add parents first)"
                )
        expected = tuple(self._nodes[p].cardinality for p in node.parents) + (
            node.cardinality,
        )
        if node.cpt.shape != expected:
            raise ValueError(
                f"node {node.name!r}: CPT shape {node.cpt.shape} != expected {expected}"
            )
        self._nodes[node.name] = node
        self._graph.add_node(node.name)
        for parent in node.parents:
            self._graph.add_edge(parent, node.name)
        if not nx.is_directed_acyclic_graph(self._graph):
            # Roll back so the network stays consistent.
            self._graph.remove_node(node.name)
            del self._nodes[node.name]
            raise ValueError(f"adding node {node.name!r} would create a cycle")

    @property
    def node_names(self) -> List[str]:
        import networkx as nx

        return list(nx.topological_sort(self._graph))

    def node(self, name: str) -> DiscreteNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------ inference
    def _indexify(self, assignment: Mapping[str, object]) -> Dict[str, int]:
        """Normalise a {node: state-name-or-index} mapping to indices."""
        out = {}
        for name, state in assignment.items():
            node = self.node(name)
            if isinstance(state, str):
                out[name] = node.state_index(state)
            else:
                idx = int(state)
                if not 0 <= idx < node.cardinality:
                    raise ValueError(
                        f"state index {idx} out of range for node {name!r}"
                    )
                out[name] = idx
        return out

    def joint_probability(self, assignment: Mapping[str, object]) -> float:
        """P(full assignment) — requires every node assigned."""
        idx = self._indexify(assignment)
        missing = set(self._nodes) - set(idx)
        if missing:
            raise ValueError(f"assignment missing nodes: {sorted(missing)}")
        prob = 1.0
        for name, node in self._nodes.items():
            coords = tuple(idx[p] for p in node.parents) + (idx[name],)
            prob *= float(node.cpt[coords])
        return prob

    def posterior(
        self, query: str, evidence: Optional[Mapping[str, object]] = None
    ) -> np.ndarray:
        """P(query | evidence) by exact enumeration over hidden nodes.

        Returns a probability vector over the query node's states.  Raises
        if the evidence has probability zero.
        """
        evidence_idx = self._indexify(evidence or {})
        if query in evidence_idx:
            out = np.zeros(self.node(query).cardinality)
            out[evidence_idx[query]] = 1.0
            return out

        order = self.node_names
        hidden = [n for n in order if n != query and n not in evidence_idx]
        qnode = self.node(query)
        scores = np.zeros(qnode.cardinality)

        hidden_cards = [self.node(h).cardinality for h in hidden]
        assignment = dict(evidence_idx)
        for q_idx in range(qnode.cardinality):
            assignment[query] = q_idx
            total = 0.0
            for combo in np.ndindex(*hidden_cards) if hidden else [()]:
                for h_name, h_idx in zip(hidden, combo):
                    assignment[h_name] = int(h_idx)
                total += self.joint_probability(assignment)
            scores[q_idx] = total
        norm = scores.sum()
        if norm <= 0:
            raise ValueError("evidence has zero probability under the model")
        return scores / norm

    def map_state(
        self, query: str, evidence: Optional[Mapping[str, object]] = None
    ) -> Tuple[str, float]:
        """Most probable state of ``query`` given ``evidence`` (Eq. 4)."""
        post = self.posterior(query, evidence)
        idx = int(np.argmax(post))
        return self.node(query).states[idx], float(post[idx])

    # ------------------------------------------------------------- sampling
    def sample(self, n_samples: int, seed: RngLike = None) -> List[Dict[str, str]]:
        """Ancestral sampling: ``n_samples`` full assignments (state names)."""
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        rng = ensure_rng(seed)
        order = self.node_names
        samples = []
        for _ in range(n_samples):
            assignment: Dict[str, int] = {}
            for name in order:
                node = self._nodes[name]
                coords = tuple(assignment[p] for p in node.parents)
                probs = node.cpt[coords]
                assignment[name] = int(rng.choice(node.cardinality, p=probs))
            samples.append(
                {name: self._nodes[name].states[idx] for name, idx in assignment.items()}
            )
        return samples


def naive_bayes_network(
    class_prior: np.ndarray,
    likelihoods: Sequence[np.ndarray],
    class_name: str = "event",
    evidence_names: Optional[Sequence[str]] = None,
) -> BayesianNetwork:
    """Build the naive-Bayes-shaped network FeBiM maps onto its crossbar.

    Parameters
    ----------
    class_prior:
        Prior over the ``k`` events, length ``k``.
    likelihoods:
        One table per evidence node, each ``(k, m_i)`` with rows summing
        to 1 — ``P(B_i | A)``.
    """
    class_prior = np.asarray(class_prior, dtype=float)
    k = class_prior.shape[0]
    if evidence_names is None:
        evidence_names = [f"evidence_{i + 1}" for i in range(len(likelihoods))]
    if len(evidence_names) != len(likelihoods):
        raise ValueError("evidence_names and likelihoods length mismatch")

    net = BayesianNetwork()
    net.add_node(
        DiscreteNode(
            name=class_name,
            states=[f"A{j + 1}" for j in range(k)],
            cpt=class_prior / class_prior.sum(),
        )
    )
    for name, table in zip(evidence_names, likelihoods):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != k:
            raise ValueError(
                f"likelihood table for {name!r} must have shape (k={k}, m), "
                f"got {table.shape}"
            )
        table = table / table.sum(axis=1, keepdims=True)
        net.add_node(
            DiscreteNode(
                name=name,
                states=[f"b{v + 1}" for v in range(table.shape[1])],
                parents=[class_name],
                cpt=table,
            )
        )
    return net
