"""Declarative deployments: one model, many replicas, one routing policy.

PR 4 left the serving layer one constructor change away from
replication: the registry knows the array technology per artifact, but
:class:`~repro.serving.server.FeBiMServer` could route a request to
exactly one engine per model.  A :class:`Deployment` closes that gap
declaratively — it names a registered model, lists the
:class:`ReplicaSpec` arrays that should serve it (each on its own
backend technology, with its own backend options and capacity weight)
and picks a :class:`RoutingPolicy` for the
:class:`~repro.serving.router.Router` to arbitrate with.

The spec is plain data: JSON-serialisable through :mod:`repro.io`
(``save_deployment`` / ``load_deployment``), hashable nowhere, and
validated *before* any array is programmed — an unknown backend, a
backend option gated behind a capability the technology does not
declare, or a mirror policy over a single replica is rejected at
``validate()`` time with the offending replica named, never discovered
mid-traffic.

Cross-technology serving is an explicit decision here, exactly as the
registry's backend pin demands: a replica's ``backend`` overrides the
artifact's registered technology because the operator wrote it into
the deployment spec, not because two directories got mixed up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backends.base import Capability
from repro.backends.registry import backend_capabilities, get_backend_class

#: Routing policy kinds shipped in-tree (see :mod:`repro.serving.router`).
POLICY_KINDS = ("cost", "round_robin", "sticky", "mirror")

#: Placement kinds: where a deployment's replicas are hosted.
PLACEMENT_KINDS = ("local", "process")

#: Backend constructor options that are only meaningful behind a
#: declared capability: a spec naming one of these for a technology
#: that does not declare the capability is invalid up front.
OPTION_CAPABILITIES = {
    "advance_streams": Capability.STREAM_ADVANCE,
    "spare_rows": Capability.SPARE_ROWS,
}

#: Current deployment-spec schema version.
DEPLOYMENT_FORMAT_VERSION = 1


class DeploymentError(ValueError):
    """A deployment spec failed validation (bad replica, policy, ...)."""


def _reject_unknown_keys(data: dict, allowed: set, what: str) -> None:
    """Hand-edited specs must fail with the problem named: a misspelt
    field silently falling back to its default (``min_agrement`` ->
    exact agreement demanded) is worse than a parse error."""
    unknown = set(data) - allowed
    if unknown:
        raise DeploymentError(
            f"{what} has unknown field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica array in a deployment.

    Attributes
    ----------
    backend:
        Array technology (a :mod:`repro.backends` registry name) this
        replica is programmed on.
    backend_options:
        Extra backend constructor arguments for this replica only
        (e.g. ``{"n_cycles": 255}`` or ``{"advance_streams": True}``
        for a memristor replica).
    weight:
        Relative capacity weight; the ``cost`` policy divides a
        replica's load-adjusted cost by it, so a weight-2 replica
        absorbs roughly twice the traffic of a weight-1 one at equal
        unit cost.
    """

    backend: str
    backend_options: dict = field(default_factory=dict)
    weight: float = 1.0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
            "weight": self.weight,
        }

    @staticmethod
    def from_dict(data: dict) -> "ReplicaSpec":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"replica spec must be a JSON object, got {type(data).__name__}"
            )
        _reject_unknown_keys(
            data, {"backend", "backend_options", "weight"}, "replica spec"
        )
        options = data.get("backend_options", {})
        if not isinstance(options, dict):
            raise DeploymentError(
                f"backend_options must be an object, got {options!r}"
            )
        return ReplicaSpec(
            backend=data.get("backend", ""),
            backend_options=dict(options),
            weight=float(data.get("weight", 1.0)),
        )


@dataclass(frozen=True)
class RoutingPolicy:
    """How the router arbitrates a request across a deployment's replicas.

    Attributes
    ----------
    kind:
        One of :data:`POLICY_KINDS`:

        * ``"cost"`` — cheapest healthy replica by the backend's own
          ``inference_cost_batch`` unit delay, scaled by live queue
          occupancy and divided by the replica weight;
        * ``"round_robin"`` — healthy replicas in turn;
        * ``"sticky"`` — per-tenant affinity: a request's ``client``
          identity hashes to a stable replica while that replica stays
          healthy;
        * ``"mirror"`` — fan out to ``mirror_fanout`` healthy replicas
          and majority-vote the predictions (a reliability mode; the
          vote is the served answer).
    mirror_fanout:
        Replicas each mirrored request fans out to (0 = all healthy
        replicas).  Ignored by the other kinds.
    min_agreement:
        Canary agreement (vs each replica's own pristine baseline)
        below which a health check fails; relax below 1.0 for
        stochastic replicas (e.g. memristor with ``advance_streams``).
    mirror_weighted:
        Mirror only: weight each replica's vote by the winner/runner-up
        read margin of its own answer (the ``read_margin_batch``
        quantity, recovered from the serving read's sensed currents)
        instead of one-replica-one-vote — a confident minority can
        outvote a hesitant majority.  Deterministic tie-break (lower
        class label) preserved; when every margin collapses to zero the
        head count decides.
    """

    kind: str = "cost"
    mirror_fanout: int = 0
    min_agreement: float = 1.0
    mirror_weighted: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mirror_fanout": self.mirror_fanout,
            "min_agreement": self.min_agreement,
            "mirror_weighted": self.mirror_weighted,
        }

    @staticmethod
    def from_dict(data: dict) -> "RoutingPolicy":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"routing policy must be a JSON object, got {type(data).__name__}"
            )
        _reject_unknown_keys(
            data,
            {"kind", "mirror_fanout", "min_agreement", "mirror_weighted"},
            "routing policy",
        )
        return RoutingPolicy(
            kind=data.get("kind", "cost"),
            mirror_fanout=int(data.get("mirror_fanout", 0)),
            min_agreement=float(data.get("min_agreement", 1.0)),
            mirror_weighted=bool(data.get("mirror_weighted", False)),
        )


def validate_replica_spec(
    replica: ReplicaSpec, index: int, min_agreement: float = 1.0
) -> ReplicaSpec:
    """Static validation of one replica spec against the backend registry.

    Shared by :meth:`Deployment.validate` and the router's runtime
    ``add_replica`` path (an autoscaler-placed replica obeys exactly
    the same rules as one written in the spec).  Raises
    :class:`DeploymentError` naming replica ``index``; returns the
    spec for chaining.
    """
    try:
        get_backend_class(replica.backend)
    except ValueError as exc:
        raise DeploymentError(f"replica {index}: {exc}") from None
    if not replica.weight > 0:
        raise DeploymentError(
            f"replica {index}: weight must be > 0, got {replica.weight}"
        )
    declared = backend_capabilities(replica.backend)
    for option, capability in OPTION_CAPABILITIES.items():
        wants = replica.backend_options.get(option)
        if wants and capability not in declared:
            raise DeploymentError(
                f"replica {index}: option {option!r} needs capability "
                f"{capability!r}, which backend "
                f"{replica.backend!r} does not declare"
            )
    if (
        replica.backend_options.get("advance_streams")
        and min_agreement >= 1.0
    ):
        # Fresh Bernoulli draws cannot match a pinned baseline
        # bit-for-bit: an exact-agreement health policy would
        # "heal" the stochastic replica on every sweep (each
        # replacement also resets its stream state).  Demand an
        # explicit tolerance instead of churning silently.
        raise DeploymentError(
            f"replica {index}: advance_streams draws fresh bitstreams "
            f"per read, so health checks cannot demand exact "
            f"agreement — set RoutingPolicy(min_agreement < 1.0)"
        )
    return replica


@dataclass(frozen=True)
class SLOPolicy:
    """Service-level objectives the autoscale controller closes the loop on.

    Attaching one to a :class:`Deployment` does two things at apply
    time: every replica's scheduler queue becomes *bounded*
    (``max_queue_depth``, enabling load-shed / backpressure / priority
    lanes — see :mod:`repro.serving.scheduler`), and the server's
    maintenance thread may run an
    :class:`~repro.serving.autoscale.AutoscaleController` that grows
    the deployment toward ``max_replicas`` under pressure and shrinks
    it back to ``min_replicas`` when calm.

    Attributes
    ----------
    target_p95_ms:
        p95 end-to-end latency objective in milliseconds (``None`` =
        scale on queue pressure only).
    max_queue_depth:
        Bound on each replica's scheduler queue (``None`` = unbounded:
        admission control off, autoscaling on queue depth disabled).
    min_replicas / max_replicas:
        The controller never shrinks below / grows above these.
    backpressure:
        When true, ``Router.submit`` blocks the *first* attempt while
        the chosen replica's queue is full instead of shedding
        (failover attempts never block — see the router docstring).
    priorities:
        Per-tenant priority lanes: client identity -> lane (higher
        sheds last).  Clients not listed get ``default_priority``.
    default_priority:
        Lane for unlisted (and anonymous) clients.
    """

    target_p95_ms: Optional[float] = None
    max_queue_depth: Optional[int] = None
    min_replicas: int = 1
    max_replicas: int = 1
    backpressure: bool = False
    priorities: Dict[str, int] = field(default_factory=dict)
    default_priority: int = 0

    def priority_for(self, client: Optional[str]) -> int:
        """The priority lane for ``client`` (``None`` = anonymous)."""
        if client is None:
            return self.default_priority
        return self.priorities.get(client, self.default_priority)

    def validate(self) -> "SLOPolicy":
        if int(self.min_replicas) < 1:
            raise DeploymentError(
                f"slo: min_replicas must be >= 1, got {self.min_replicas}"
            )
        if int(self.max_replicas) < int(self.min_replicas):
            raise DeploymentError(
                f"slo: max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if self.max_queue_depth is not None and int(self.max_queue_depth) < 1:
            raise DeploymentError(
                f"slo: max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.target_p95_ms is not None and not self.target_p95_ms > 0:
            raise DeploymentError(
                f"slo: target_p95_ms must be > 0, got {self.target_p95_ms}"
            )
        for client, lane in self.priorities.items():
            if not isinstance(client, str) or not client:
                raise DeploymentError(
                    f"slo: priority keys must be non-empty client "
                    f"strings, got {client!r}"
                )
            if not isinstance(lane, int):
                raise DeploymentError(
                    f"slo: priority for {client!r} must be an int lane, "
                    f"got {lane!r}"
                )
        return self

    def to_dict(self) -> dict:
        return {
            "target_p95_ms": self.target_p95_ms,
            "max_queue_depth": self.max_queue_depth,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "backpressure": self.backpressure,
            "priorities": dict(self.priorities),
            "default_priority": self.default_priority,
        }

    @staticmethod
    def from_dict(data: dict) -> "SLOPolicy":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"slo policy must be a JSON object, got {type(data).__name__}"
            )
        _reject_unknown_keys(
            data,
            {
                "target_p95_ms",
                "max_queue_depth",
                "min_replicas",
                "max_replicas",
                "backpressure",
                "priorities",
                "default_priority",
            },
            "slo policy",
        )
        target = data.get("target_p95_ms")
        depth = data.get("max_queue_depth")
        priorities = data.get("priorities", {})
        if not isinstance(priorities, dict):
            raise DeploymentError(
                f"slo priorities must be an object, got {priorities!r}"
            )
        return SLOPolicy(
            target_p95_ms=None if target is None else float(target),
            max_queue_depth=None if depth is None else int(depth),
            min_replicas=int(data.get("min_replicas", 1)),
            max_replicas=int(data.get("max_replicas", 1)),
            backpressure=bool(data.get("backpressure", False)),
            priorities={str(k): int(v) for k, v in priorities.items()},
            default_priority=int(data.get("default_priority", 0)),
        )


@dataclass(frozen=True)
class PlacementSpec:
    """Where a deployment's replicas are hosted.

    Attributes
    ----------
    kind:
        ``"local"`` — replicas live in the calling process, served by
        the in-process :class:`~repro.serving.router.Router` exactly as
        before (the default when no placement is written at all; the
        submit hot path is untouched).  ``"process"`` — replicas are
        partitioned across supervised worker subprocesses, each owning
        its own schedulers and engines, reached over the versioned wire
        protocol (:mod:`repro.serving.transport`) and served through a
        :class:`~repro.serving.cluster.ClusterServer` front end.
    workers:
        Worker subprocesses to spawn for ``"process"`` placement
        (replicas are spread round-robin across them); ignored by
        ``"local"``.
    """

    kind: str = "local"
    workers: int = 2

    def validate(self) -> "PlacementSpec":
        if self.kind not in PLACEMENT_KINDS:
            raise DeploymentError(
                f"unknown placement kind {self.kind!r} "
                f"(known: {', '.join(PLACEMENT_KINDS)})"
            )
        if int(self.workers) < 1:
            raise DeploymentError(
                f"placement workers must be >= 1, got {self.workers}"
            )
        return self

    def to_dict(self) -> dict:
        return {"kind": self.kind, "workers": self.workers}

    @staticmethod
    def from_dict(data: dict) -> "PlacementSpec":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"placement spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        _reject_unknown_keys(data, {"kind", "workers"}, "placement spec")
        return PlacementSpec(
            kind=data.get("kind", "local"),
            workers=int(data.get("workers", 2)),
        )


@dataclass(frozen=True)
class Deployment:
    """A validated-on-apply serving plan for one model.

    Attributes
    ----------
    model:
        Registered model name the deployment serves.
    replicas:
        The arrays serving it (at least one).
    policy:
        Arbitration policy across them.
    version:
        Pinned model version (``None`` resolves to latest at apply
        time, like every other serving call).
    slo:
        Optional :class:`SLOPolicy`; enables admission control and
        autoscaling for this deployment.
    placement:
        Optional :class:`PlacementSpec`; ``None`` means local
        (in-process) hosting, byte-for-byte the pre-placement
        behaviour.
    """

    model: str
    replicas: Tuple[ReplicaSpec, ...]
    policy: RoutingPolicy = RoutingPolicy()
    version: Optional[int] = None
    slo: Optional[SLOPolicy] = None
    placement: Optional[PlacementSpec] = None

    def __post_init__(self) -> None:
        # Normalise a list into the frozen tuple form so callers can
        # write Deployment(model, [ReplicaSpec(...)]).
        object.__setattr__(self, "replicas", tuple(self.replicas))

    # ------------------------------------------------------------ validation
    def validate(self) -> "Deployment":
        """Check the spec against the backend registry and capabilities.

        Raises :class:`DeploymentError` naming the offending replica /
        field; returns ``self`` so apply sites can chain.  This is the
        *static* half of validation (no registry access); the router
        additionally resolves the model name/version when the
        deployment is applied.
        """
        if not isinstance(self.model, str) or not self.model:
            raise DeploymentError(
                f"deployment model must be a non-empty string, got {self.model!r}"
            )
        if self.version is not None and int(self.version) < 1:
            raise DeploymentError(
                f"deployment version must be >= 1, got {self.version}"
            )
        if not self.replicas:
            raise DeploymentError("deployment needs at least one replica")
        for i, replica in enumerate(self.replicas):
            validate_replica_spec(replica, i, self.policy.min_agreement)
        if self.slo is not None:
            self.slo.validate()
            if len(self.replicas) > int(self.slo.max_replicas):
                raise DeploymentError(
                    f"deployment starts with {len(self.replicas)} replicas "
                    f"but slo.max_replicas is {self.slo.max_replicas}"
                )
        if self.policy.kind not in POLICY_KINDS:
            raise DeploymentError(
                f"unknown routing policy {self.policy.kind!r} "
                f"(known: {', '.join(POLICY_KINDS)})"
            )
        if self.policy.mirror_fanout < 0:
            raise DeploymentError(
                f"mirror_fanout must be >= 0, got {self.policy.mirror_fanout}"
            )
        if not 0.0 <= self.policy.min_agreement <= 1.0:
            raise DeploymentError(
                f"min_agreement must lie in [0, 1], got "
                f"{self.policy.min_agreement}"
            )
        if self.policy.kind == "mirror":
            if len(self.replicas) < 2:
                raise DeploymentError(
                    "mirror policy needs at least 2 replicas to vote"
                )
            if self.policy.mirror_fanout == 1:
                raise DeploymentError(
                    "mirror_fanout=1 is a vote of one; use 0 (all) or >= 2"
                )
        elif self.policy.mirror_weighted:
            raise DeploymentError(
                f"mirror_weighted only applies to the mirror policy, "
                f"not {self.policy.kind!r}"
            )
        if self.placement is not None:
            self.placement.validate()
            if (
                self.placement.kind == "process"
                and self.slo is not None
                and self.slo.backpressure
            ):
                # A worker-hosted queue answers a full queue with a shed
                # frame; it cannot block the submitter across the wire.
                raise DeploymentError(
                    "slo.backpressure=True needs placement.kind 'local': "
                    "a process-placed queue cannot block its submitter, "
                    "so it would shed where the spec asks it to block"
                )
        return self

    # --------------------------------------------------------------- JSON IO
    def to_dict(self) -> dict:
        """Plain-JSON form (see :func:`repro.io.save_deployment`)."""
        data = {
            "format_version": DEPLOYMENT_FORMAT_VERSION,
            "model": self.model,
            "version": self.version,
            "replicas": [r.to_dict() for r in self.replicas],
            "policy": self.policy.to_dict(),
        }
        if self.slo is not None:
            data["slo"] = self.slo.to_dict()
        if self.placement is not None:
            data["placement"] = self.placement.to_dict()
        return data

    @staticmethod
    def from_dict(data: dict) -> "Deployment":
        """Rebuild and *validate* a deployment from its dict form.

        Raises :class:`DeploymentError` on any malformed or
        capability-invalid spec — a hand-edited file must fail with the
        problem named, never a raw ``KeyError`` deep in the router.
        """
        if not isinstance(data, dict):
            raise DeploymentError(
                f"deployment spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        fmt = data.get("format_version", DEPLOYMENT_FORMAT_VERSION)
        if fmt != DEPLOYMENT_FORMAT_VERSION:
            raise DeploymentError(
                f"unsupported deployment format version {fmt!r} (this "
                f"build reads version {DEPLOYMENT_FORMAT_VERSION})"
            )
        _reject_unknown_keys(
            data,
            {
                "format_version", "model", "version", "replicas",
                "policy", "slo", "placement",
            },
            "deployment spec",
        )
        replicas = data.get("replicas")
        if not isinstance(replicas, list) or not replicas:
            raise DeploymentError(
                "deployment spec needs a non-empty 'replicas' list"
            )
        version = data.get("version")
        slo = data.get("slo")
        placement = data.get("placement")
        try:
            deployment = Deployment(
                model=data.get("model", ""),
                replicas=tuple(ReplicaSpec.from_dict(r) for r in replicas),
                policy=RoutingPolicy.from_dict(data.get("policy", {})),
                version=None if version is None else int(version),
                slo=None if slo is None else SLOPolicy.from_dict(slo),
                placement=(
                    None
                    if placement is None
                    else PlacementSpec.from_dict(placement)
                ),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, DeploymentError):
                raise
            raise DeploymentError(
                f"malformed deployment spec: {exc!r}"
            ) from exc
        return deployment.validate()

    def describe(self) -> str:
        """One-line human summary (CLI / logs)."""
        replicas = ", ".join(
            f"r{i}:{r.backend}"
            + (f"(w={r.weight:g})" if r.weight != 1.0 else "")
            for i, r in enumerate(self.replicas)
        )
        pin = "latest" if self.version is None else f"v{self.version}"
        slo = ""
        if self.slo is not None:
            slo = (
                f" slo[{self.slo.min_replicas}-{self.slo.max_replicas}"
                + (
                    f", p95<{self.slo.target_p95_ms:g}ms"
                    if self.slo.target_p95_ms is not None
                    else ""
                )
                + "]"
            )
        placement = ""
        if self.placement is not None and self.placement.kind != "local":
            placement = (
                f" placement={self.placement.kind}"
                f"x{self.placement.workers}"
            )
        return (
            f"{self.model}@{pin} -> [{replicas}] policy={self.policy.kind}"
            f"{slo}{placement}"
        )


def single_replica_deployment(
    model: str,
    backend: str,
    backend_options: Optional[dict] = None,
    version: Optional[int] = None,
) -> Deployment:
    """The implicit deployment of an undeployed model, as a spec.

    ``server.register(...)`` / ``submit(...)`` callers are served
    through exactly this shape (:meth:`~repro.serving.router.Router.
    serving` builds it on first use): one replica on the registry's own
    backend, cost policy (degenerate over one replica).
    """
    return Deployment(
        model=model,
        replicas=(
            ReplicaSpec(backend=backend, backend_options=backend_options or {}),
        ),
        policy=RoutingPolicy(kind="cost"),
        version=version,
    )
