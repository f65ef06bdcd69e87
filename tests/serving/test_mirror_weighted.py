"""Margin-weighted mirror voting through the live router."""

import math

import numpy as np
import pytest

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    DeploymentError,
    FeBiMServer,
    MirroredResult,
    ModelRegistry,
    ReplicaSpec,
    RoutingPolicy,
)

POLICY = BatchPolicy(max_batch=8)
SAMPLE = np.array([0, 1, 2])


def make_model(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture()
def server(tmp_path):
    with FeBiMServer(
        ModelRegistry(tmp_path / "reg"), policy=POLICY, seed=0
    ) as srv:
        srv.register("iris", make_model(seed=1))
        yield srv


def deploy_mirror(server, weighted):
    server.deploy(Deployment(
        "iris",
        [ReplicaSpec("fefet"), ReplicaSpec("ideal"), ReplicaSpec("cmos")],
        RoutingPolicy("mirror", mirror_weighted=weighted),
    ))


class TestWeightedMirror:
    def test_weighted_vote_serves_a_mirrored_result(self, server):
        deploy_mirror(server, weighted=True)
        result = server.predict("iris", SAMPLE, timeout=10)
        assert isinstance(result, MirroredResult)
        assert len(result.votes) == 3
        assert result.prediction in (0, 1, 2)
        assert server.stats().mirror_votes == 1

    def test_unanimous_vote_is_weighting_invariant(self, server):
        """Identical engines agree, so the winner cannot depend on the
        weighting mode — only the tally bookkeeping differs."""
        deploy_mirror(server, weighted=False)
        plain = server.predict("iris", SAMPLE, timeout=10)
        deploy_mirror(server, weighted=True)
        weighted = server.predict("iris", SAMPLE, timeout=10)
        assert weighted.prediction == plain.prediction
        assert weighted.votes == plain.votes
        assert weighted.agreement == plain.agreement == 1.0

    def test_served_results_carry_finite_margins(self, server):
        """The weighting signal: a real served result's recovered read
        margin is finite and non-negative (the currents were sensed)."""
        server.deploy(Deployment(
            "iris", [ReplicaSpec("fefet")], RoutingPolicy("cost"),
        ))
        result = server.predict("iris", SAMPLE, timeout=10)
        margin = result.margin
        assert math.isfinite(margin)
        assert margin >= 0.0

    def test_mirror_weighted_survives_the_spec_round_trip(self):
        policy = RoutingPolicy("mirror", mirror_fanout=2, mirror_weighted=True)
        assert RoutingPolicy.from_dict(policy.to_dict()) == policy
        spec = Deployment(
            "iris", [ReplicaSpec("fefet"), ReplicaSpec("ideal")], policy,
        )
        assert Deployment.from_dict(spec.to_dict()).policy.mirror_weighted

    def test_mirror_weighted_rejected_off_mirror(self):
        spec = Deployment(
            "iris",
            [ReplicaSpec("fefet"), ReplicaSpec("ideal")],
            RoutingPolicy("cost", mirror_weighted=True),
        )
        with pytest.raises(DeploymentError, match="mirror_weighted"):
            spec.validate()
