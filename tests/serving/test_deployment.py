"""Deployment specs: validation, JSON round-trip, capability gating."""

import json

import pytest

from repro.io import load_deployment, save_deployment
from repro.serving import (
    Deployment,
    DeploymentError,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
    SLOPolicy,
    single_replica_deployment,
)


def two_replica(policy=None, **kwargs):
    return Deployment(
        "iris",
        [ReplicaSpec("ideal"), ReplicaSpec("memristor", {"n_cycles": 63})],
        policy or RoutingPolicy("cost"),
        **kwargs,
    )


class TestValidation:
    def test_valid_spec_passes(self):
        assert two_replica().validate() is not None

    def test_unknown_backend_rejected(self):
        with pytest.raises(DeploymentError, match="unknown backend"):
            Deployment("m", [ReplicaSpec("sot")]).validate()

    def test_no_replicas_rejected(self):
        with pytest.raises(DeploymentError, match="at least one replica"):
            Deployment("m", []).validate()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DeploymentError, match="weight"):
            Deployment("m", [ReplicaSpec("ideal", weight=0.0)]).validate()

    def test_capability_gated_option_rejected(self):
        # advance_streams is a memristor capability; ideal lacks it.
        with pytest.raises(DeploymentError, match="stream-advance"):
            Deployment(
                "m", [ReplicaSpec("ideal", {"advance_streams": True})]
            ).validate()

    def test_capability_gated_option_accepted_where_declared(self):
        Deployment(
            "m",
            [ReplicaSpec("memristor", {"advance_streams": True})] * 2,
            RoutingPolicy("cost", min_agreement=0.8),
        ).validate()

    def test_advance_streams_demands_agreement_tolerance(self):
        # Exact-agreement health checks would heal-churn a stochastic
        # replica forever; the spec must carry an explicit tolerance.
        with pytest.raises(DeploymentError, match="min_agreement"):
            Deployment(
                "m", [ReplicaSpec("memristor", {"advance_streams": True})]
            ).validate()

    def test_spare_rows_option_gated(self):
        with pytest.raises(DeploymentError, match="spare-rows"):
            Deployment("m", [ReplicaSpec("cmos", {"spare_rows": 2})]).validate()
        Deployment("m", [ReplicaSpec("fefet", {"spare_rows": 2})]).validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(DeploymentError, match="unknown routing policy"):
            two_replica(policy=RoutingPolicy("random")).validate()

    def test_mirror_needs_two_replicas(self):
        with pytest.raises(DeploymentError, match="mirror"):
            Deployment(
                "m", [ReplicaSpec("ideal")], RoutingPolicy("mirror")
            ).validate()

    def test_mirror_fanout_of_one_rejected(self):
        with pytest.raises(DeploymentError, match="vote of one"):
            two_replica(
                policy=RoutingPolicy("mirror", mirror_fanout=1)
            ).validate()

    def test_min_agreement_range(self):
        with pytest.raises(DeploymentError, match="min_agreement"):
            two_replica(policy=RoutingPolicy("cost", min_agreement=1.5)).validate()

    def test_bad_version_rejected(self):
        with pytest.raises(DeploymentError, match="version"):
            two_replica(version=0).validate()

    def test_backpressure_refused_on_process_placement(self):
        # A worker-hosted queue cannot block its submitter: it would
        # shed where the spec asks it to block.
        blocking = SLOPolicy(max_replicas=2, backpressure=True)
        with pytest.raises(
            DeploymentError, match=r"slo\.backpressure.*placement\.kind"
        ):
            two_replica(
                slo=blocking, placement=PlacementSpec(kind="process")
            ).validate()
        two_replica(slo=blocking, placement=PlacementSpec(kind="local")).validate()
        two_replica(
            slo=SLOPolicy(max_replicas=2),
            placement=PlacementSpec(kind="process"),
        ).validate()

    def test_single_replica_helper(self):
        dep = single_replica_deployment("iris", "fefet")
        dep.validate()
        assert len(dep.replicas) == 1
        assert dep.replicas[0].backend == "fefet"


class TestJsonRoundTrip:
    def test_dict_round_trip_preserves_spec(self):
        dep = two_replica(
            policy=RoutingPolicy("mirror", mirror_fanout=2, min_agreement=0.9),
            version=3,
        )
        assert Deployment.from_dict(dep.to_dict()) == dep

    def test_file_round_trip(self, tmp_path):
        dep = two_replica()
        path = save_deployment(tmp_path / "spec.json", dep)
        assert load_deployment(path) == dep

    def test_save_rejects_invalid_spec(self, tmp_path):
        bad = Deployment("m", [ReplicaSpec("sot")])
        with pytest.raises(DeploymentError):
            save_deployment(tmp_path / "bad.json", bad)

    def test_load_rejects_capability_invalid_spec(self, tmp_path):
        data = two_replica().to_dict()
        data["replicas"][0]["backend_options"] = {"advance_streams": True}
        (tmp_path / "spec.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="stream-advance"):
            load_deployment(tmp_path / "spec.json")

    def test_load_rejects_truncated_json(self, tmp_path):
        (tmp_path / "spec.json").write_text('{"model": "m", "repl')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_deployment(tmp_path / "spec.json")

    def test_from_dict_rejects_missing_replicas(self):
        with pytest.raises(DeploymentError, match="replicas"):
            Deployment.from_dict({"model": "m"})

    def test_from_dict_rejects_wrong_format_version(self):
        data = two_replica().to_dict()
        data["format_version"] = 99
        with pytest.raises(DeploymentError, match="format version"):
            Deployment.from_dict(data)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(DeploymentError, match="JSON object"):
            Deployment.from_dict([1, 2, 3])

    def test_from_dict_rejects_misspelt_fields(self):
        data = two_replica().to_dict()
        data["policy"]["min_agrement"] = 0.9
        del data["policy"]["min_agreement"]
        with pytest.raises(DeploymentError, match="min_agrement"):
            Deployment.from_dict(data)
        data = two_replica().to_dict()
        data["replicas"][0]["wieght"] = 2.0
        with pytest.raises(DeploymentError, match="wieght"):
            Deployment.from_dict(data)

    def test_describe_names_replicas_and_policy(self):
        text = two_replica().describe()
        assert "ideal" in text and "memristor" in text and "cost" in text
