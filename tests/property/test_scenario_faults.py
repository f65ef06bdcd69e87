"""Seeded randomized fault timelines against small deployments.

Each example draws a deployment of two or three replicas, a routing
policy, a submitter count, a batch bound, the rows per client call (one
``submit``, or ``submit_many`` chunks that split across batches) and up
to six faults (a ``cancel`` fault has the client cancel every handle it
holds that is not yet done), and runs it through
:func:`~repro.serving.workload.run_scenario`.  The runner
checks the serving invariants on every run and raises when one breaks
(a pending future or row handle, books that disagree with the
clients, a queue left behind, flight events out of causal order, a
leaked thread or worker process), so returning at all is the property;
on top of that every request must be accounted for exactly once, and
every served row must match an offline read.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    ModelRegistry,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
)
from repro.serving.workload import MAINTENANCE_S, Fault, Scenario, run_scenario

N_REQUESTS = 96
LOCAL_FAULTS = (
    "kill_replica", "retire_replica", "add_replica", "sweep", "cancel",
)


def make_model(k=3, m=4, seed=1):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        t = rng.random((k, m)) + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("fuzz-reg"))
    registry.register("iris", make_model())
    return registry


faults = st.builds(
    Fault,
    kind=st.sampled_from(LOCAL_FAULTS),
    at=st.integers(0, N_REQUESTS - 1),
    replica=st.integers(0, 3),
    recoverable=st.booleans(),
)


@st.composite
def scenarios(draw, process=False):
    backends = draw(st.lists(
        st.sampled_from(("ideal", "cmos", "fefet")), min_size=2, max_size=3
    ))
    timeline = draw(st.lists(faults, max_size=6))
    if process:
        timeline.append(
            Fault("kill_worker", at=draw(st.integers(0, N_REQUESTS - 1)))
        )
    max_batch = draw(st.sampled_from((4, 16)))
    return Scenario(
        deployment=Deployment(
            "iris",
            [ReplicaSpec(b) for b in backends],
            RoutingPolicy(draw(st.sampled_from(
                ("cost", "round_robin", "sticky", "mirror")
            ))),
            placement=(
                PlacementSpec(kind="process", workers=2) if process else None
            ),
        ),
        n_requests=N_REQUESTS,
        submitters=draw(st.integers(1, 3)),
        block=draw(st.sampled_from((1, 3, 2 * max_batch + 1))),
        policy=BatchPolicy(max_batch=max_batch),
        maintenance_s=MAINTENANCE_S if process else None,
        faults=tuple(timeline),
    )


def check(result) -> None:
    outcomes = (
        result.ok + result.shed + result.failed + result.cancelled
        + result.refused
    )
    assert outcomes == result.n_requests == N_REQUESTS
    assert result.matched == result.ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_local_fault_timelines_keep_the_invariants(registry, scenario):
    check(run_scenario(scenario, registry))


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(scenario=scenarios(process=True))
def test_process_fault_timelines_keep_the_invariants(registry, scenario):
    check(run_scenario(scenario, registry))
