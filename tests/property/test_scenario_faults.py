"""Seeded randomized fault timelines against small deployments.

Each example draws a deployment of two or three replicas, a routing
policy, a submitter count, a batch bound, the rows per client call (one
``submit``, or ``submit_many`` chunks that split across batches) and up
to six faults (a ``cancel`` fault has the client cancel every handle it
holds that is not yet done), and runs it through
:func:`~repro.serving.workload.run_scenario`.  On about half the local
examples the deployment carries a bounded ``SLOPolicy`` (a queue of 1
to 12 rows, an ``interactive`` priority lane), and on some of those
paced engines fill the queues, so rows are shed and displaced under
faults.  The runner
checks the serving invariants on every run and raises when one breaks
(a pending future or row handle, books that disagree with the
clients, a queue left behind, flight events out of causal order, a
leaked thread or worker process), so returning at all is the property;
on top of that every request must be accounted for exactly once, and
every served row must match an offline read.  Each run labels its
outcome classes (``hypothesis.event``), so ``--hypothesis-show-statistics``
shows how often the examples shed, displace, fail and cancel.
"""

import numpy as np
import pytest
from hypothesis import currently_in_test_context, event, given, settings
from hypothesis import strategies as st

from repro.core import quantize_model
from repro.serving import (
    BatchPolicy,
    Deployment,
    ModelRegistry,
    PlacementSpec,
    ReplicaSpec,
    RoutingPolicy,
    SLOPolicy,
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
    slo = service_time_ms = None
    if not process and draw(st.booleans()):
        slo = SLOPolicy(
            max_queue_depth=draw(st.integers(1, 12)),
            max_replicas=len(backends) + 1,
            priorities={"interactive": 10},
        )
        if draw(st.booleans()):
            service_time_ms = 0.2  # paced reads, so the queues fill
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
            slo=slo,
            placement=(
                PlacementSpec(kind="process", workers=2) if process else None
            ),
        ),
        n_requests=N_REQUESTS,
        submitters=draw(st.integers(1, 3)),
        block=draw(st.sampled_from((1, 3, 2 * max_batch + 1))),
        policy=BatchPolicy(max_batch=max_batch),
        service_time_ms=service_time_ms,
        maintenance_s=MAINTENANCE_S if process else None,
        faults=tuple(timeline),
    )


OUTCOMES = ("ok", "shed", "failed", "cancelled", "refused")


def check(result) -> None:
    outcomes = sum(getattr(result, outcome) for outcome in OUTCOMES)
    assert outcomes == result.n_requests == N_REQUESTS
    assert result.matched == result.ok
    if currently_in_test_context():
        for outcome in OUTCOMES:
            if getattr(result, outcome):
                event(outcome)
        if result.event_counts.get("displacement"):
            event("displacement")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_local_fault_timelines_keep_the_invariants(registry, scenario):
    check(run_scenario(scenario, registry))


def test_bounded_timeline_sheds_and_keeps_the_invariants(registry):
    """Two paced replicas behind one-row queues, three submitters, a
    kill and a sweep: rows are shed while every invariant holds."""
    result = run_scenario(Scenario(
        deployment=Deployment(
            "iris", [ReplicaSpec("ideal"), ReplicaSpec("cmos")],
            RoutingPolicy("cost"),
            slo=SLOPolicy(
                max_queue_depth=1, max_replicas=3,
                priorities={"interactive": 10},
            ),
        ),
        n_requests=N_REQUESTS,
        submitters=3,
        policy=BatchPolicy(max_batch=4),
        service_time_ms=0.2,
        faults=(Fault("kill_replica", at=24), Fault("sweep", at=48)),
    ), registry)
    check(result)
    assert result.shed > 0


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(scenario=scenarios(process=True))
def test_process_fault_timelines_keep_the_invariants(registry, scenario):
    check(run_scenario(scenario, registry))
