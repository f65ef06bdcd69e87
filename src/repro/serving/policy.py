"""Pure routing-policy core: replica arbitration with no threads or sockets.

*Deciding* which replica answers a request is kept apart from
*executing* that decision on a replica's host (in process, or in a
worker process): every function here is a pure decision over snapshot
state, trivially unit-testable, and the
:class:`~repro.serving.router.Router` applies it the same way on both
placements.

Candidates are duck-typed: anything exposing ``index`` / ``state`` /
``unit_delay`` / ``weight`` / ``pending`` participates (the router's
live ``_Replica`` objects do, wherever their host lives, and so do test
doubles), so the hot path never copies replica state into intermediate
view objects.

Two policy refinements live here beside the plain picks:

* **Weighted mirror votes** (:func:`resolve_votes` with per-vote
  weights): instead of one-replica-one-vote, each vote carries the
  winner/runner-up read margin of its own answer — the quantity
  ``read_margin_batch`` probes, recomputed for free from the currents
  the serving read already sensed.  Two hesitant replicas outvoting one
  confident one is exactly the failure mode margin weighting removes.
  The deterministic tie-break (lower class label) is preserved.
* **Gradual sticky drain** (:func:`pick_sticky` over draining
  replicas): a retiring replica's HRW clients are remapped in
  ``drain_steps`` deterministic cohorts — one cohort per maintenance
  sweep — instead of all at once, so a scale-down never steps the
  affinity mapping for every tenant in the same instant.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Replica lifecycle states (shared with the router, which re-exports
#: them; string-compared by the health layer, which cannot import us).
HEALTHY = "healthy"
DOWN = "down"
DRAINING = "draining"
EVICTED = "evicted"
RETIRED = "retired"
#: A worker-hosted replica between workers (its worker was lost) until
#: a survivor takes it over: no traffic, no heal-ladder rung.
UNPLACED = "unplaced"


def serviceable(replicas: Iterable) -> List:
    """The replicas a request may be routed to, best tier first.

    Healthy replicas when any exist; otherwise the down ones (trying a
    down replica beats rejecting the request outright — it may have
    recovered, and if not the failover chain surfaces the error).
    Draining, evicted and retired replicas never take new traffic.
    Empty when nothing is serviceable — the caller owns the error.
    """
    replicas = list(replicas)
    healthy = [r for r in replicas if r.state == HEALTHY]
    if healthy:
        return healthy
    return [r for r in replicas if r.state == DOWN]


def cost_score(replica) -> float:
    """Cost-policy score: lower is better.

    The replica's probed unit delay (its technology's own cost model),
    scaled by live queue depth — a busy replica's next request waits
    behind its backlog — and divided by the spec weight.
    """
    return replica.unit_delay * (1 + replica.pending) / replica.weight


def _hrw_key(token: bytes, replica) -> Tuple[int, int]:
    """Rendezvous (highest-random-weight) score of one (client, replica)
    pair; ties broken on the replica index for determinism."""
    return (zlib.crc32(token + b"|%d" % replica.index), replica.index)


def _client_token(client: Optional[object]) -> bytes:
    return b"" if client is None else str(client).encode()


def pick_cost(candidates: Sequence):
    """Cheapest candidate by :func:`cost_score`."""
    return min(candidates, key=cost_score)


def pick_round_robin(candidates: Sequence, rr_tick: int):
    """Candidates in turn; ``rr_tick`` is the caller's monotonic counter."""
    return candidates[rr_tick % len(candidates)]


def drain_moved(client: Optional[object], step: int, steps: int) -> bool:
    """Whether ``client`` has been remapped off a draining replica yet.

    Clients hash into ``steps`` deterministic cohorts (a *different*
    hash than the HRW placement one, so cohort membership is
    independent of which replica a client sticks to); cohort ``k``
    moves on drain step ``k+1``.  At step 0 nobody has moved, at step
    ``steps`` everyone has.
    """
    if steps <= 0:
        return True
    cohort = zlib.crc32(_client_token(client) + b"#drain") % steps
    return cohort < step


def pick_sticky(
    candidates: Sequence,
    client: Optional[object],
    draining: Sequence = (),
):
    """HRW affinity pick, honouring gradual drains.

    Per-(client, replica) scores never change, so losing a replica
    remaps only the clients whose top score it held (~1/N of them).  A
    *draining* replica keeps its clients until their cohort's step
    arrives (:func:`drain_moved`); a moved client lands on its next-best
    non-draining candidate — the same replica the final membership
    change would give it, just earlier, so the handover happens exactly
    once per client.
    """
    token = _client_token(client)
    pool = list(candidates) + [d for d in draining if d.state == DRAINING]
    winner = max(pool, key=lambda r: _hrw_key(token, r))
    if winner.state == DRAINING:
        steps = getattr(winner, "drain_steps", 0)
        step = getattr(winner, "drain_step", 0)
        if candidates and drain_moved(client, step, steps):
            return max(candidates, key=lambda r: _hrw_key(token, r))
        return winner
    return winner


def pick_replica(
    kind: str,
    candidates: Sequence,
    client: Optional[object] = None,
    rr_tick: int = 0,
    draining: Sequence = (),
):
    """One replica per the policy ``kind`` (mirror uses
    :func:`mirror_candidates` instead — fan-out is not a single pick)."""
    if kind == "round_robin":
        return pick_round_robin(candidates, rr_tick)
    if kind == "sticky":
        return pick_sticky(candidates, client, draining)
    # "cost" (and any unknown kind degrades to the safe default)
    return pick_cost(candidates)


def mirror_candidates(candidates: Sequence, fanout: int) -> List:
    """The mirror fan-out set: cheapest-first, capped at ``fanout``
    (0 = all candidates)."""
    ordered = sorted(candidates, key=cost_score)
    if fanout > 0:
        ordered = ordered[:fanout]
    return ordered


def vote_weight(margin: Optional[float]) -> float:
    """A vote's weight from its answer's winner/runner-up margin.

    ``None``/NaN (margin unavailable — degenerate geometry, remote
    result without a probe) and negative values weigh 0: the vote still
    counts toward unweighted fallback and agreement, it just cannot
    outvote a confident peer.
    """
    if margin is None or margin != margin:
        return 0.0
    return max(float(margin), 0.0)


def resolve_votes(
    votes: Sequence[Tuple[int, float]],
    weighted: bool = False,
) -> Tuple[int, Dict[int, float]]:
    """The winning prediction of a mirror vote; ``(winner, tally)``.

    ``votes`` are ``(prediction, weight)`` pairs from the replicas that
    answered (abstainers are excluded — they are accounted for in
    *agreement*, not here).  Unweighted, every vote counts 1 — the
    classic majority.  Weighted, each vote counts its read margin; when
    every margin collapsed to 0 (nothing confident anywhere) the count
    majority decides instead of the degenerate all-zero tally.  Either
    way an exact tie breaks deterministically on the lower class label.
    """
    if not votes:
        raise ValueError("resolve_votes needs at least one vote")
    tally: Dict[int, float] = {}
    for prediction, weight in votes:
        w = vote_weight(weight) if weighted else 1.0
        tally[prediction] = tally.get(prediction, 0.0) + w
    if weighted and max(tally.values()) <= 0.0:
        tally = {}
        for prediction, _ in votes:
            tally[prediction] = tally.get(prediction, 0.0) + 1.0
    winner = min(tally, key=lambda p: (-tally[p], p))
    return winner, tally
