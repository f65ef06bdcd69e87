"""Replica hosting: the engine side of one replica, wherever it lives.

A :class:`ReplicaHost` is one replica's programmed engine and the
:class:`~repro.serving.scheduler.MicroBatchScheduler` that feeds it.
The :class:`~repro.serving.router.Router` owns every replica and calls
its host for everything that touches the array — program and probe
(:meth:`ReplicaHost.place`, which on a placed replica is the heal
ladder's replace rung), the canary read, refresh (``program``), spare
repair, the hardware inventory, kill and retire — and queues routed
rows on it (:meth:`ReplicaHost.enqueue`).  The host is the only owner
of the engine it programs: the registry hands each call a new array.
A ``placement: local`` replica's host lives in process.  A
``placement: process`` replica's host lives in a worker process
(:mod:`repro.serving.worker`), which answers the front end's
per-replica control frames by calling these same methods, so the
engine-side code is written once.

Every call that reads or reprograms the array runs under the
scheduler's quiesce, so no canary read or reprogram ever interleaves
with a live batch — on either placement.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.backends.base import Capability
from repro.reliability.mitigation import refresh_engine, spare_row_repair
from repro.reliability.observability import report_currents
from repro.serving.scheduler import MicroBatchScheduler

#: How long a host call waits for the replica's in-flight batch.
QUIESCE_TIMEOUT_S = 30.0


class KilledReplicaError(RuntimeError):
    """Raised when a batch resolves an engine on a killed replica."""


class WorkerLost(RuntimeError):
    """A request or control call could not complete: its worker died.

    Not a replica fault: the heal ladder ends its pass on it, and the
    worker pool re-places the replica."""


@dataclass(frozen=True)
class CanaryRead:
    """One canary read of a replica: per-canary predictions and read
    currents, and the mean modelled delay (the cost policy's unit
    delay when the read is a placement probe)."""

    predictions: np.ndarray
    currents: np.ndarray
    delay: float

    def fields(self) -> dict:
        """The read as strict-JSON frame fields."""
        return {
            "predictions": self.predictions.tolist(),
            "currents": self.currents.tolist(),
            "delay": self.delay,
        }

    @classmethod
    def from_fields(cls, message: dict) -> "CanaryRead":
        return cls(
            np.asarray(message["predictions"]),
            np.asarray(message["currents"], dtype=float),
            float(message["delay"]),
        )


def replica_stream_seed(
    base_seed: Optional[int], name: str, version: int, replica: int
) -> Optional[int]:
    """Deterministic per-replica engine seed.

    Replica 0 uses the unmodified per-tenant stream
    (:func:`~repro.serving.server.model_stream_seed`) so a
    single-replica deployment materialises the bit-identical engine an
    undeployed model's implicit deployment serves; higher replicas
    extend the entropy tuple with their index for statistically
    independent streams.
    """
    from repro.serving.server import model_stream_seed

    if replica == 0:
        return model_stream_seed(base_seed, name, version)
    if base_seed is None:
        return None
    entropy = (
        int(base_seed),
        zlib.crc32(name.encode("utf-8")),
        int(version),
        int(replica),
    )
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def replica_engine(server, name: str, version: int, index: int, spec):
    """Program a new engine for replica ``index`` of ``name``
    v``version`` on ``spec``, under ``server``'s registry, seed and
    ``max_rows``."""
    registry = server.registry
    # A replica on the registry's own technology with no options of
    # its own inherits the registry's serving configuration, so it
    # programs the engine an implicit deployment would (single-replica
    # bit-identity, enforced by tests/serving/test_router.py).
    backend = None if spec.backend == registry.backend else spec.backend
    options = spec.backend_options or (None if backend is None else {})
    return registry.get_engine(
        name,
        version,
        max_rows=server.max_rows,
        seed=replica_stream_seed(server.seed, name, version, index),
        backend=backend,
        backend_options=options,
    )


class ReplicaHost:
    """One replica's engine and micro-batch scheduler.

    ``server`` supplies the ``registry``, batch ``policy``,
    ``telemetry``, base ``seed`` and ``max_rows`` engines materialise
    and batches run with (a :class:`~repro.serving.server.FeBiMServer`,
    or a worker process).  ``key`` is the scheduler routing key, and its
    string the ``model`` of every served result.  ``wrap`` (optional)
    wraps each materialised engine (the router's ``engine_wrapper``).
    """

    def __init__(self, server, name: str, version: int, index: int, spec,
                 key, max_queue_depth: Optional[int] = None, wrap=None):
        self.server = server
        self.name = name
        self.version = version
        self.index = index
        self.spec = spec
        self.key = key
        self.wrap = wrap
        self.engine = None
        self.placed = None  # this placement's token; see place()
        self.scheduler = MicroBatchScheduler(
            lambda _key: self.resolve(),
            policy=server.policy,
            telemetry=server.telemetry,
            max_queue_depth=max_queue_depth,
        )

    @property
    def label(self) -> str:
        return f"{self.key}[{self.spec.backend}]"

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def enqueue(self, entries, block: bool = False):
        """The request plane's queue: the scheduler, bound to the key
        (refused rows go back to their owner)."""
        return self.scheduler.enqueue(self.key, entries, block)

    def resolve(self):
        """The engine serving this replica; raises when killed."""
        engine = self.engine
        if engine is None:
            raise KilledReplicaError(f"replica {self.label} is dead")
        return engine

    def quiesce(self, timeout: float = QUIESCE_TIMEOUT_S):
        """No batch runs on the engine inside the block (nests)."""
        return self.scheduler.quiesce(timeout)

    # ------------------------------------------------------------ programming
    def place(self, canaries=None) -> Optional[CanaryRead]:
        """Program a new engine, swap it in and probe it on ``canaries``.

        Every call programs new hardware with the replica's stream seed
        (:func:`replica_engine`; wrapped by ``wrap``): the first
        placement, and on a placed replica the replace rung.  Each call
        starts a new placement, whose token :attr:`placed` stamps the
        request plane's evidence, so a failure seen on the old array
        never marks the new one down.  Returns the probe read, or
        ``None`` when no canaries were given.
        """
        engine = replica_engine(
            self.server, self.name, self.version, self.index, self.spec
        )
        if self.wrap is not None:
            engine = self.wrap(engine)
        with self.quiesce():
            self.engine = engine
            self.placed = object()
            if canaries is None:
                return None
            return self._read(canaries)

    def read(self, levels) -> CanaryRead:
        """One canary read."""
        with self.quiesce():
            return self._read(levels)

    def _read(self, levels) -> CanaryRead:
        report = self.resolve().infer_batch(np.asarray(levels, dtype=int))
        return CanaryRead(
            np.asarray(report.predictions).copy(),
            report_currents(report).copy(),
            float(np.mean(report.delay)),
        )

    def program(self) -> None:
        """The refresh rung: reprogram the array in place."""
        with self.quiesce():
            refresh_engine(self.resolve())

    def _arrays(self):
        """``(tile, backend)`` of every array of the engine."""
        engine = self.resolve()
        for tile in getattr(engine, "tiles", None) or [engine]:
            backend = getattr(tile, "backend", None)
            if backend is not None:
                yield tile, backend

    def repair(self) -> List[Tuple[List[int], int]]:
        """The spare-repair rung: remap BIST-flagged rows onto spares.

        Returns ``(rows, spares_free)`` per repaired array — empty when
        no array has spare rows left or a clean scan (the ladder then
        escalates to replace)."""
        repaired = []
        with self.quiesce():
            for tile, backend in self._arrays():
                if not backend.supports(Capability.SPARE_ROWS):
                    continue
                if backend.spare_rows_free <= 0:
                    continue
                try:
                    rows = spare_row_repair(tile)
                except Exception:  # noqa: BLE001 — the next array may still repair
                    continue
                if rows:
                    repaired.append((
                        [int(r) for r in rows], int(backend.spare_rows_free),
                    ))
        return repaired

    def inventory(self) -> Tuple[Optional[int], Optional[int]]:
        """``(spares_free, faulty_cells)`` over the engine's arrays, from
        verify reads that never mutate state (no quiesce); ``None`` for a
        count no array reports."""
        spares: Optional[int] = None
        faults: Optional[int] = None
        for _, backend in self._arrays():
            if backend.supports(Capability.SPARE_ROWS):
                free = int(backend.spare_rows_free)
                spares = free if spares is None else spares + free
            try:
                flagged = int(np.count_nonzero(backend.bist_scan()))
            except Exception:  # noqa: BLE001 — no BIST on this array
                continue
            faults = flagged if faults is None else faults + flagged
        return spares, faults

    def kill(self) -> None:
        """Chaos hook: batches on this replica fail from now on."""
        self.engine = None

    # -------------------------------------------------------------- lifecycle
    def drain(self, timeout: Optional[float] = None) -> bool:
        return self.scheduler.drain(timeout)

    def retire(self, drain: bool = True,
               timeout: Optional[float] = None) -> None:
        """Shut the scheduler (serving what is queued when ``drain``)."""
        self.scheduler.shutdown(drain=drain, timeout=timeout)
