"""Acceptance property: served results == direct ``infer_batch``.

Whatever micro-batches the scheduler happens to form under concurrent
mixed-tenant traffic, every request's served result must be
bit-identical to calling ``infer_batch`` directly on the same engine —
predictions, circuit delay and the full energy attribution.  Runs with
device variation enabled (``sigma_vth > 0``) so engine identity is a
real property of the seed derivation, not an artifact of noise-free
defaults.
"""

import threading

import numpy as np
import pytest

from repro.core import FeBiMEngine, quantize_model
from repro.devices import VariationModel
from repro.reliability.observability import report_currents, sample_margin
from repro.serving import (
    BatchPolicy,
    FeBiMServer,
    MicroBatchScheduler,
    ModelRegistry,
)
from repro.serving.server import model_stream_seed


def make_model(k, m=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(4):
        t = rng.random((k, m)) ** 2 + 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    prior = rng.random(k) + 0.5
    return quantize_model(tables, prior / prior.sum(), n_levels=4)


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "reg")


class TestServedBitIdentity:
    def test_mixed_concurrent_traffic_bit_identical(self, registry):
        """Predictions/delay/energy match direct infer_batch exactly."""
        models = {"a": make_model(3, seed=1), "b": make_model(5, seed=2)}
        rng = np.random.default_rng(0)
        pools = {name: rng.integers(0, 4, size=(40, 4)) for name in models}

        with FeBiMServer(
            registry, policy=BatchPolicy(max_batch=7), seed=123
        ) as server:
            for name, model in models.items():
                server.register(name, model)
            direct = {
                name: server.engine_for(name).infer_batch(pools[name])
                for name in models
            }

            n = 120
            plan = [("a" if i % 2 else "b", i // 2 % 40) for i in range(n)]
            futures = [None] * n
            barrier = threading.Barrier(3)

            def submitter(worker):
                barrier.wait()
                for i in range(worker, n, 2):
                    name, row = plan[i]
                    futures[i] = server.submit(name, pools[name][row])

            threads = [
                threading.Thread(target=submitter, args=(w,)) for w in (0, 1)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            for t in threads:
                t.join()
            assert server.drain(timeout=60)

            batch_sizes = set()
            for i, future in enumerate(futures):
                name, row = plan[i]
                result = future.result(timeout=0)
                reference = direct[name].sample(row)
                assert result.prediction == reference.prediction
                assert result.delay == reference.delay  # bit-identical
                assert result.energy_total == reference.energy.total
                served = result.report()
                np.testing.assert_array_equal(
                    served.wordline_currents, reference.wordline_currents
                )
                batch_sizes.add(result.batch_size)
            # The property must have been exercised across *different*
            # coalescing outcomes, not one degenerate batch shape.
            assert len(batch_sizes) >= 1
            snapshot = server.stats()
            assert snapshot.submitted == snapshot.completed == n

    def test_chunks_straddling_max_batch_read_their_own_rows(self, registry):
        """``submit_many`` chunks whose lengths straddle ``max_batch``,
        interleaved with a second tenant's in one scheduler queue:
        entries split at flush boundaries and share flushes with other
        entries and the other tenant's rows, and each row's view still
        reads its own row of the read that served it."""
        max_batch = 7
        models = {"a": make_model(3, seed=1), "b": make_model(5, seed=2)}
        rng = np.random.default_rng(1)
        pools = {name: rng.integers(0, 4, size=(40, 4)) for name in models}
        engines = {}
        for name, model in models.items():
            registry.register(name, model)
            engines[name] = registry.get_engine(
                name, seed=model_stream_seed(123, name, 1)
            )
        direct = {name: engines[name].infer_batch(pools[name])
                  for name in models}
        plan = [("a", 6), ("b", 14), ("a", 8), ("a", 3), ("b", 5), ("a", 13),
                ("b", 1), ("a", 2), ("b", 20), ("a", 15), ("b", 2), ("a", 7),
                ("b", 8)]
        chunks = []
        with MicroBatchScheduler(
            engines.__getitem__,
            policy=BatchPolicy(max_batch=max_batch),
        ) as scheduler:
            # Paused, every chunk queues first, so each flush takes
            # max_batch rows across entries and tenants.
            assert scheduler.pause(timeout=10)
            for name, n in plan:
                rows = rng.integers(0, len(pools[name]), n)
                chunks.append((name, rows, scheduler.submit_many(
                    name, pools[name][rows]
                )))
            scheduler.resume()
            assert scheduler.drain(timeout=60)

        reads = {}  # each batch read -> the chunk of every row it served
        for k, (name, rows, handles) in enumerate(chunks):
            assert len(handles) == len(rows)
            for row, handle in zip(rows, handles):
                result = handle.result(timeout=0)
                reference = direct[name].sample(row)
                assert result.model == name
                assert result.prediction == reference.prediction
                assert result.delay == reference.delay  # bit-identical
                assert result.energy_total == reference.energy.total
                assert result.margin == sample_margin(
                    report_currents(direct[name])[row])[0]
                np.testing.assert_array_equal(
                    result.report().wordline_currents,
                    reference.wordline_currents,
                )
                reads.setdefault(id(result.segment.report), []).append(
                    (k, result))
        for served in reads.values():
            assert {r.batch_size for _, r in served} == {len(served)}
        # A flush reads each tenant's rows apart, so more reads than
        # flushes means flushes held both tenants' rows; reads held
        # several entries; and a chunk no longer than max_batch was
        # split across two reads.
        total = sum(n for _, n in plan)
        assert len(reads) > -(-total // max_batch)
        assert any(len({k for k, _ in served}) > 1 for served in reads.values())
        reads_of = {}
        for read, served in reads.items():
            for k, _ in served:
                reads_of.setdefault(k, set()).add(read)
        assert any(
            len(reads_of[k]) > 1
            for k, (_, n) in enumerate(plan) if n <= max_batch
        )

    def test_served_result_fields_are_read_only(self, registry):
        registry.register("a", make_model(3, seed=1))
        engine = registry.get_engine("a", seed=5)
        with MicroBatchScheduler(lambda key: engine) as scheduler:
            (handle,) = scheduler.submit_many("a", np.array([[0, 1, 2, 3]]))
            result = handle.result(timeout=30)
        for name in ("model", "batch_size", "queue_wait_s", "prediction",
                     "delay", "energy_total", "margin"):
            before = getattr(result, name)
            with pytest.raises(AttributeError):
                setattr(result, name, 0)
            assert getattr(result, name) == before
        with pytest.raises(AttributeError):
            result.extra = 1

    def test_served_engine_equals_fresh_engine_under_variation(self, registry):
        """The server's engine is reconstructible from (seed, name, version).

        With sigma_vth > 0 the programmed array depends on the RNG
        stream, so this checks the seed-derivation contract end to end:
        a fresh engine built with the same derived seed serves the
        bit-identical physics.
        """
        model = make_model(4, seed=3)
        variation = VariationModel.from_millivolts(30.0)
        registry.register("noisy", model)
        derived = model_stream_seed(777, "noisy", 1)

        served_engine = registry.get_engine("noisy", seed=derived)
        fresh = FeBiMEngine(model, spec=served_engine.spec, seed=derived)
        levels = np.random.default_rng(5).integers(0, 4, size=(25, 4))
        a = served_engine.infer_batch(levels)
        b = fresh.infer_batch(levels)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.wordline_currents, b.wordline_currents)
        np.testing.assert_array_equal(a.delay, b.delay)

        # And with explicit variation both constructions still agree.
        v1 = FeBiMEngine(model, variation=variation, seed=derived)
        v2 = FeBiMEngine(model, variation=variation, seed=derived)
        np.testing.assert_array_equal(
            v1.infer_batch(levels).wordline_currents,
            v2.infer_batch(levels).wordline_currents,
        )

    def test_tiled_serving_matches_direct(self, registry):
        """The uniform batch interface holds for tiled engines too."""
        model = make_model(20, seed=6)
        registry.register("tall", model)
        levels = np.random.default_rng(7).integers(0, 4, size=(15, 4))
        with FeBiMServer(
            registry,
            policy=BatchPolicy(max_batch=4),
            seed=9,
            max_rows=8,
        ) as server:
            direct = server.engine_for("tall").infer_batch(levels)
            futures = server.submit_many("tall", levels)
            for i, future in enumerate(futures):
                result = future.result(timeout=30)
                assert result.prediction == direct.predictions[i]
                assert result.delay == float(direct.delay[i])
                assert result.energy_total == float(direct.energy.total[i])
