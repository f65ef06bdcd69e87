"""Online serving walkthrough: two tenants, mixed streaming traffic.

Registers two independently trained models (iris and wine) in one
registry, starts a :class:`~repro.serving.server.FeBiMServer`, and
streams interleaved single-sample requests at it from two submitter
threads — the situation the micro-batching scheduler exists for.  Along
the way it demonstrates:

* versioned registration (wine is re-registered mid-run; subsequent
  requests are served by v2 without a restart),
* per-request circuit attribution (delay/energy from the shared batch
  report),
* telemetry (occupancy, p50/p95 latency) and a graceful drain.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

import tempfile
import threading

import numpy as np

from repro import BatchPolicy, FeBiMPipeline, FeBiMServer, ModelRegistry
from repro.datasets import load_dataset, train_test_split


def train_tenant(dataset_name: str, seed: int):
    """Fit one tenant pipeline and return (pipeline, request pool)."""
    data = load_dataset(dataset_name)
    X_tr, X_te, y_tr, y_te = train_test_split(
        data.data, data.target, test_size=0.5, seed=seed
    )
    pipe = FeBiMPipeline(q_f=4, q_l=2, seed=seed).fit(X_tr, y_tr)
    return pipe, pipe.transform_levels(X_te), y_te


def main() -> None:
    iris_pipe, iris_pool, iris_y = train_tenant("iris", seed=0)
    wine_pipe, wine_pool, wine_y = train_tenant("wine", seed=1)

    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        policy = BatchPolicy(max_batch=32, max_wait_ms=1.0)
        with FeBiMServer(registry, policy=policy, seed=42) as server:
            server.register("iris", iris_pipe.quantized_model_, iris_pipe.engine_.spec)
            server.register("wine", wine_pipe.quantized_model_, wine_pipe.engine_.spec)
            print(f"registered tenants: {server.models()}")

            # Two submitters stream mixed traffic concurrently.
            futures = {"iris": [], "wine": []}

            def stream(name, pool):
                for sample in pool:
                    futures[name].append(server.submit(name, sample))

            threads = [
                threading.Thread(target=stream, args=("iris", iris_pool)),
                threading.Thread(target=stream, args=("wine", wine_pool)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            server.drain()

            for name, y in (("iris", iris_y), ("wine", wine_y)):
                preds = np.array([f.result().prediction for f in futures[name]])
                acc = float(np.mean(preds == y))
                first = futures[name][0].result()
                print(
                    f"{name}: {len(preds)} served, accuracy {acc * 100:.1f} %, "
                    f"first request {first.delay * 1e9:.2f} ns / "
                    f"{first.energy_total * 1e15:.2f} fJ "
                    f"(batch of {first.batch_size})"
                )

            # Hot model update: re-register wine (here: freshly retrained
            # at a finer likelihood precision) and keep serving — the
            # registry invalidates wine, so the router drains its v1
            # route and the very next request is routed to v2.
            wine_v2, _, _ = train_tenant("wine", seed=7)
            new_version = server.register(
                "wine", wine_v2.quantized_model_, wine_v2.engine_.spec
            )
            result = server.predict("wine", wine_pool[0])
            print(
                f"wine re-registered as v{new_version}; next request served by "
                f"{result.model}"
            )

            print()
            print("telemetry")
            print(server.stats().format_lines())


if __name__ == "__main__":
    main()
