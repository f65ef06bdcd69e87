"""Placement/transport layer: where a deployment's replicas live.

Two placements behind one server class:

* ``local`` (the default, and any spec without a ``placement`` block):
  replicas are hosted in-process by
  :class:`~repro.serving.server.FeBiMServer` — bit-identical to the
  pre-placement behaviour, zero new overhead on the submit path.
* ``process``: replicas live in supervised worker subprocesses of a
  :class:`~repro.serving.cluster.ClusterServer` — a ``FeBiMServer``
  whose router places every replica's engine and queue on a worker —
  speaking the versioned length-prefixed JSON protocol in
  :mod:`repro.serving.transport.protocol`: one ``request`` frame per
  routed chunk, one columnar ``result`` frame back, and per-replica
  control frames for placement, the heal ladder and retirement.

:func:`serve_deployment` is the switch: hand it a registry and a
deployment spec and it returns whichever server the spec's placement
calls for, already deployed — one surface either way, so callers (and
the CLI) never branch on placement again.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.serving.transport.protocol import (
    HEADER,
    MAGIC,
    MAX_FRAME,
    MESSAGE_KINDS,
    WIRE_VERSION,
    FrameDecoder,
    MessageConnection,
    ProtocolError,
    RemoteServedResult,
    RemoteWorkerError,
    RESULT_COLUMNS,
    decode_block,
    decode_error,
    decode_result,
    encode_block,
    encode_error,
    encode_frame,
    encode_result,
    make,
)

__all__ = [
    "HEADER",
    "MAGIC",
    "MAX_FRAME",
    "MESSAGE_KINDS",
    "WIRE_VERSION",
    "FrameDecoder",
    "MessageConnection",
    "ProtocolError",
    "RemoteServedResult",
    "RemoteWorkerError",
    "RESULT_COLUMNS",
    "decode_block",
    "decode_error",
    "decode_result",
    "encode_block",
    "encode_error",
    "encode_frame",
    "encode_result",
    "make",
    "serve_deployment",
]


def serve_deployment(
    registry,
    deployment,
    policy=None,
    seed: Optional[int] = None,
    max_rows: Optional[int] = None,
    **cluster_kwargs,
):
    """A deployed server for ``deployment``, placed per its spec.

    ``placement: local`` (or none) builds a
    :class:`~repro.serving.server.FeBiMServer`; ``placement: process``
    builds a :class:`~repro.serving.cluster.ClusterServer` with
    ``cluster_kwargs`` forwarded (e.g. ``heartbeat_period_s``).  Either
    way the deployment is applied before the server is returned — use
    as a context manager for guaranteed teardown.
    """
    from repro.serving.cluster import ClusterServer
    from repro.serving.server import FeBiMServer

    placement = deployment.placement
    if placement is not None and placement.kind == "process":
        server_class = ClusterServer
    elif cluster_kwargs:
        raise TypeError(
            f"local placement takes no cluster kwargs, got "
            f"{sorted(cluster_kwargs)}"
        )
    else:
        server_class = FeBiMServer
    server = server_class(
        registry, policy=policy, seed=seed, max_rows=max_rows, **cluster_kwargs
    )
    try:
        server.deploy(deployment)
    except BaseException:
        server.close(drain=False)
        raise
    return server
