"""Wire protocol: framing, round-trips, typed errors, malformed input."""

import base64
import json
import math
import socket
import struct
import threading

import numpy as np
import pytest

from repro.backends.base import CapabilityError
from repro.serving.scheduler import Overloaded
from repro.serving.transport import (
    HEADER,
    MAGIC,
    MAX_FRAME,
    MESSAGE_KINDS,
    RESULT_COLUMNS,
    WIRE_VERSION,
    FrameDecoder,
    MessageConnection,
    ProtocolError,
    RemoteServedResult,
    RemoteWorkerError,
    decode_block,
    decode_error,
    decode_result,
    encode_block,
    encode_error,
    encode_frame,
    encode_result,
    make,
)
from repro.serving.transport.protocol import pack_levels, unpack_levels


def roundtrip(message: dict) -> dict:
    decoder = FrameDecoder()
    (out,) = decoder.feed(encode_frame(message))
    decoder.close()
    return out


SAMPLE_BODIES = {
    "hello": {"worker": "w0", "pid": 1234},
    "place": {"id": "c1", "placement": "p0",
              "host": {"name": "iris", "version": 1, "index": 0,
                       "spec": {"backend": "fefet"}, "key": "iris@v1#r0",
                       "max_queue_depth": None},
              "canaries": [[0, 1, 2]]},
    "read": {"id": "c2", "placement": "p0", "levels": [[0, 1, 2]]},
    "program": {"id": "c3", "placement": "p0"},
    "repair": {"id": "c4", "placement": "p0"},
    "kill": {"id": "c5", "placement": "p0"},
    "inventory": {"id": "c6", "placement": "p0"},
    "retire": {"id": "c7", "placement": "p0", "drain": True},
    "done": {"id": "c2", "worker": "w0",
             "result": {"predictions": [1], "delay": 3.7e-10,
                        "currents": [[1.5e-06, 2.25e-07, 3e-07]]}},
    "request": {"id": "r1", "placement": "p0",
                "levels": pack_levels([[3, 0, 1], [2, 2, 0]])[0],
                "features": 3, "priority": 1},
    "result": {"id": "r1", "worker": "w0", "result": {"model": "iris"}},
    "error": {"id": "r1", "worker": "w0", "error": {"type": "runtime"}},
    "heartbeat": {"worker": "w0"},
    "event": {"worker": "w0", "event_kind": "shed", "detail": {}},
    "shutdown": {},
}


class TestFraming:
    def test_every_message_kind_round_trips(self):
        # The taxonomy and the sample table must stay in lockstep.
        assert set(SAMPLE_BODIES) == set(MESSAGE_KINDS)
        for kind, body in SAMPLE_BODIES.items():
            message = make(kind, **body)
            assert roundtrip(message) == message

    def test_unknown_kind_rejected_at_both_ends(self):
        with pytest.raises(ProtocolError):
            make("telepathy")
        with pytest.raises(ProtocolError):
            encode_frame({"kind": "telepathy"})
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 20) + b'{"kind": "gossip"}  '
        with pytest.raises(ProtocolError, match="unknown message kind"):
            FrameDecoder().feed(frame)

    def test_bad_magic_rejected(self):
        frame = HEADER.pack(0x1234, WIRE_VERSION, 2) + b"{}"
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(frame)

    def test_unknown_version_rejected(self):
        frame = HEADER.pack(MAGIC, WIRE_VERSION + 1, 2) + b"{}"
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(frame)

    def test_v1_per_row_frame_refused(self):
        # Version 2 changed the request and result bodies to blocks,
        # version 3 addresses replicas by placement id, version 5 packs
        # the result's float columns, version 6 the request's levels
        # and version 7 sends per-segment values as result segments; a
        # v1, v5 or v6 peer must fail loudly on its first frame, never
        # misparse.
        assert WIRE_VERSION == 7
        body = json.dumps({"kind": "request", "id": "r1", "model": "iris",
                           "replica_index": 0, "levels": [3, 0, 1],
                           "priority": 0}).encode()
        frame = HEADER.pack(MAGIC, 1, len(body)) + body
        with pytest.raises(ProtocolError, match="unsupported wire version 1"):
            FrameDecoder().feed(frame)
        body = json.dumps({"kind": "request", "id": "r1", "placement": "p0",
                           "levels": [[3, 0, 1]], "priority": 0}).encode()
        frame = HEADER.pack(MAGIC, 5, len(body)) + body
        with pytest.raises(ProtocolError, match="unsupported wire version 5"):
            FrameDecoder().feed(frame)
        body = json.dumps({"kind": "result", "id": "r1", "result": {
            "model": "iris", "prediction": [1], "batch_size": [1],
        }}).encode()
        frame = HEADER.pack(MAGIC, 6, len(body)) + body
        with pytest.raises(ProtocolError, match="unsupported wire version 6"):
            FrameDecoder().feed(frame)

    def test_oversize_length_rejected_before_buffering(self):
        frame = HEADER.pack(MAGIC, WIRE_VERSION, MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            FrameDecoder().feed(frame)

    def test_truncated_frame_detected_at_eof(self):
        frame = encode_frame(make("heartbeat", worker="w0", replicas=[]))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-3]) == []
        with pytest.raises(ProtocolError, match="truncated"):
            decoder.close()

    def test_byte_at_a_time_reassembly(self):
        message = make("event", worker="w9", event_kind="shed",
                       detail={"depth": 4})
        frame = encode_frame(message)
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i:i + 1]))
        decoder.close()
        assert out == [message]

    def test_many_frames_in_one_chunk(self):
        messages = [
            make("heartbeat", worker=f"w{i}", replicas=[]) for i in range(5)
        ]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_non_object_body_rejected(self):
        body = b"[1, 2, 3]"
        frame = HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body
        with pytest.raises(ProtocolError, match="keyed message"):
            FrameDecoder().feed(frame)

    def test_garbage_json_rejected(self):
        body = b"{nope"
        frame = HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body
        with pytest.raises(ProtocolError, match="JSON"):
            FrameDecoder().feed(frame)

    def test_nan_never_reaches_the_wire(self):
        result = RemoteServedResult(
            model="iris", prediction=1, delay=1e-9, energy_total=1e-15,
            queue_wait_s=0.0, batch_size=1, margin=float("nan"),
        )
        payload = encode_result(result)
        # The full frame must be strict JSON (allow_nan=False holds).
        frame = encode_frame(make("result", id="r1", result=payload))
        json.loads(frame[HEADER.size:])
        assert decode_result(payload).margin is None


class TestTypedErrors:
    def test_overloaded_survives_the_boundary(self):
        original = Overloaded(
            "queue full for iris", key="iris", depth=32, lane=1
        )
        rebuilt = decode_error(roundtrip(
            make("error", id="r1", error=encode_error(original))
        )["error"])
        assert isinstance(rebuilt, Overloaded)
        assert rebuilt.key == "iris"
        assert rebuilt.depth == 32
        assert rebuilt.lane == 1
        assert str(rebuilt) == str(original)

    def test_capability_error_survives_the_boundary(self):
        original = CapabilityError("memristor", "margin_probe")
        rebuilt = decode_error(roundtrip(
            make("error", id="r1", error=encode_error(original))
        )["error"])
        assert isinstance(rebuilt, CapabilityError)
        assert rebuilt.backend == "memristor"
        assert rebuilt.capability == "margin_probe"
        assert str(rebuilt) == str(original)

    def test_anything_else_degrades_to_remote_worker_error(self):
        rebuilt = decode_error(encode_error(KeyError("no such model")))
        assert isinstance(rebuilt, RemoteWorkerError)
        assert rebuilt.exc_type == "KeyError"
        assert "no such model" in str(rebuilt)


class TestRequestLevels:
    """Version 6 packs a ``request`` frame's levels as one base64
    little-endian int64 block plus its feature count."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (256, 3), (0, 5)])
    def test_any_int64_block_round_trips_bit_for_bit(self, shape):
        info = np.iinfo(np.int64)
        block = np.random.default_rng(11).integers(
            info.min, info.max, size=shape, dtype=np.int64, endpoint=True
        )
        if block.size:
            block.flat[0], block.flat[-1] = info.min, info.max
        text, features = pack_levels(block)
        assert features == shape[1]
        assert base64.b64decode(text) == block.astype("<i8").tobytes()
        body = roundtrip(make("request", id="r1", placement="p0",
                              levels=text, features=features, priority=0))
        back = unpack_levels(body["levels"], body["features"])
        assert back.dtype == np.int64 and back.shape == shape
        np.testing.assert_array_equal(back, block)

    def test_a_strided_view_packs_in_row_order(self):
        block = np.arange(24, dtype=np.int64).reshape(6, 4)[::2, 1:3]
        np.testing.assert_array_equal(unpack_levels(*pack_levels(block)), block)

    def test_text_that_is_not_base64_is_refused(self):
        with pytest.raises(ProtocolError, match="not base64"):
            unpack_levels("not base64!", 3)
        with pytest.raises(ProtocolError, match="not base64"):
            unpack_levels([[0, 1, 2]], 3)  # a v5 list body

    def test_a_partial_row_is_refused(self):
        text, _ = pack_levels(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ProtocolError, match="whole rows"):
            unpack_levels(text, 4)
        partial = base64.b64encode(b"\0" * 20).decode("ascii")
        with pytest.raises(ProtocolError, match="whole rows"):
            unpack_levels(partial, 1)

    @pytest.mark.parametrize("features", [0, -1, None, "3"])
    def test_a_feature_count_below_one_is_refused(self, features):
        text, _ = pack_levels(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ProtocolError, match="feature count"):
            unpack_levels(text, features)


def block_columns(n, margins=None):
    """Per-row columns of an ``n``-row block with awkward float values."""
    return {
        "prediction": [i % 3 for i in range(n)],
        "delay": [3.7e-10 + i * 1.1e-13 for i in range(n)],
        "energy_total": [1.7142e-14 / (i + 3) for i in range(n)],
        "margin": list(margins) if margins is not None
        else [0.2 / (i + 1) for i in range(n)],
    }


def block_segments(n, errors=(), cuts=()):
    """Served segments over the rows of an ``n``-row block no error
    range holds, also cut at ``cuts``; segment ``k`` has its own
    awkward batch size and queue wait."""
    failed = {row for lo, hi, _ in errors for row in range(lo, hi)}
    segments, lo = [], None
    for row in range(n + 1):
        if lo is not None and (row == n or row in failed or row in cuts):
            k = len(segments)
            segments.append((lo, row, row - lo + 7 * k, 0.1 + 1e-7 * k))
            lo = None
        if lo is None and row < n and row not in failed:
            lo = row
    return segments


def segment_of(segments, row):
    return next(s for s in segments if s[0] <= row < s[1])


class TestResultCodecs:
    def test_result_round_trip(self):
        result = RemoteServedResult(
            model="iris", prediction=2, delay=3.2e-9, energy_total=4.5e-15,
            queue_wait_s=1.5e-3, batch_size=8, margin=0.125,
            replica="iris@v1#r0[fefet]", worker="w0",
        )
        assert decode_result(encode_result(result)) == result

    def test_degenerate_margin_round_trips_as_none(self):
        result = RemoteServedResult(
            model="iris", prediction=0, delay=1e-9, energy_total=1e-15,
            queue_wait_s=0.0, batch_size=1, margin=float("nan"),
        )
        back = decode_result(encode_result(result))
        assert back.margin is None

    def test_columnar_block_round_trips_bit_identically(self):
        n = 29
        columns = block_columns(n)
        segments = block_segments(n, cuts=(10, 20))
        assert len(segments) == 3
        expected = {name: list(values) for name, values in columns.items()}
        message = make("result", id="r7", worker="w1", result=encode_block(
            "iris@v1#r0", columns, segments, replica="iris@v1/r0[fefet]",
            worker="w1",
        ))
        outcomes = decode_block(roundtrip(message)["result"])
        assert len(outcomes) == n
        for i, outcome in enumerate(outcomes):
            _, _, size, wait = segment_of(segments, i)
            assert outcome == RemoteServedResult(
                "iris@v1#r0", expected["prediction"][i], expected["delay"][i],
                expected["energy_total"][i], wait, size,
                expected["margin"][i], "iris@v1/r0[fefet]", "w1",
            )
            # Bit for bit, not approximately.
            assert outcome.delay.hex() == expected["delay"][i].hex()
            assert (outcome.energy_total.hex()
                    == expected["energy_total"][i].hex())
            assert outcome.queue_wait_s.hex() == wait.hex()

    def test_segment_values_go_out_once_per_segment(self):
        """Version 7 sends ``batch_size`` and ``queue_wait_s`` once per
        served segment, beside the per-row columns."""
        segments = block_segments(9, cuts=(4,))
        body = encode_block("iris", block_columns(9), segments)
        assert "batch_size" not in body and "queue_wait_s" not in body
        assert body["segments"] == [list(segment) for segment in segments]
        assert set(RESULT_COLUMNS) <= set(body)

    def test_nan_margins_decode_to_none(self):
        margins = [0.5, float("nan"), None, 0.25]
        body = encode_block("iris", block_columns(4, margins),
                            block_segments(4))
        frame = encode_frame(make("result", id="r1", result=body))
        json.loads(frame[HEADER.size:])  # strict JSON: no NaN token
        outcomes = decode_block(roundtrip(make("result", result=body))["result"])
        assert [o.margin for o in outcomes] == [0.5, None, None, 0.25]

    def test_error_ranges_decode_to_typed_exceptions(self):
        errors = [
            (1, 2, Overloaded("queue full", key="iris#r0", depth=4, lane=2)),
            (3, 4, CapabilityError("memristor", "margin-probe")),
            (4, 5, KeyError("gone")),
        ]
        body = encode_block("iris", block_columns(5),
                            block_segments(5, errors), errors)
        assert [[lo, hi] for lo, hi, _ in body["errors"]] == [
            [1, 2], [3, 4], [4, 5],
        ]
        outcomes = decode_block(roundtrip(make("result", result=body))["result"])
        assert isinstance(outcomes[0], RemoteServedResult)
        assert isinstance(outcomes[2], RemoteServedResult)
        shed = outcomes[1]
        assert isinstance(shed, Overloaded)
        assert (shed.key, shed.depth, shed.lane) == ("iris#r0", 4, 2)
        refused = outcomes[3]
        assert isinstance(refused, CapabilityError)
        assert (refused.backend, refused.capability) == (
            "memristor", "margin-probe")
        assert isinstance(outcomes[4], RemoteWorkerError)
        assert outcomes[4].exc_type == "KeyError"

    def test_one_row_error_raises_from_decode_result(self):
        body = encode_block("iris", block_columns(1), [],
                            [(0, 1, Overloaded("full", key="iris"))])
        with pytest.raises(Overloaded):
            decode_result(body)

    def test_ragged_columns_rejected(self):
        body = encode_block("iris", block_columns(3), block_segments(3))
        body["prediction"].pop()
        with pytest.raises(ProtocolError, match="length"):
            decode_block(body)

    @pytest.mark.parametrize("ranges", [
        [[0, 4]],  # past the last row
        [[0, 2], [1, 3]],  # overlapping
        [[1, 1]],  # empty
    ])
    def test_error_ranges_outside_the_rows_rejected(self, ranges):
        body = encode_block("iris", block_columns(3), [])
        error = encode_error(KeyError("gone"))
        body["errors"] = [[lo, hi, error] for lo, hi in ranges]
        with pytest.raises(ProtocolError, match="ranges"):
            decode_block(body)

    @pytest.mark.parametrize("segments, errors", [
        ([[2, 4, 4, 0.0], [0, 2, 4, 0.0]], []),  # unsorted
        ([[0, 3, 4, 0.0], [2, 4, 4, 0.0]], []),  # overlapping
        ([[0, 5, 5, 0.0]], []),  # past the last row
        ([[0, 0, 4, 0.0], [0, 4, 4, 0.0]], []),  # empty
        ([[0, 4, 4, 0.0]], [[3, 4]]),  # on an error range
        ([[0, 2, 4, 0.0]], [[3, 4]]),  # row 2 uncovered
        ([[0, 3, 4, 0.0]], []),  # the last row uncovered
        ([], []),  # no row covered
    ])
    def test_ranges_that_do_not_cover_the_rows_once_rejected(
            self, segments, errors):
        body = encode_block("iris", block_columns(4), [])
        error = encode_error(KeyError("gone"))
        body["segments"] = segments
        body["errors"] = [[lo, hi, error] for lo, hi in errors]
        with pytest.raises(ProtocolError):
            decode_block(body)

    def test_float_columns_are_packed_and_round_trip_bit_for_bit(self):
        """The float columns go out as base64 little-endian float64 (no
        decimal formatting, every bit back), and a segment's queue wait
        as a JSON number that decodes to the same bits."""
        n = 64
        rng = np.random.default_rng(5)
        columns = block_columns(n)
        columns["delay"] = rng.random(n) * 1e-9
        columns["energy_total"] = np.nextafter(rng.random(n), 1.0) * 1e-14
        columns["margin"] = np.where(
            np.arange(n) % 5 == 0, np.nan, rng.random(n)
        )
        waits = rng.exponential(1e-3, n)
        segments = [(i, i + 1, 1 + i % 7, float(waits[i])) for i in range(n)]
        body = encode_block("iris", columns, segments)
        for name in ("delay", "energy_total", "margin"):
            assert isinstance(body[name], str)
            raw = base64.b64decode(body[name])
            assert raw == np.asarray(columns[name], dtype="<f8").tobytes()
        outcomes = decode_block(roundtrip(make("result", result=body))["result"])
        for name in ("delay", "energy_total"):
            assert [getattr(o, name).hex() for o in outcomes] == [
                float(v).hex() for v in columns[name]
            ]
        assert [o.queue_wait_s.hex() for o in outcomes] == [
            float(w).hex() for w in waits
        ]
        assert [o.batch_size for o in outcomes] == [
            1 + i % 7 for i in range(n)
        ]
        assert [o.margin for o in outcomes] == [
            None if i % 5 == 0 else float(columns["margin"][i])
            for i in range(n)
        ]


class TestMessageConnection:
    def test_framed_messages_over_a_real_socket(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageConnection(left_sock)
        right = MessageConnection(right_sock)
        received = []

        def reader():
            while True:
                message = right.recv()
                if message is None:
                    return
                received.append(message)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        sent = [
            make("heartbeat", worker="w0", replicas=[{"index": i}])
            for i in range(20)
        ]
        for message in sent:
            left.send(message)
        left.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert received == sent
        right.close()

    def test_peer_dying_mid_frame_raises(self):
        left_sock, right_sock = socket.socketpair()
        frame = encode_frame(make("heartbeat", worker="w0", replicas=[]))
        left_sock.sendall(frame[:-1])
        left_sock.close()
        right = MessageConnection(right_sock)
        with pytest.raises(ProtocolError, match="truncated"):
            right.recv()
        right.close()
