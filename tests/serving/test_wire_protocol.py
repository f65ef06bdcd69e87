"""Wire protocol: framing, round-trips, typed errors, malformed input."""

import json
import math
import socket
import struct
import threading

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
                "levels": [[3, 0, 1], [2, 2, 0]], "priority": 1},
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
        # Version 2 changed the request and result bodies to blocks, and
        # version 3 addresses replicas by placement id; a v1 peer must
        # fail loudly on its first frame, never misparse.
        assert WIRE_VERSION == 4
        body = json.dumps({"kind": "request", "id": "r1", "model": "iris",
                           "replica_index": 0, "levels": [3, 0, 1],
                           "priority": 0}).encode()
        frame = HEADER.pack(MAGIC, 1, len(body)) + body
        with pytest.raises(ProtocolError, match="unsupported wire version 1"):
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
        assert payload["margin"] == [None]
        # The full frame must be strict JSON (allow_nan=False holds).
        frame = encode_frame(make("result", id="r1", result=payload))
        json.loads(frame[HEADER.size:])


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


def block_columns(n, margins=None):
    """Columns of an ``n``-row block with awkward float values."""
    return {
        "prediction": [i % 3 for i in range(n)],
        "delay": [3.7e-10 + i * 1.1e-13 for i in range(n)],
        "energy_total": [1.7142e-14 / (i + 3) for i in range(n)],
        "queue_wait_s": [0.1 + 1e-7 * i for i in range(n)],
        "batch_size": [n] * n,
        "margin": list(margins) if margins is not None
        else [0.2 / (i + 1) for i in range(n)],
    }


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
        expected = {name: list(values) for name, values in columns.items()}
        message = make("result", id="r7", worker="w1", result=encode_block(
            "iris@v1#r0", columns, replica="iris@v1/r0[fefet]", worker="w1",
        ))
        outcomes = decode_block(roundtrip(message)["result"])
        assert len(outcomes) == n
        for i, outcome in enumerate(outcomes):
            assert outcome == RemoteServedResult(
                "iris@v1#r0", *(expected[name][i] for name in RESULT_COLUMNS),
                "iris@v1/r0[fefet]", "w1",
            )
            # Bit for bit, not approximately.
            assert outcome.delay.hex() == expected["delay"][i].hex()
            assert (outcome.energy_total.hex()
                    == expected["energy_total"][i].hex())

    def test_nan_margins_go_to_null_and_back(self):
        margins = [0.5, float("nan"), None, 0.25]
        body = encode_block("iris", block_columns(4, margins))
        assert body["margin"] == [0.5, None, None, 0.25]
        frame = encode_frame(make("result", id="r1", result=body))
        json.loads(frame[HEADER.size:])  # strict JSON: no NaN token
        outcomes = decode_block(roundtrip(make("result", result=body))["result"])
        assert [o.margin for o in outcomes] == [0.5, None, None, 0.25]

    def test_error_rows_decode_to_typed_exceptions(self):
        errors = [
            (1, Overloaded("queue full", key="iris#r0", depth=4, lane=2)),
            (3, CapabilityError("memristor", "margin-probe")),
            (4, KeyError("gone")),
        ]
        body = encode_block("iris", block_columns(5), errors)
        assert [row for row, _ in body["errors"]] == [1, 3, 4]
        # Failed rows carry no column values.
        assert body["prediction"][1] is None and body["delay"][3] is None
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
        body = encode_block("iris", block_columns(1),
                            [(0, Overloaded("full", key="iris"))])
        with pytest.raises(Overloaded):
            decode_result(body)

    def test_ragged_columns_rejected(self):
        body = encode_block("iris", block_columns(3))
        body["delay"].pop()
        with pytest.raises(ProtocolError, match="length"):
            decode_block(body)


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
