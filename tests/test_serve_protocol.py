"""Wire-protocol unit tests: framing, limits, and response shapes.

Everything here runs against in-memory socket pairs — no processes, no
ports, tier-1 fast.
"""

import socket
import struct

import pytest

from repro.serve.protocol import (
    HEADER,
    MAX_FRAME,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_response,
    ok_response,
    recv_frame,
    send_frame,
)


def sock_pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = sock_pair()
        try:
            send_frame(a, {"op": "ping", "id": 7})
            assert recv_frame(b) == {"op": "ping", "id": 7}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_sequence(self):
        a, b = sock_pair()
        try:
            for i in range(5):
                send_frame(a, {"n": i})
            assert [recv_frame(b)["n"] for _ in range(5)] == list(range(5))
        finally:
            a.close()
            b.close()

    def test_unicode_payload(self):
        a, b = sock_pair()
        try:
            send_frame(a, {"xml": "<r>détour — ünïcode</r>"})
            assert recv_frame(b)["xml"] == "<r>détour — ünïcode</r>"
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = sock_pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = sock_pair()
        try:
            frame = encode_frame({"op": "ping"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_header_rejected(self):
        a, b = sock_pair()
        try:
            a.sendall(HEADER.pack(MAX_FRAME + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME + 16)})

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"not json at all {")

    def test_deeply_nested_payload_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[" * 100000 + b"]" * 100000)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4


class TestResponseShapes:
    def test_ok_response_echoes_id(self):
        response = ok_response({"op": "ping", "id": "abc"}, pong=True)
        assert response == {"ok": True, "id": "abc", "pong": True}

    def test_ok_response_without_id(self):
        assert ok_response({"op": "ping"}) == {"ok": True}

    def test_error_response_shape(self):
        response = error_response(
            {"op": "query", "id": 3}, "bad_request", "no xpath"
        )
        assert response["ok"] is False
        assert response["id"] == 3
        assert response["error"]["type"] == "bad_request"
        assert response["error"]["message"] == "no xpath"

    def test_error_response_extra_fields(self):
        response = error_response(
            {}, "shard_unavailable", "down", shard=2
        )
        assert response["error"]["shard"] == 2
