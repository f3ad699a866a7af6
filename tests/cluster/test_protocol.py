"""Wire protocol: framing, payloads, handshakes, and exact roundtrips."""

import math
import socket

import pytest

from repro.cluster import protocol
from repro.errors import ClusterProtocolError, ReproError


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        sent = {"type": "hello", "version": 1, "nested": {"x": [1, 2.5]}}
        protocol.send_frame(a, sent)
        protocol.send_frame(a, protocol.bye_frame("done"))
        assert protocol.recv_frame(b) == sent
        assert protocol.recv_frame(b)["type"] == "bye"
        a.close()
        assert protocol.recv_frame(b) is None  # clean EOF
    finally:
        a.close()
        b.close()


def test_truncated_frame_raises():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack("!I", 100) + b'{"type"')
        a.close()
        with pytest.raises(ClusterProtocolError, match="mid-frame"):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_oversized_frame_announcement_rejected():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(ClusterProtocolError, match="max"):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_non_json_frame_rejected():
    a, b = socket.socketpair()
    try:
        import struct

        body = b"\xff\xfe not json"
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(ClusterProtocolError, match="undecodable"):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_payload_roundtrip_arbitrary_picklables():
    obj = {"fn": max, "items": [(1, 2), {"a": math.pi}], "inf": math.inf}
    assert protocol.decode_payload(protocol.encode_payload(obj)) == obj


def test_exception_roundtrip_preserves_type():
    doc = protocol.encode_exception(ReproError("boom"))
    exc = protocol.decode_exception(doc)
    assert isinstance(exc, ReproError)
    assert str(exc) == "boom"


def test_exception_roundtrip_degrades_to_runtime_error():
    exc = protocol.decode_exception(
        {"payload": None, "kind_name": "WeirdError", "message": "gone"}
    )
    assert isinstance(exc, RuntimeError)
    assert "WeirdError" in str(exc) and "gone" in str(exc)


def test_handshake_version_mismatch_rejected():
    frame = protocol.hello_frame()
    frame["version"] = protocol.PROTOCOL_VERSION + 1
    with pytest.raises(ClusterProtocolError, match="version mismatch"):
        protocol.check_handshake(frame, expect="hello")


def test_handshake_token_mismatch_rejected():
    frame = protocol.hello_frame(token="alpha")
    with pytest.raises(ClusterProtocolError, match="token"):
        protocol.check_handshake(frame, expect="hello", token="beta")
    # and matches pass
    protocol.check_handshake(
        protocol.hello_frame(token="beta"), expect="hello", token="beta"
    )


def test_handshake_wrong_type_and_eof_rejected():
    with pytest.raises(ClusterProtocolError, match="expected"):
        protocol.check_handshake(protocol.bye_frame(), expect="welcome")
    with pytest.raises(ClusterProtocolError, match="closed"):
        protocol.check_handshake(None, expect="welcome")


def test_parse_address():
    assert protocol.parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert protocol.parse_address(" host:0 ") == ("host", 0)
    for bad in ("hostonly", ":9000", "h:abc", "h:70000", "h:-1"):
        with pytest.raises(ClusterProtocolError):
            protocol.parse_address(bad)
