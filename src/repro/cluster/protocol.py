"""Wire protocol of the cluster fabric: length-prefixed JSON frames.

Every message on a coordinator↔worker connection is one **frame**: a
4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON. JSON keeps the control plane debuggable (``tcpdump`` shows readable
envelopes) while the data plane — shard functions, items, results,
exceptions — rides inside frames as base64-encoded pickle, because shards
carry arbitrary picklable model objects (workflows, platforms, NumPy
``SeedSequence``); the PR 5 ShardPlan contract already requires
picklability, so the network boundary adds no new constraint.

Frame types
-----------

==========  =======================================================
``hello``    coordinator → worker: protocol version + optional token
``welcome``  worker → coordinator: version, pid, slots, host
``shard``    coordinator → worker: one unit of work (``task_id``,
             pickled ``(fn, item)`` payload, optional trace context)
``result``   worker → coordinator: pickled return value + elapsed
             seconds + optional tracer export payload
``error``    worker → coordinator: ``kind="task"`` (the function
             raised — pickled exception, never retried) or
             ``kind="protocol"`` (handshake/frame violation)
``heartbeat``  worker → coordinator: liveness + cumulative load
``bye``      either side: orderly goodbye before close
==========  =======================================================

Trust model: pickle over a socket means **run workers only on hosts and
networks you trust** — the optional shared ``token`` in the handshake
rejects accidental cross-talk, it is not an authentication scheme. See
``docs/CLUSTER.md``.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ..errors import ClusterProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "encode_payload",
    "decode_payload",
    "encode_exception",
    "decode_exception",
    "hello_frame",
    "welcome_frame",
    "shard_frame",
    "result_frame",
    "error_frame",
    "heartbeat_frame",
    "bye_frame",
    "check_handshake",
    "parse_address",
]

#: Bumped on any incompatible change; both ends refuse mismatches in the
#: handshake rather than mis-parsing frames mid-sweep.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's body. A shard of a paper-scale sweep is a
#: few hundred KiB of pickled workflow; 256 MiB is head-room, not a
#: target — anything larger is a protocol violation, not a big shard.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct("!I")


# ----------------------------------------------------------------------
# framing


def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Serialise ``frame`` as JSON and write it length-prefixed."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ClusterProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` when the peer closed the connection.

    Raises :class:`~repro.errors.ClusterProtocolError` on a truncated,
    oversized, or non-JSON frame.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ClusterProtocolError("connection closed before frame body")
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ClusterProtocolError(f"frame without a type: {frame!r}")
    return frame


# ----------------------------------------------------------------------
# payload encoding (data plane)


def encode_payload(obj: Any) -> str:
    """Pickle ``obj`` and wrap it base64 for the JSON envelope."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(data: str) -> Any:
    """Inverse of :func:`encode_payload`."""
    try:
        return pickle.loads(base64.b64decode(data.encode("ascii")))
    except Exception as exc:  # noqa: BLE001 - any unpickle failure
        raise ClusterProtocolError(f"undecodable payload: {exc}") from exc


def encode_exception(exc: BaseException) -> Dict[str, Any]:
    """Ship an exception: pickled when possible, always with metadata."""
    try:
        payload: Optional[str] = encode_payload(exc)
    except Exception:  # noqa: BLE001 - unpicklable exception state
        payload = None
    return {
        "payload": payload,
        "kind_name": type(exc).__name__,
        "message": str(exc),
    }


def decode_exception(doc: Dict[str, Any]) -> BaseException:
    """Rebuild a shipped exception, degrading to ``RuntimeError``."""
    payload = doc.get("payload")
    if payload:
        try:
            exc = decode_payload(payload)
            if isinstance(exc, BaseException):
                return exc
        except ClusterProtocolError:
            pass
    return RuntimeError(
        f"{doc.get('kind_name', 'Exception')}: {doc.get('message', '')}"
    )


# ----------------------------------------------------------------------
# frame constructors


def hello_frame(*, token: Optional[str] = None) -> Dict[str, Any]:
    """Coordinator's opening frame."""
    frame: Dict[str, Any] = {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "role": "coordinator",
    }
    if token is not None:
        frame["token"] = token
    return frame


def welcome_frame(*, pid: int, slots: int, host: str) -> Dict[str, Any]:
    """Worker's handshake reply."""
    return {
        "type": "welcome",
        "version": PROTOCOL_VERSION,
        "pid": pid,
        "slots": slots,
        "host": host,
    }


def shard_frame(
    task_id: int,
    payload: str,
    *,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One unit of work: ``payload`` is ``encode_payload((fn, item))``."""
    frame: Dict[str, Any] = {
        "type": "shard",
        "task_id": task_id,
        "payload": payload,
    }
    if trace is not None:
        frame["trace"] = trace
    return frame


def result_frame(
    task_id: int,
    payload: str,
    *,
    elapsed_s: float,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A completed shard: ``payload`` is ``encode_payload(result)``."""
    frame: Dict[str, Any] = {
        "type": "result",
        "task_id": task_id,
        "payload": payload,
        "elapsed_s": elapsed_s,
    }
    if trace is not None:
        frame["trace"] = trace
    return frame


def error_frame(
    task_id: Optional[int],
    exc: BaseException,
    *,
    kind: str = "task",
) -> Dict[str, Any]:
    """A failed shard (``kind="task"``) or protocol fault."""
    return {
        "type": "error",
        "task_id": task_id,
        "kind": kind,
        "exception": encode_exception(exc),
    }


def heartbeat_frame(
    *, pid: int, tasks: int, busy_s: float, inflight: int
) -> Dict[str, Any]:
    """Periodic liveness + cumulative-load report."""
    return {
        "type": "heartbeat",
        "pid": pid,
        "tasks": tasks,
        "busy_s": busy_s,
        "inflight": inflight,
    }


def bye_frame(reason: str = "") -> Dict[str, Any]:
    """Orderly goodbye."""
    return {"type": "bye", "reason": reason}


def check_handshake(
    frame: Optional[Dict[str, Any]],
    *,
    expect: str,
    token: Optional[str] = None,
) -> Dict[str, Any]:
    """Validate the peer's handshake frame (type, version, token)."""
    if frame is None:
        raise ClusterProtocolError("peer closed during handshake")
    if frame.get("type") != expect:
        raise ClusterProtocolError(
            f"expected {expect!r} during handshake, got {frame.get('type')!r}"
        )
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if expect == "hello" and token is not None:
        if frame.get("token") != token:
            raise ClusterProtocolError("handshake token mismatch")
    return frame


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` into a connectable pair.

    Raises :class:`~repro.errors.ClusterProtocolError` on a malformed
    spec — the caller (``parse_workers``) wraps this into its own typed
    configuration error with the full node list for context.
    """
    host, sep, port_text = spec.strip().rpartition(":")
    if not sep or not host:
        raise ClusterProtocolError(
            f"node spec {spec!r} is not host:port"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ClusterProtocolError(
            f"node spec {spec!r} has a non-numeric port"
        ) from exc
    # Port 0 is legal on the bind side ("pick a free port"); a
    # coordinator pointed at :0 fails at connect with a clear error.
    if not 0 <= port < 65536:
        raise ClusterProtocolError(
            f"node spec {spec!r} has an out-of-range port"
        )
    return host, port
