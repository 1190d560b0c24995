"""Length-prefixed JSON frames over a stream socket.

The service tier speaks the simplest protocol that is robust against
partial reads: each message is an 8-byte big-endian length followed by
that many bytes of UTF-8 JSON.  Requests are
``{"op": <name>, ...params}``; responses are either
``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"type": <exc class>, "message": <str>}}``.

Both send and receive return the number of bytes moved so callers can
feed the measured ``data_transfer`` telemetry counter without guessing.

The codec is :mod:`repro.json_codec` under the module name ``json``:
the calls below have the stdlib's shape and bytes, and encoding reuses
one prebuilt C encoder instead of building one per frame.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Tuple

from repro import json_codec as json
from repro.service.errors import ShardProtocolError

__all__ = ["send_message", "recv_message", "MAX_FRAME_BYTES"]

_HEADER = struct.Struct(">Q")

# A WAL summary for a very large population is the biggest frame we
# expect; 256 MiB is far above it and still catches corrupt headers.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def send_message(sock: socket.socket, payload: Any) -> int:
    """Encode ``payload`` as one frame; returns bytes written."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    frame = _HEADER.pack(len(body)) + body
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Tuple[Any, int]:
    """Read one frame; returns ``(payload, bytes_read)``.

    Raises ``ConnectionError`` on a clean close before the header and
    :class:`ShardProtocolError` on a malformed frame.
    """
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ShardProtocolError(f"frame of {length} bytes exceeds protocol limit")
    body = _recv_exact(sock, length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardProtocolError(f"undecodable frame: {exc}") from exc
    return payload, _HEADER.size + length
