"""Length-prefixed JSON framing: 4-byte big-endian length, then UTF-8 JSON.

Every framed object is a dict with a mandatory "type" field. The decoder
reassembles messages from arbitrary byte chunkings.
"""
from __future__ import annotations

import json
import struct

MAX_FRAME = 1 << 16  # a session's largest frame body is about 330 bytes

# json.dumps builds a new encoder on every call that passes separators.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class FramingError(ValueError):
    pass


def encode_body(obj: dict) -> bytes:
    """The compact UTF-8 JSON body of one frame."""
    if "type" not in obj:
        raise FramingError("message lacks a 'type' field")
    raw = _ENCODER.encode(obj).encode("utf-8")
    if len(raw) > MAX_FRAME:
        raise FramingError(f"frame of {len(raw)} bytes exceeds limit")
    return raw


def decode_body(body: bytes) -> dict:
    """Parse one frame body; the inverse of `encode_body`."""
    msg = json.loads(body.decode("utf-8"))
    if not isinstance(msg, dict) or "type" not in msg:
        raise FramingError("frame payload is not a typed object")
    return msg


def encode_frame(obj: dict) -> bytes:
    raw = encode_body(obj)
    return struct.pack(">I", len(raw)) + raw


def send_msg(sock, obj: dict) -> bytes:
    """Send one framed message; returns its encoded body."""
    frame = encode_frame(obj)
    sock.sendall(frame)
    return frame[4:]


def _recv_exact(sock, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def recv_body(sock) -> bytes | None:
    """Read one frame's body, undecoded; None on orderly EOF at a frame
    boundary."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise FramingError(f"declared frame length {length} exceeds limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise FramingError("connection closed mid-frame")
    return body


def recv_msg(sock) -> dict | None:
    """Read one framed message; None on orderly EOF at a frame boundary."""
    body = recv_body(sock)
    return None if body is None else decode_body(body)


class FrameDecoder:
    """Incremental decoder for testing reassembly across chunk boundaries."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buf.extend(data)
        out = []
        while True:
            if len(self._buf) < 4:
                return out
            (length,) = struct.unpack(">I", bytes(self._buf[:4]))
            if length > MAX_FRAME:
                raise FramingError(f"declared frame length {length} exceeds limit")
            if len(self._buf) < 4 + length:
                return out
            body = bytes(self._buf[4 : 4 + length])
            del self._buf[: 4 + length]
            out.append(decode_body(body))
