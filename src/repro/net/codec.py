"""Length-prefixed JSON wire framing.

Frames are ``4-byte big-endian length || body``; the body is one
envelope dict ``{"src": <node id>, "msg": <message wire dict>}`` as
compact UTF-8 JSON, which round-trips the message grammar losslessly:
payloads are ints, bools, strings, lists and IEEE-754 doubles
(positions), and ``json`` prints doubles shortest-round-trip.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

__all__ = ["FrameError", "MAX_FRAME", "decode_body", "encode", "read_frame"]

_LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024  # a directory of a million peers fits well under this


class FrameError(ValueError):
    """A frame violated the length-prefix contract."""


def encode(payload: dict[str, Any]) -> bytes:
    """One framed message: length prefix + encoded body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """Decode one frame body (the length prefix already stripped)."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise FrameError(f"frame body decoded to {type(payload).__name__}, expected dict")
    return payload


async def read_frame(reader: Any) -> dict[str, Any] | None:
    """Read one frame from an ``asyncio.StreamReader``; None on EOF."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise FrameError(f"incoming frame of {length} bytes exceeds MAX_FRAME")
    body = await reader.readexactly(length)
    return decode_body(body)
