"""The serve wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry an ``op``
(``ping`` / ``query`` / ``query_all`` / ``update`` / ``update_batch`` /
``load`` / ``state`` / ``check`` / ``stats`` / ``docs`` / ``trace`` /
``shutdown``) plus op-specific fields and an optional client-chosen
``id`` echoed back verbatim.  Responses carry ``ok`` — ``true`` with
result fields, or ``false`` with ``error: {type, message}``.

The same framing runs on both hops (client → front door over TCP,
front door → shard worker over a unix socket), so every peer shares
these helpers; async variants serve the front door's stream API.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.errors import ReproError

#: Frame header: payload byte length, 4 bytes big-endian.
HEADER = struct.Struct(">I")

#: Ceiling on one frame's payload — far above any sane request, low
#: enough that a corrupt or hostile header cannot balloon memory.
MAX_FRAME = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """Malformed or oversized frame."""


def encode_frame(obj: dict) -> bytes:
    """Serialize *obj* into one length-prefixed frame."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload back into its object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is not an object: {type(obj).__name__}")
    return obj


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly *n* bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(obj))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Receive one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed after frame header")
    return decode_payload(payload)


async def read_frame_async(reader) -> Optional[dict]:
    """Receive one frame from an :mod:`asyncio` stream; None on EOF."""
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)


async def write_frame_async(writer, obj: dict) -> None:
    """Send one frame over an :mod:`asyncio` stream writer."""
    writer.write(encode_frame(obj))
    await writer.drain()


# -- response shapes ----------------------------------------------------------


def ok_response(request: dict, **fields: object) -> dict:
    """A success response echoing the request ``id`` (if any)."""
    response: dict = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    return response


def error_response(
    request: dict, error_type: str, message: str, **fields: object
) -> dict:
    """A typed failure response echoing the request ``id`` (if any)."""
    response: dict = {
        "ok": False,
        "error": {"type": error_type, "message": message, **fields},
    }
    if "id" in request:
        response["id"] = request["id"]
    return response
