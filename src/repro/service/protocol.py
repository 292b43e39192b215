"""Framed wire protocol for the monitoring gateway.

The container ships no third-party HTTP stack, so the gateway speaks a
deliberately small framed protocol over plain TCP (stdlib asyncio
streams):

* one frame = a single JSON header line (UTF-8, ``\\n``-terminated)
  optionally followed by ``header["length"]`` bytes of binary payload;
* the header carries ``op`` plus op-specific fields; replies carry
  ``ok`` and either result fields or ``error``;
* a reply field that can outgrow the header limit (a settled session's
  report) travels as a JSON payload instead: the header names it in
  ``payload_field`` and :func:`attach_payload_field` puts it back, so the
  caller sees the same reply dict either way.

Chunk frames are *fire and forget* -- the client pipelines them without
waiting for acks.  Flow control is the transport itself: when a
session's bounded ingest queue fills, the gateway stops reading that
connection, the kernel's TCP window closes, and only that producer
stalls.  This is the paper's bounded-buffer producer/consumer coupling
applied per tenant.
"""

from __future__ import annotations

import asyncio
import json
import zlib
from typing import Optional, Tuple

#: Upper bound on a JSON header line -- anything larger is an attack or a bug.
MAX_HEADER_BYTES = 64 * 1024
#: Upper bound on a single binary payload (one upload chunk).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Raised when a peer violates the framing rules."""


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[dict, bytes]]:
    """Read one frame; returns ``None`` on clean EOF before a header."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(line)} bytes)")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    length = header.get("length", 0)
    if not isinstance(length, int) or length < 0 or length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"invalid payload length {length!r}")
    payload = b""
    if length:
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise ProtocolError("connection closed mid-payload") from exc
    return header, payload


def write_message(
    writer: asyncio.StreamWriter, header: dict, payload: bytes = b""
) -> None:
    """Queue one frame on the writer (caller drains)."""
    header = dict(header)
    if payload:
        header["length"] = len(payload)
    writer.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    if payload:
        writer.write(payload)


#: Header field naming the reply field carried as the frame's JSON payload.
PAYLOAD_FIELD = "payload_field"


def detach_payload_field(header: dict, field: str) -> Tuple[dict, bytes]:
    """Move ``header[field]`` into a JSON payload (``b""`` when absent or None)."""
    if header.get(field) is None:
        return header, b""
    header = dict(header)
    payload = json.dumps(header.pop(field), sort_keys=True).encode()
    header[PAYLOAD_FIELD] = field
    return header, payload


def attach_payload_field(header: dict, payload: bytes) -> dict:
    """Inverse of :func:`detach_payload_field`: restore the payload's field."""
    field = header.pop(PAYLOAD_FIELD, None)
    if field is None:
        return header
    try:
        header[field] = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed {field} payload: {exc}") from exc
    return header


def chunk_crc(payload: bytes) -> int:
    """CRC32 a chunk payload; clients stamp it, the gateway audits it."""
    return zlib.crc32(payload) & 0xFFFFFFFF
