"""Wire protocol v2: the binary data plane and the JSON control plane's framing.

A lookup crosses the wire one way: as a fixed-width binary classify-batch
frame that ``np.frombuffer`` maps straight into the columnar block the
serving engines (and the shard-worker rings) consume.  The *control plane*
(``hello``/``insert``/``remove``/``stats``) is length-prefixed JSON; both
frame kinds are valid on a connection at any time.  docs/PROTOCOL.md is the
normative spec.

Negotiation
-----------

A client sends the JSON request ``{"op": "hello", "protocols": ["v2"]}``
after connecting.  The server answers ``{"ok": true, "protocols": [...]}``
with the intersection of what was offered and what it speaks (``["v2"]``
today); a client whose offer shares nothing with the server gets an empty
grant and must give up — there is no JSON classify to fall back to, and a
JSON ``classify`` request is answered ``bad-request``.  A pre-v2 server
rejects ``hello`` itself as an unknown op.

Frame layout
------------

Both frame kinds share a 4-byte prefix.  JSON payloads are capped at 4 MiB,
so the first prefix byte of a JSON frame is always ``0x00``; a binary frame
marks itself with the magic first byte ``0xB2``:

===========  ==============================================================
byte 0       ``0x00`` → JSON: bytes 0–3 are a big-endian uint32 length
``0xB2``     → binary: bytes 1–3 are a big-endian uint24 payload length
===========  ==============================================================

Binary payloads are little-endian (the columnar blocks are memory images,
and every deployment target is little-endian; the prefix is big-endian,
as the JSON framing always was).  Classify-batch request (op ``0x01``)::

    u8 op | 3 reserved | u64 request_id | u32 count | u32 fields
    count × fields × u64 packet block (C order)

Classify-batch response (op ``0x81``)::

    u8 op | u8 status | 2 reserved | u64 request_id | u32 count
    count × (i64 rule_id, i64 priority)

``status`` is 0 (ok), 1 (overloaded), 2 (bad-request) or 3 (error); error
responses carry ``count == 0``.  A miss encodes as ``rule_id == -1`` with
``priority == 0``.  Binary responses carry no action strings — the data
plane's contract is ``(matched, rule_id, priority)``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "WIRE_V2",
    "FRAME_MAGIC",
    "MAX_JSON_FRAME",
    "MAX_BINARY_FRAME",
    "OP_CLASSIFY_BATCH",
    "OP_CLASSIFY_BATCH_RESPONSE",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_BAD_REQUEST",
    "STATUS_ERROR",
    "STATUS_CODES",
    "WireError",
    "max_block_rows",
    "packet_block",
    "encode_classify_request",
    "decode_classify_request",
    "encode_classify_response",
    "encode_error_response",
    "decode_classify_response",
    "read_any_frame",
    "write_binary_frame",
    "write_json_frame",
]

#: Protocol token exchanged in ``hello`` negotiation.
WIRE_V2 = "v2"

#: First byte of a binary frame (the JSON cap keeps a JSON frame's at 0x00).
FRAME_MAGIC = 0xB2

#: JSON payload cap (a malformed length prefix must not make a peer
#: allocate gigabytes).
MAX_JSON_FRAME = 1 << 22

#: v2 binary payload cap (24-bit length field).
MAX_BINARY_FRAME = (1 << 24) - 1

OP_CLASSIFY_BATCH = 0x01
OP_CLASSIFY_BATCH_RESPONSE = 0x81

STATUS_OK = 0
STATUS_OVERLOADED = 1
STATUS_BAD_REQUEST = 2
STATUS_ERROR = 3

#: Binary status → error-code string (the ``code`` a JSON error carries).
STATUS_CODES = {
    STATUS_OVERLOADED: "overloaded",
    STATUS_BAD_REQUEST: "bad-request",
    STATUS_ERROR: "error",
}

_JSON_LENGTH = struct.Struct(">I")
_REQ_HEADER = struct.Struct("<B3xQII")
_RES_HEADER = struct.Struct("<BB2xQI")

_PACKET_DTYPE = np.dtype("<u8")
_RESULT_DTYPE = np.dtype("<i8")


class WireError(ValueError):
    """A malformed v2 binary payload."""


# ---------------------------------------------------------------------------
# Payload codecs


def packet_block(packets: Sequence) -> np.ndarray:
    """Normalize packets (tuples / Packet / 2-d array) to a uint64 block."""
    if isinstance(packets, np.ndarray) and packets.ndim == 2:
        return np.ascontiguousarray(packets, dtype=_PACKET_DTYPE)
    rows = [
        packet.values if hasattr(packet, "values") else tuple(packet)
        for packet in packets
    ]
    if not rows:
        raise ValueError("classify batch must contain at least one packet")
    width = len(rows[0])
    if width == 0 or any(len(row) != width for row in rows):
        raise ValueError("all packets in a batch must have the same width")
    if any(value < 0 for row in rows for value in row):
        raise ValueError("packet field values must be non-negative")
    return np.array(rows, dtype=_PACKET_DTYPE)


def max_block_rows(fields: int) -> int:
    """Largest packet-block row count one v2 classify frame can carry.

    The 24-bit frame length bounds ``header + count * fields * 8``; clients
    chunk larger batches into several frames (response records are 16 bytes
    per row ≤ the request's ``fields * 8`` only when ``fields >= 2``, but the
    response header is smaller, so the request side is the binding cap for
    every schema with at least two fields — single-field schemas are bounded
    by the response and handled conservatively here).
    """
    if fields < 1:
        raise ValueError("packet block must have at least one field")
    request_rows = (MAX_BINARY_FRAME - _REQ_HEADER.size) // (
        fields * _PACKET_DTYPE.itemsize
    )
    response_rows = (MAX_BINARY_FRAME - _RES_HEADER.size) // (
        2 * _RESULT_DTYPE.itemsize
    )
    return min(request_rows, response_rows)


def encode_classify_request(request_id: int, block: np.ndarray) -> bytes:
    """Frame payload for a classify-batch request over ``block``."""
    block = np.ascontiguousarray(block, dtype=_PACKET_DTYPE)
    if block.ndim != 2:
        raise ValueError("packet block must be 2-dimensional")
    count, fields = block.shape
    header = _REQ_HEADER.pack(OP_CLASSIFY_BATCH, request_id, count, fields)
    return header + block.tobytes()


def decode_classify_request(payload: bytes) -> tuple[int, np.ndarray]:
    """Parse a classify-batch request payload → ``(request_id, block)``.

    The returned block is a zero-copy ``frombuffer`` view over the payload.
    """
    if len(payload) < _REQ_HEADER.size:
        raise WireError("binary request shorter than its header")
    op, request_id, count, fields = _REQ_HEADER.unpack_from(payload)
    if op != OP_CLASSIFY_BATCH:
        raise WireError(f"unknown binary request op 0x{op:02x}")
    if fields < 1:
        raise WireError("packet block must have at least one field")
    expected = _REQ_HEADER.size + count * fields * _PACKET_DTYPE.itemsize
    if len(payload) != expected:
        raise WireError(
            f"binary request length {len(payload)} != expected {expected} "
            f"for {count}x{fields} block"
        )
    block = np.frombuffer(
        payload, dtype=_PACKET_DTYPE, count=count * fields, offset=_REQ_HEADER.size
    ).reshape(count, fields)
    return request_id, block


def encode_classify_response(
    request_id: int, rule_ids: np.ndarray, priorities: np.ndarray
) -> bytes:
    """Frame payload for a successful classify-batch response."""
    if len(rule_ids) != len(priorities):
        raise ValueError("rule_ids and priorities must have equal length")
    records = np.empty((len(rule_ids), 2), dtype=_RESULT_DTYPE)
    records[:, 0] = rule_ids
    records[:, 1] = priorities
    header = _RES_HEADER.pack(
        OP_CLASSIFY_BATCH_RESPONSE, STATUS_OK, request_id, len(rule_ids)
    )
    return header + records.tobytes()


def encode_error_response(request_id: int, status: int) -> bytes:
    """Frame payload for a failed classify-batch response (no records)."""
    if status == STATUS_OK:
        raise ValueError("error responses need a non-OK status")
    return _RES_HEADER.pack(OP_CLASSIFY_BATCH_RESPONSE, status, request_id, 0)


def decode_classify_response(
    payload: bytes,
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Parse a response payload → ``(request_id, status, rule_ids, priorities)``."""
    if len(payload) < _RES_HEADER.size:
        raise WireError("binary response shorter than its header")
    op, status, request_id, count = _RES_HEADER.unpack_from(payload)
    if op != OP_CLASSIFY_BATCH_RESPONSE:
        raise WireError(f"unknown binary response op 0x{op:02x}")
    expected = _RES_HEADER.size + count * 2 * _RESULT_DTYPE.itemsize
    if len(payload) != expected:
        raise WireError(
            f"binary response length {len(payload)} != expected {expected}"
        )
    records = np.frombuffer(
        payload, dtype=_RESULT_DTYPE, count=count * 2, offset=_RES_HEADER.size
    ).reshape(count, 2)
    return request_id, status, records[:, 0], records[:, 1]


# ---------------------------------------------------------------------------
# Framing


async def read_any_frame(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, object]]:
    """Read one frame of either kind.

    Returns ``("json", dict)`` for a JSON frame, ``("binary", bytes)`` for a
    binary frame, or ``None`` on a clean EOF.  Raises :class:`ValueError`
    (or ``json.JSONDecodeError``) on oversized or malformed JSON frames.
    """
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    if header[0] == FRAME_MAGIC:
        length = int.from_bytes(header[1:], "big")
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        return ("binary", payload)
    (length,) = _JSON_LENGTH.unpack(header)
    if length > MAX_JSON_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_JSON_FRAME}")
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return ("json", json.loads(payload.decode("utf-8")))


def write_binary_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one v2 binary frame (caller drains)."""
    if len(payload) > MAX_BINARY_FRAME:
        raise ValueError(
            f"binary payload of {len(payload)} bytes exceeds {MAX_BINARY_FRAME}"
        )
    writer.write(bytes([FRAME_MAGIC]) + len(payload).to_bytes(3, "big") + payload)


def write_json_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one length-prefixed JSON frame (caller drains)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    writer.write(_JSON_LENGTH.pack(len(payload)) + payload)
