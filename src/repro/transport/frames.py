"""Length-prefixed framing and the connection handshake (DESIGN.md §10.2).

The TCP transport and the process-per-role runner speak one stream format:

``4-byte big-endian frame length || frame``, where ``frame`` is::

    frame type (1 byte) || request id (8 bytes) || body

Every frame is either a request (``HELLO``, ``ENVELOPE``, ``CONTROL``) or a
response (``HELLO_ACK``, ``REPLY``, ``ERROR``) correlated to its request by
the 8-byte request id, so several requests may be in flight on one
connection and responses may arrive out of order.

Bodies reuse the byte-format primitives of :mod:`repro.transport.codec` —
the same length-prefix/presence-byte vocabulary the payload codecs use, so
the whole wire surface is fuzzable with one grammar:

* ``HELLO`` — magic, protocol version, the sender's node name, its group
  kind, and a digest of its :class:`~repro.coordinator.network.
  DeploymentConfig`.  A listener rejects (``ERROR`` + close) any peer whose
  magic, version, group kind, or config digest does not match its own —
  catching a mis-launched role before it can desynchronise a round.
* ``ENVELOPE`` — a full :class:`~repro.transport.envelope.Envelope`: the
  routing header here, the payload in the wire encodings of
  :mod:`repro.transport.codec`.  The ``REPLY`` body is the payload bytes as
  the destination observed them.
* ``CONTROL`` — an opaque runner control message
  (:mod:`repro.runner.protocol`); the transport carries it without looking
  inside.

Every decoder raises :class:`~repro.errors.DecodingError` on truncation,
trailing bytes, or field corruption — the hypothesis fuzz suite in
``tests/test_tcp_transport.py`` holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.errors import DecodingError
from repro.transport.codec import (
    _pack_bytes,
    _pack_str,
    _read_bytes,
    _read_int,
    _read_str,
    decode_payload,
    encode_payload,
)
from repro.transport.envelope import ENVELOPE_KINDS, Envelope

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "FRAME_HELLO",
    "FRAME_HELLO_ACK",
    "FRAME_ENVELOPE",
    "FRAME_REPLY",
    "FRAME_CONTROL",
    "FRAME_ERROR",
    "FRAME_TYPES",
    "Hello",
    "encode_frame",
    "decode_frame",
    "decode_frame_payload",
    "encode_hello",
    "decode_hello",
    "encode_envelope_frame",
    "frame_envelope",
    "decode_envelope_frame",
    "encode_error",
    "decode_error",
]

#: Protocol identifier, first bytes of every HELLO.
MAGIC = b"XRD1"
#: Bumped on any incompatible change to the frame or handshake format.
PROTOCOL_VERSION = 1

FRAME_HELLO = 1
FRAME_HELLO_ACK = 2
FRAME_ENVELOPE = 3
FRAME_REPLY = 4
FRAME_CONTROL = 5
FRAME_ERROR = 6

FRAME_TYPES = (
    FRAME_HELLO,
    FRAME_HELLO_ACK,
    FRAME_ENVELOPE,
    FRAME_REPLY,
    FRAME_CONTROL,
    FRAME_ERROR,
)

_HEADER_SIZE = 1 + 8  # frame type + request id


# -- frames -------------------------------------------------------------------

def encode_frame(frame_type: int, request_id: int, body: bytes) -> bytes:
    """One complete on-wire frame, including the 4-byte length prefix."""
    if frame_type not in FRAME_TYPES:
        raise DecodingError(f"unknown frame type {frame_type}")
    frame = frame_type.to_bytes(1, "big") + request_id.to_bytes(8, "big") + body
    return len(frame).to_bytes(4, "big") + frame


def decode_frame_payload(data: bytes) -> Tuple[int, int, bytes]:
    """Parse a frame whose length prefix the stream layer already consumed."""
    if len(data) < _HEADER_SIZE:
        raise DecodingError("truncated frame header")
    frame_type, offset = _read_int(data, 0, 1)
    if frame_type not in FRAME_TYPES:
        raise DecodingError(f"unknown frame type {frame_type}")
    request_id, offset = _read_int(data, offset, 8)
    return frame_type, request_id, data[offset:]


def decode_frame(data: bytes) -> Tuple[int, int, bytes]:
    """Inverse of :func:`encode_frame`; returns ``(type, request_id, body)``."""
    if len(data) < 4:
        raise DecodingError("truncated frame length prefix")
    length = int.from_bytes(data[:4], "big")
    if len(data) - 4 < length:
        raise DecodingError("truncated frame")
    if len(data) - 4 > length:
        raise DecodingError("trailing bytes after frame")
    return decode_frame_payload(data[4:])


# -- handshake ----------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    """What each end of a connection asserts about itself before any traffic."""

    node: str
    group_kind: str
    config_digest: bytes


def encode_hello(hello: Hello) -> bytes:
    return b"".join(
        (
            MAGIC,
            PROTOCOL_VERSION.to_bytes(2, "big"),
            _pack_str(hello.node),
            _pack_str(hello.group_kind),
            _pack_bytes(hello.config_digest),
        )
    )


def decode_hello(data: bytes) -> Hello:
    if len(data) < len(MAGIC):
        raise DecodingError("truncated hello magic")
    if data[: len(MAGIC)] != MAGIC:
        raise DecodingError("bad hello magic (not an XRD runner peer?)")
    version, offset = _read_int(data, len(MAGIC), 2)
    if version != PROTOCOL_VERSION:
        raise DecodingError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    node, offset = _read_str(data, offset)
    group_kind, offset = _read_str(data, offset)
    config_digest, offset = _read_bytes(data, offset)
    if offset != len(data):
        raise DecodingError("trailing bytes after hello")
    if node is None or group_kind is None:
        raise DecodingError("hello is missing the node name or group kind")
    return Hello(node=node, group_kind=group_kind, config_digest=config_digest)


# -- envelope frames ----------------------------------------------------------

def _pack_optional_int(value: Optional[int], width: int) -> bytes:
    if value is None:
        return b"\x00"
    return b"\x01" + int(value).to_bytes(width, "big")


def _read_optional_int(data: bytes, offset: int, width: int) -> tuple:
    present, offset = _read_int(data, offset, 1)
    if present == 0:
        return None, offset
    return _read_int(data, offset, width)


def encode_envelope_frame(group: Any, envelope: Envelope) -> bytes:
    """Serialise a whole envelope: routing header + wire-encoded payload."""
    return frame_envelope(envelope, encode_payload(group, envelope))


def frame_envelope(envelope: Envelope, payload_wire: bytes) -> bytes:
    """:func:`encode_envelope_frame` around an already wire-encoded payload."""
    return b"".join(
        (
            _pack_str(envelope.kind),
            _pack_str(envelope.source),
            _pack_str(envelope.destination),
            envelope.round_number.to_bytes(8, "big"),
            _pack_optional_int(envelope.chain_id, 4),
            _pack_optional_int(envelope.part, 4),
            _pack_bytes(payload_wire),
        )
    )


def decode_envelope_frame(group: Any, data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope_frame` (payload fully decoded)."""
    kind, offset = _read_str(data, 0)
    if kind not in ENVELOPE_KINDS:
        raise DecodingError(f"unknown envelope kind {kind!r}")
    source, offset = _read_str(data, offset)
    destination, offset = _read_str(data, offset)
    if source is None or destination is None:
        raise DecodingError("envelope frame is missing source or destination")
    round_number, offset = _read_int(data, offset, 8)
    chain_id, offset = _read_optional_int(data, offset, 4)
    part, offset = _read_optional_int(data, offset, 4)
    payload_wire, offset = _read_bytes(data, offset)
    if offset != len(data):
        raise DecodingError("trailing bytes after envelope frame")
    return Envelope(
        kind=kind,
        source=source,
        destination=destination,
        round_number=round_number,
        payload=decode_payload(group, kind, payload_wire),
        chain_id=chain_id,
        part=part,
    )


# -- error responses ----------------------------------------------------------

def encode_error(message: str) -> bytes:
    return _pack_str(message)


def decode_error(data: bytes) -> str:
    message, offset = _read_str(data, 0)
    if offset != len(data):
        raise DecodingError("trailing bytes after error message")
    return message if message is not None else "unknown peer error"
