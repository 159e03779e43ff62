"""Wire codecs for envelope payloads and per-chain round results.

Every encoding here is the *real* byte format of
:mod:`repro.mixnet.messages` — the TCP transport carries and measures
these bytes, over loopback or between the distributed runtime's role
processes (:mod:`repro.runner`).  Every envelope kind is a batch and
travels as a wire-batch type (:class:`~repro.mixnet.messages.SubmissionBatch`,
:class:`~repro.mixnet.messages.EncodedBatch`, :class:`~repro.mixnet.
messages.MailboxBatch`, :class:`~repro.mixnet.messages.FetchBatch`):
encoding is its count and blob, decoding one structural check of the
buffer that yields the same type, and no record is decoded into an object
here.  ``tests/wire_reference.py`` keeps the per-object codecs the views
are held to.

A :class:`~repro.mixnet.blame.BlameVerdict` *is* a wire format
(:func:`encode_blame_verdict`): it is the coordinator-facing outcome of the
blame protocol — the convicted users and servers plus counters — which
crosses the mix role's TCP reply in the distributed runtime and would be
broadcast between servers in a networked deployment.  The reveals and NIZKs
the protocol *consumed* to reach the verdict stay local to the chain that
ran it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Type, TypeVar

from repro.errors import DecodingError
from repro.mixnet.messages import (
    EncodedBatch,
    FetchBatch,
    MailboxBatch,
    SubmissionBatch,
)
from repro.transport import envelope as ev
from repro.transport.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mixnet.ahs import ChainRoundResult
    from repro.mixnet.blame import BlameVerdict

__all__ = [
    "encode_payload",
    "decode_payload",
    "encode_blame_verdict",
    "decode_blame_verdict",
    "encode_chain_outcome",
    "decode_chain_outcome",
    "UnsupportedPayload",
]


class UnsupportedPayload(ValueError):
    """The envelope kind has no wire encoding."""


# -- primitive framing -------------------------------------------------------

def _pack_bytes(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _read_bytes(data: bytes, offset: int) -> tuple:
    if len(data) < offset + 4:
        raise DecodingError("truncated length prefix")
    length = int.from_bytes(data[offset:offset + 4], "big")
    offset += 4
    if len(data) < offset + length:
        raise DecodingError("truncated field")
    return data[offset:offset + length], offset + length


def _pack_str(text: Optional[str]) -> bytes:
    # A leading presence byte distinguishes None from the empty string.
    if text is None:
        return b"\x00"
    return b"\x01" + _pack_bytes(text.encode())


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise DecodingError("string field is not valid UTF-8") from exc


def _read_str(data: bytes, offset: int) -> tuple:
    if len(data) < offset + 1:
        raise DecodingError("truncated string field")
    present, offset = data[offset], offset + 1
    if present == 0:
        return None, offset
    raw, offset = _read_bytes(data, offset)
    return _decode_text(raw), offset


def _pack_str_list(items: Sequence[str]) -> bytes:
    parts = [len(items).to_bytes(4, "big")]
    parts.extend(_pack_bytes(item.encode()) for item in items)
    return b"".join(parts)


def _read_int(data: bytes, offset: int, width: int) -> tuple:
    if len(data) < offset + width:
        raise DecodingError("truncated integer field")
    return int.from_bytes(data[offset:offset + width], "big"), offset + width


def _read_str_list(data: bytes, offset: int) -> tuple:
    count, offset = _read_int(data, offset, 4)
    if count * 4 > len(data) - offset:  # every item carries a 4-byte length prefix
        raise DecodingError("string list count exceeds the payload")
    items: List[str] = []
    for _ in range(count):
        raw, offset = _read_bytes(data, offset)
        items.append(_decode_text(raw))
    return items, offset


# -- envelope payloads --------------------------------------------------------

_P = TypeVar("_P")


def _expect(payload: object, wire_type: Type[_P], kind: str) -> _P:
    if not isinstance(payload, wire_type):
        raise UnsupportedPayload(
            f"a {kind!r} payload must be a {wire_type.__name__}, not {type(payload).__name__}"
        )
    return payload


def encode_payload(group: Any, envelope: Envelope) -> bytes:
    """Serialise an envelope's payload to its real wire encoding: its
    batch's count and blob."""
    kind = envelope.kind
    payload = envelope.payload
    if kind in (ev.SUBMISSION_BATCH, ev.COVER_SUBMISSION_BATCH):
        return _expect(payload, SubmissionBatch, kind).to_wire()
    if kind == ev.BATCH:
        return _expect(payload, EncodedBatch, kind).to_wire()
    if kind == ev.MAILBOX_DELIVERY:
        return _expect(payload, MailboxBatch, kind).to_wire()
    if kind == ev.MAILBOX_FETCH_BATCH:
        return _expect(payload, FetchBatch, kind).to_wire()
    raise UnsupportedPayload(f"no wire encoding for envelope kind {kind!r}")


def decode_payload(group: Any, kind: str, data: bytes) -> object:
    """Parse wire bytes into the payload the destination consumes.

    A batch decodes to a view over ``data`` whose whole structure has been
    checked against the buffer; its records decode when a consumer reads
    them.
    """
    if kind in (ev.SUBMISSION_BATCH, ev.COVER_SUBMISSION_BATCH):
        return SubmissionBatch.from_wire(group, data)
    if kind == ev.BATCH:
        return EncodedBatch.from_wire(group, data)
    if kind == ev.MAILBOX_DELIVERY:
        return MailboxBatch.from_wire(data)
    if kind == ev.MAILBOX_FETCH_BATCH:
        return FetchBatch.from_wire(data)
    raise UnsupportedPayload(f"no wire decoding for envelope kind {kind!r}")


# -- blame verdicts (broadcast between servers) --------------------------------

def encode_blame_verdict(verdict: "BlameVerdict") -> bytes:
    """Serialise a blame verdict: convicted parties plus protocol counters."""
    return b"".join(
        (
            verdict.chain_id.to_bytes(4, "big"),
            verdict.round_number.to_bytes(8, "big"),
            _pack_str_list(verdict.malicious_users),
            _pack_str_list(verdict.malicious_servers),
            verdict.false_accusations.to_bytes(4, "big"),
            verdict.examined_ciphertexts.to_bytes(4, "big"),
        )
    )


def decode_blame_verdict(data: bytes, offset: int = 0) -> tuple:
    """Inverse of :func:`encode_blame_verdict`; returns ``(verdict, offset)``."""
    from repro.mixnet.blame import BlameVerdict  # local import to avoid a cycle

    chain_id, offset = _read_int(data, offset, 4)
    round_number, offset = _read_int(data, offset, 8)
    malicious_users, offset = _read_str_list(data, offset)
    malicious_servers, offset = _read_str_list(data, offset)
    false_accusations, offset = _read_int(data, offset, 4)
    examined, offset = _read_int(data, offset, 4)
    verdict = BlameVerdict(
        chain_id=chain_id,
        round_number=round_number,
        malicious_users=malicious_users,
        malicious_servers=malicious_servers,
        false_accusations=false_accusations,
        examined_ciphertexts=examined,
    )
    return verdict, offset


# -- per-chain round results (the mix role's reply in repro.runner) ------------

def encode_chain_outcome(chain_id: int, accept_rejected: Sequence[str],
                         result: "ChainRoundResult") -> bytes:
    """Serialise one chain's round outcome for the trip back to the coordinator."""
    if result.blame_verdict is None:
        verdict_bytes = b"\x00"
    else:
        verdict_bytes = b"\x01" + encode_blame_verdict(result.blame_verdict)
    return b"".join(
        (
            chain_id.to_bytes(4, "big"),
            _pack_str_list(list(accept_rejected)),
            result.chain_id.to_bytes(4, "big"),
            result.round_number.to_bytes(8, "big"),
            _pack_str(result.status),
            result.mailbox_messages.to_wire(),
            _pack_str(result.misbehaving_server),
            _pack_str_list(result.rejected_senders),
            result.invalid_inner_count.to_bytes(4, "big"),
            _pack_bytes(result.input_digest),
            verdict_bytes,
        )
    )


def decode_chain_outcome(data: bytes) -> tuple:
    """Inverse of :func:`encode_chain_outcome`.

    Returns ``(chain_id, accept_rejected, result)``.
    """
    from repro.mixnet.ahs import ChainRoundResult  # local import to avoid a cycle

    chain_id, offset = _read_int(data, 0, 4)
    accept_rejected, offset = _read_str_list(data, offset)
    result_chain_id, offset = _read_int(data, offset, 4)
    round_number, offset = _read_int(data, offset, 8)
    status, offset = _read_str(data, offset)
    mailbox_batch, offset = MailboxBatch.read(data, offset)
    misbehaving_server, offset = _read_str(data, offset)
    rejected_senders, offset = _read_str_list(data, offset)
    invalid_inner_count, offset = _read_int(data, offset, 4)
    input_digest, offset = _read_bytes(data, offset)
    verdict_present, offset = _read_int(data, offset, 1)
    blame_verdict = None
    if verdict_present:
        blame_verdict, offset = decode_blame_verdict(data, offset)
    if offset != len(data):
        raise DecodingError("trailing bytes after chain outcome")
    result = ChainRoundResult(
        chain_id=result_chain_id,
        round_number=round_number,
        status=status,
        mailbox_messages=mailbox_batch,
        blame_verdict=blame_verdict,
        misbehaving_server=misbehaving_server,
        rejected_senders=rejected_senders,
        invalid_inner_count=invalid_inner_count,
        input_digest=input_digest,
    )
    return chain_id, accept_rejected, result
