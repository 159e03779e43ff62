"""Wire formats for XRD messages.

Every honest user's traffic must be indistinguishable from every other
honest user's, so all formats here are fixed-size for a given deployment:

* :class:`MessageBody` — the application payload plus a one-byte kind tag
  (data / offline notice), padded to the 256-byte payload size.
* :class:`MailboxMessage` — what ultimately lands in a mailbox:
  ``recipient public key || AEnc(s, ρ, body)`` (Algorithm 1 step 2b).
* :class:`ClientSubmission` — what a user sends to the first server of a
  chain in the AHS design: the shared outer Diffie-Hellman key ``X = g^x``,
  the outer ciphertext, and the NIZK that she knows ``x`` (§6.2).
* :class:`EncodedBatch` — the round's batch of ``(X_i^j, c_i^j)`` pairs
  that flows between servers inside a chain during mixing (§6.3), held in
  its wire encoding; :class:`BatchEntry` is the decoded view of one pair.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.constants import (
    AEAD_TAG_SIZE,
    GROUP_ELEMENT_SIZE,
    PAYLOAD_SIZE,
    SCALAR_SIZE,
    SENDER_FIELD_SIZE,
)
from repro.crypto.aead import adec, aenc
from repro.crypto.nizk import SchnorrProof
from repro.crypto.onion import pad_payload, unpad_payload
from repro.errors import CryptoError, DecodingError

__all__ = [
    "MessageBody",
    "MailboxMessage",
    "ClientSubmission",
    "BatchEntry",
    "EncodedBatch",
    "batch_digest",
    "mailbox_message_size",
]

#: Kind tag for an ordinary application payload.
KIND_DATA = 0
#: Kind tag for the "I have gone offline" notice carried by cover messages.
KIND_OFFLINE_NOTICE = 1
#: Kind tag for a loopback body (all-zero dummy content addressed to oneself).
KIND_LOOPBACK = 2


@dataclass(frozen=True, slots=True)
class MessageBody:
    """Application payload plus a kind tag, padded to the fixed payload size."""

    kind: int
    content: bytes

    def encode(self, size: int = PAYLOAD_SIZE) -> bytes:
        """Serialise and pad to ``size`` bytes."""
        if self.kind not in (KIND_DATA, KIND_OFFLINE_NOTICE, KIND_LOOPBACK):
            raise CryptoError(f"unknown message kind {self.kind}")
        return pad_payload(bytes([self.kind]) + self.content, size)

    @classmethod
    def decode(cls, data: bytes) -> "MessageBody":
        """Parse a padded body."""
        raw = unpad_payload(data)
        if not raw:
            raise DecodingError("message body missing kind byte")
        return cls(kind=raw[0], content=raw[1:])

    @classmethod
    def data(cls, content: bytes) -> "MessageBody":
        return cls(kind=KIND_DATA, content=content)

    @classmethod
    def offline_notice(cls) -> "MessageBody":
        return cls(kind=KIND_OFFLINE_NOTICE, content=b"")

    @classmethod
    def loopback(cls) -> "MessageBody":
        return cls(kind=KIND_LOOPBACK, content=b"")

    def is_offline_notice(self) -> bool:
        return self.kind == KIND_OFFLINE_NOTICE

    def is_loopback(self) -> bool:
        return self.kind == KIND_LOOPBACK


def mailbox_message_size(payload_size: int = PAYLOAD_SIZE) -> int:
    """Wire size of a :class:`MailboxMessage` for a given padded payload size."""
    return GROUP_ELEMENT_SIZE + payload_size + AEAD_TAG_SIZE


@dataclass(frozen=True, slots=True)
class MailboxMessage:
    """``(pk_u, AEnc(s, ρ, body))`` — the plaintext recovered by the last server."""

    recipient: bytes
    sealed_body: bytes

    @classmethod
    def seal(cls, recipient: bytes, symmetric_key: bytes, round_number: int, body: MessageBody,
             payload_size: int = PAYLOAD_SIZE) -> "MailboxMessage":
        """Encrypt ``body`` for ``recipient`` under ``symmetric_key``."""
        if len(recipient) != GROUP_ELEMENT_SIZE:
            raise CryptoError("recipient identifier must be an encoded public key")
        sealed = aenc(symmetric_key, round_number, body.encode(payload_size))
        return cls(recipient=recipient, sealed_body=sealed)

    def open(self, symmetric_key: bytes, round_number: int) -> Optional[MessageBody]:
        """Attempt to decrypt with ``symmetric_key``; return ``None`` on failure."""
        ok, plaintext = adec(symmetric_key, round_number, self.sealed_body)
        if not ok or plaintext is None:
            return None
        return MessageBody.decode(plaintext)

    def to_bytes(self) -> bytes:
        return self.recipient + self.sealed_body

    @classmethod
    def from_bytes(cls, data: bytes) -> "MailboxMessage":
        if len(data) < GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE:
            raise DecodingError("mailbox message too short")
        return cls(recipient=data[:GROUP_ELEMENT_SIZE], sealed_body=data[GROUP_ELEMENT_SIZE:])

    def __len__(self) -> int:
        return len(self.recipient) + len(self.sealed_body)


@dataclass(frozen=True, slots=True)
class ClientSubmission:
    """A user's per-chain submission in the AHS design (§6.2).

    The sender identity is carried in the clear — the first server of a chain
    necessarily knows who submitted what; XRD's privacy comes from the shuffle
    breaking the link between submissions and delivered mailbox messages.
    """

    chain_id: int
    sender: str
    dh_public: bytes
    ciphertext: bytes
    proof: SchnorrProof
    cover: bool = False

    def to_bytes(self) -> bytes:
        """Serialise to the fixed layout the entry server parses.

        ``chain id (4) || sender length (2) || sender padded to
        SENDER_FIELD_SIZE || X || proof commitment || proof response ||
        ciphertext``.  The sender field is padded so every submission of a
        deployment has the same wire size regardless of who sent it.
        """
        sender_bytes = self.sender.encode()
        if len(sender_bytes) > SENDER_FIELD_SIZE:
            raise CryptoError(f"sender name exceeds {SENDER_FIELD_SIZE} bytes")
        header = self.chain_id.to_bytes(4, "big") + len(sender_bytes).to_bytes(2, "big")
        sender_field = sender_bytes + b"\x00" * (SENDER_FIELD_SIZE - len(sender_bytes))
        proof_bytes = self.proof.commitment + self.proof.response.to_bytes(SCALAR_SIZE, "little")
        return header + sender_field + self.dh_public + proof_bytes + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes, element_size: int = GROUP_ELEMENT_SIZE) -> "ClientSubmission":
        """Parse the :meth:`to_bytes` layout (``element_size`` = encoded group element)."""
        fixed = 6 + SENDER_FIELD_SIZE + 2 * element_size + SCALAR_SIZE
        if len(data) < fixed:
            raise DecodingError("client submission too short")
        chain_id = int.from_bytes(data[:4], "big")
        sender_length = int.from_bytes(data[4:6], "big")
        if sender_length > SENDER_FIELD_SIZE:
            raise DecodingError("client submission sender length exceeds the field size")
        offset = 6
        try:
            sender = data[offset:offset + sender_length].decode()
        except UnicodeDecodeError as exc:
            raise DecodingError("client submission sender is not valid UTF-8") from exc
        offset += SENDER_FIELD_SIZE
        dh_public = data[offset:offset + element_size]
        offset += element_size
        commitment = data[offset:offset + element_size]
        offset += element_size
        response = int.from_bytes(data[offset:offset + SCALAR_SIZE], "little")
        offset += SCALAR_SIZE
        return cls(
            chain_id=chain_id,
            sender=sender,
            dh_public=dh_public,
            ciphertext=data[offset:],
            proof=SchnorrProof(commitment=commitment, response=response),
        )

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True, slots=True)
class BatchEntry:
    """One decoded ``(X_i^j, c_i^j)`` pair of a chain's round batch.

    Chains hold, forward and record batches as :class:`EncodedBatch`; this
    is the per-entry view indexing one yields (what the blame protocol and
    tests read), and what :meth:`EncodedBatch.from_entries` encodes.
    """

    dh_public: object
    ciphertext: bytes

    def to_bytes(self, group) -> bytes:
        """``X (element) || ciphertext length (4) || ciphertext``.

        The length prefix lets entries be concatenated into one batch blob
        (ciphertext size shrinks by one AEAD tag per hop, so it is only
        fixed *per position*, not globally).
        """
        return (
            group.encode(self.dh_public)
            + len(self.ciphertext).to_bytes(4, "big")
            + self.ciphertext
        )

    @classmethod
    def from_bytes(cls, group, data: bytes) -> "BatchEntry":
        """Parse one entry occupying the whole of ``data``."""
        header = group.element_size + 4
        if len(data) < header:
            raise DecodingError("batch entry too short")
        if len(data) != header + int.from_bytes(data[group.element_size:header], "big"):
            raise DecodingError("batch entry length does not match its prefix")
        return cls(
            dh_public=group.decode(data[:group.element_size]), ciphertext=data[header:]
        )


class EncodedBatch(Sequence):
    """A chain's round batch, held in its wire encoding.

    One contiguous blob of concatenated :meth:`BatchEntry.to_bytes` records
    plus an offset table — exactly the payload of a BATCH frame minus its
    count header.  This is the only shape a chain accepts, mixes, forwards,
    records or digests a batch in.  Entries decode *on demand* through
    :meth:`__getitem__`, so holding a 100k-entry round in history costs the
    blob (a few MB) instead of 100k decoded :class:`BatchEntry`/element
    objects.  The blame protocol's random access and the history replay
    both read through the same lazy window; mixing itself uses the bulk
    accessors (:meth:`element_bytes`, :meth:`ciphertext`,
    :meth:`decode_publics`) to avoid materialising entry objects at all.

    Instances are immutable: transforms produce a new batch
    (:meth:`select`) or build one from parts (:meth:`from_parts`).
    """

    __slots__ = ("_group", "_blob", "_offsets")

    def __init__(self, group, blob: bytes, offsets: "array") -> None:
        self._group = group
        self._blob = blob
        self._offsets = offsets

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_records(cls, group, records: List[bytes]) -> "EncodedBatch":
        offsets = array("Q", [0])
        total = 0
        for record in records:
            total += len(record)
            offsets.append(total)
        return cls(group, b"".join(records), offsets)

    @classmethod
    def from_entries(cls, group, entries: Iterable[BatchEntry]) -> "EncodedBatch":
        """Encode decoded entries (how tests and adversaries build a batch)."""
        return cls._from_records(group, [entry.to_bytes(group) for entry in entries])

    @classmethod
    def from_parts(cls, group, element_bytes: Sequence[bytes],
                   ciphertexts: Sequence[bytes]) -> "EncodedBatch":
        """Assemble from per-entry encoded elements and ciphertexts.

        This is the zero-decode intake: ``element_bytes[i]`` must already be
        a canonical group-element encoding (``encode(decode(d)) == d`` holds
        for every encoding the group accepts, so validated wire bytes pass
        through unchanged).
        """
        parts: List[bytes] = []
        offsets = array("Q", [0])
        total = 0
        for element, ciphertext in zip(element_bytes, ciphertexts):
            parts.append(element)
            parts.append(len(ciphertext).to_bytes(4, "big"))
            parts.append(ciphertext)
            total += len(element) + 4 + len(ciphertext)
            offsets.append(total)
        return cls(group, b"".join(parts), offsets)

    @classmethod
    def from_wire(cls, group, data: bytes) -> "EncodedBatch":
        """Parse a BATCH payload: ``count (4) || records``.

        The one place bytes from another node become a batch, so the whole
        structure is checked against the buffer first: the count must fit
        (``count`` minimum-size records inside the remaining bytes, so a
        forged count cannot size the offset table), every record's
        ``element || length (4) || ciphertext`` must end inside the buffer
        (a record cut short anywhere, its header included, ends beyond it),
        and nothing may trail the last one.  Elements are *not* decoded
        here — :meth:`decode_publics` does that once per hop and raises the
        same :class:`DecodingError` for one the group rejects.
        """
        if len(data) < 4:
            raise DecodingError("truncated batch header")
        count = int.from_bytes(data[:4], "big")
        header = group.element_size + 4
        if count * header > len(data) - 4:
            raise DecodingError("batch count exceeds the payload")
        offsets = array("Q", [0])
        end = 4
        for _ in range(count):
            end += header
            end += int.from_bytes(data[end - 4:end], "big")
            if len(data) < end:
                raise DecodingError("batch entry overruns the payload")
            offsets.append(end - 4)
        if end != len(data):
            raise DecodingError("trailing bytes after batch")
        return cls(group, data[4:], offsets)

    def to_wire(self) -> bytes:
        """The BATCH payload: the entry count, then the blob as it is."""
        return len(self).to_bytes(4, "big") + self._blob

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("batch entry index out of range")
        record = self._blob[self._offsets[index]:self._offsets[index + 1]]
        return BatchEntry.from_bytes(self._group, record)

    def __iter__(self) -> Iterator[BatchEntry]:
        for index in range(len(self)):
            yield self[index]

    # -- bulk accessors (no BatchEntry materialisation) ----------------------

    @property
    def blob(self) -> bytes:
        """The concatenated wire records (a BATCH payload minus its count)."""
        return self._blob

    def element_bytes(self, index: int) -> bytes:
        """Entry ``index``'s encoded DH element, without decoding it."""
        start = self._offsets[index]
        return self._blob[start:start + self._group.element_size]

    def ciphertext(self, index: int) -> bytes:
        start = self._offsets[index] + self._group.element_size + 4
        return self._blob[start:self._offsets[index + 1]]

    def ciphertexts(self) -> List[bytes]:
        return [self.ciphertext(index) for index in range(len(self))]

    def decode_publics(self) -> List[object]:
        """Decode every entry's DH element (transient: caller drops the list).

        One ``decode_batch`` for the whole batch; an element the group
        rejects raises the :class:`DecodingError` that ``decode`` gives it.
        """
        encodings = [self.element_bytes(index) for index in range(len(self))]
        points = self._group.decode_batch(encodings)
        for encoding, point in zip(encodings, points):
            if point is None:
                self._group.decode(encoding)  # raises the rejection's own error
                raise DecodingError("batch element rejected")
        return points

    def select(self, indices: Iterable[int]) -> "EncodedBatch":
        """A new batch holding the entries at ``indices``, in that order."""
        return self._from_records(
            self._group,
            [self._blob[self._offsets[index]:self._offsets[index + 1]] for index in indices],
        )


def batch_digest(batch: EncodedBatch) -> bytes:
    """Input-agreement digest: hash of the sorted entries (§6.3 preamble).

    All servers in a chain compare this digest before mixing starts so they
    agree on the round's input set.  Per entry the hashed material is
    ``encode(X) || ciphertext``.
    """
    hasher = hashlib.sha256()
    for material in sorted(
        batch.element_bytes(index) + batch.ciphertext(index) for index in range(len(batch))
    ):
        hasher.update(material)
    return hasher.digest()


def split_into_payload_chunks(data: bytes, payload_size: int = PAYLOAD_SIZE) -> List[bytes]:
    """Split an oversized application message into padded-size chunks.

    The paper requires users to break large messages into multiple fixed-size
    pieces (§4); this helper performs that split (the chunk payload budget is
    the padded size minus the 2-byte length prefix and 1-byte kind tag).
    """
    budget = payload_size - 3
    if budget <= 0:
        raise CryptoError("payload size too small to carry any data")
    if not data:
        return [b""]
    return [data[offset:offset + budget] for offset in range(0, len(data), budget)]
