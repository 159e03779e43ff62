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
* :class:`SubmissionBatch` — a batch of submissions held in its wire
  encoding, from the population's build (or an injected batch) to a
  chain's intake; :class:`MailboxBatch` (a chain's output, on its way to
  the hub) and :class:`FetchBatch` (a shard's downloads) are the downlink's.
  Each batch is one blob of records plus offsets; indexing one builds the
  per-item object, which no round does.
* :class:`EncodedBatch` — the round's batch of ``(X_i^j, c_i^j)`` pairs
  that flows between servers inside a chain during mixing (§6.3), held in
  its wire encoding; :class:`BatchEntry` is the decoded view of one pair.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constants import (
    AEAD_TAG_SIZE,
    GROUP_ELEMENT_SIZE,
    PAYLOAD_SIZE,
    SCALAR_SIZE,
    SENDER_FIELD_SIZE,
)
from repro.crypto.aead import OpenedSpans, adec, aenc
from repro.crypto.nizk import SchnorrProof
from repro.crypto.onion import pad_payload, unpad_payload
from repro.errors import CryptoError, DecodingError

__all__ = [
    "MessageBody",
    "MailboxMessage",
    "ClientSubmission",
    "BatchEntry",
    "EncodedBatch",
    "SubmissionBatch",
    "MailboxBatch",
    "FetchBatch",
    "batch_digest",
    "decode_elements",
    "submission_record",
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


#: Where a submission record's sender field starts: chain id (4) and sender
#: length (2) come first.
_SENDER_START = 6
#: Chain id, sender length and the padded sender field.
_SUBMISSION_HEADER = _SENDER_START + SENDER_FIELD_SIZE
_ZERO_SENDER = bytes(SENDER_FIELD_SIZE)


def submission_record(chain_id: int, sender: str, dh_public: bytes, commitment: bytes,
                      response: int, ciphertext: bytes) -> bytes:
    """One submission's wire record (the layout :class:`ClientSubmission` documents)."""
    sender_bytes = sender.encode()
    if len(sender_bytes) > SENDER_FIELD_SIZE:
        raise CryptoError(f"sender name exceeds {SENDER_FIELD_SIZE} bytes")
    return b"".join((
        chain_id.to_bytes(4, "big"),
        len(sender_bytes).to_bytes(2, "big"),
        sender_bytes,
        _ZERO_SENDER[len(sender_bytes):],
        dh_public,
        commitment,
        response.to_bytes(SCALAR_SIZE, "little"),
        ciphertext,
    ))


def _record_sender(data: bytes, start: int) -> str:
    """The sender of the submission record at ``data[start:]``.

    The caller has checked that the record holds the whole fixed part.  The
    field must be canonical — a length within it, UTF-8, zero padding — so a
    record the decoders accept re-encodes to exactly its own bytes.
    """
    length = int.from_bytes(data[start + 4:start + _SENDER_START], "big")
    if length > SENDER_FIELD_SIZE:
        raise DecodingError("client submission sender length exceeds the field size")
    field_start = start + _SENDER_START
    padding = data[field_start + length:field_start + SENDER_FIELD_SIZE]
    if padding != _ZERO_SENDER[length:]:
        raise DecodingError("client submission sender padding is not zero")
    try:
        return data[field_start:field_start + length].decode()
    except UnicodeDecodeError as exc:
        raise DecodingError("client submission sender is not valid UTF-8") from exc


def _submission_fixed_size(element_size: int) -> int:
    """The smallest submission record: everything but the ciphertext."""
    return _SUBMISSION_HEADER + 2 * element_size + SCALAR_SIZE


@dataclass(frozen=True, slots=True)
class ClientSubmission:
    """A user's per-chain submission in the AHS design (§6.2).

    The sender identity is carried in the clear — the first server of a chain
    necessarily knows who submitted what; XRD's privacy comes from the shuffle
    breaking the link between submissions and delivered mailbox messages.

    Every round carries submissions as :class:`SubmissionBatch` records
    from build to intake; this object is the per-item form — what the
    adversary's forges build and what indexing a batch yields.
    """

    chain_id: int
    sender: str
    dh_public: bytes
    ciphertext: bytes
    proof: SchnorrProof

    def to_bytes(self) -> bytes:
        """Serialise to the fixed layout the entry server parses.

        ``chain id (4) || sender length (2) || sender padded with zeros to
        SENDER_FIELD_SIZE || X || proof commitment || proof response ||
        ciphertext``.  The sender field is padded so every submission of a
        deployment has the same wire size regardless of who sent it.
        """
        return submission_record(
            self.chain_id, self.sender, self.dh_public, self.proof.commitment,
            self.proof.response, self.ciphertext,
        )

    @classmethod
    def from_bytes(cls, data: bytes, element_size: int = GROUP_ELEMENT_SIZE) -> "ClientSubmission":
        """Parse the :meth:`to_bytes` layout (``element_size`` = encoded group element).

        Only canonical records parse — the sender padding must be zero — so
        ``to_bytes`` gives back exactly ``data``.
        """
        if len(data) < _submission_fixed_size(element_size):
            raise DecodingError("client submission too short")
        sender = _record_sender(data, 0)
        offset = _SUBMISSION_HEADER
        dh_public = data[offset:offset + element_size]
        offset += element_size
        commitment = data[offset:offset + element_size]
        offset += element_size
        response = int.from_bytes(data[offset:offset + SCALAR_SIZE], "little")
        offset += SCALAR_SIZE
        return cls(
            chain_id=int.from_bytes(data[:4], "big"),
            sender=sender,
            dh_public=dh_public,
            ciphertext=data[offset:],
            proof=SchnorrProof(commitment=commitment, response=response),
        )

    def wire_size(self) -> int:
        return len(self.to_bytes())


def _walk_records(data: bytes, start: int, minimum: int, what: str,
                  check: Optional[Callable[[bytes, int], object]] = None,
                  offsets: Optional[array] = None) -> int:
    """Check ``count (4) || count × (length (4) || record)`` at ``data[start:]``.

    The count must fit first — ``count`` minimum-size records inside the
    remaining bytes — so a forged count cannot size the offset table or the
    walk.  Every record must hold at least ``minimum`` bytes, end inside
    ``data``, and pass ``check(data, record_start)``.  Appends each entry's
    end (relative to the first entry) to ``offsets`` when given; returns
    where the last one ends, and the caller decides whether anything may
    follow.
    """
    size = len(data)
    if size < start + 4:
        raise DecodingError(f"truncated {what} header")
    count = int.from_bytes(data[start:start + 4], "big")
    base = start + 4
    if count * (4 + minimum) > size - base:
        raise DecodingError(f"{what} count exceeds the payload")
    end = base
    for _ in range(count):
        record = end + 4
        end = record + int.from_bytes(data[end:record], "big")
        if end > size:
            raise DecodingError(f"{what} record overruns the payload")
        if end - record < minimum:
            raise DecodingError(f"{what} record too short")
        if check is not None:
            check(data, record)
        if offsets is not None:
            offsets.append(end - base)
    return end


#: A big-endian length field read in place: ``_read_u32(data, offset)[0]``.
_read_u32 = struct.Struct(">I").unpack_from


def _join_records(records: Iterable[bytes]) -> Tuple[bytes, array]:
    """Length-prefix and concatenate ``records``; the blob and its offsets."""
    records = list(records)
    sizes = [len(record) for record in records]
    prefixes = {size: size.to_bytes(4, "big") for size in dict.fromkeys(sizes)}
    parts: List[bytes] = [b""] * (2 * len(records))
    parts[0::2] = [prefixes[size] for size in sizes]
    parts[1::2] = records
    return b"".join(parts), array("Q", accumulate((size + 4 for size in sizes), initial=0))


class _RecordBatch(Sequence):
    """Shared body of the wire-resident batches: uplink, chain and mailbox.

    On the wire a batch is ``count (4) || entries``; ``blob`` is the
    entries and ``offsets[i]`` is where entry ``i`` starts in it (the last
    offset is where the blob ends).  Two batches of one kind are equal when
    their blobs are, and a batch equals the list of the items it yields.
    Subclasses say how an entry decodes.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, blob: bytes, offsets: array) -> None:
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("batch record index out of range")
        return self._materialise(index)

    def __iter__(self):
        return map(self._materialise, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            return list(self) == other
        if not isinstance(other, _RecordBatch):
            return NotImplemented
        return type(self) is type(other) and self._blob == other._blob

    def _materialise(self, index: int):
        raise NotImplementedError

    @property
    def blob(self) -> bytes:
        return self._blob

    def to_wire(self) -> bytes:
        """The wire payload: the entry count, then the blob as it is."""
        return len(self).to_bytes(4, "big") + self._blob

    def select(self, indices: Iterable[int]):
        """A new batch holding the entries at ``indices``, in that order.

        The entries move as bytes, undecoded: all a link can do to them.
        """
        view, offsets = memoryview(self._blob), self._offsets
        parts = [view[offsets[index]:offsets[index + 1]] for index in indices]
        return self._with_wire(b"".join(parts), array("Q", accumulate(map(len, parts), initial=0)))

    def _with_wire(self, blob: bytes, offsets: array):
        return type(self)(blob, offsets)


class _PrefixedBatch(_RecordBatch):
    """A batch whose entries are ``length (4) || record``."""

    __slots__ = ()

    def record(self, index: int) -> bytes:
        """Record ``index``'s bytes, without its length prefix."""
        return self._blob[self._offsets[index] + 4:self._offsets[index + 1]]

    def records(self) -> List[memoryview]:
        """Every record, as a view into the blob (no copy; the views keep
        the blob alive)."""
        offsets, view = self._offsets, memoryview(self._blob)
        return [view[offsets[index] + 4:offsets[index + 1]] for index in range(len(self))]


class SubmissionBatch(_PrefixedBatch):
    """A batch of client submissions, held in its wire encoding.

    One blob of length-prefixed :meth:`ClientSubmission.to_bytes` records
    plus an offset table — exactly a ``SUBMISSION_BATCH`` payload minus its
    count — the uplink's counterpart of :class:`EncodedBatch`.  The
    population builds it from columns, the transport carries it as it is,
    the engine scatters and folds its records, and a chain's intake reads
    its :meth:`columns` and slices its :class:`EncodedBatch` out of them.
    Indexing decodes one :class:`ClientSubmission` on demand; the honest
    path never does.
    """

    __slots__ = ("_element_size",)

    def __init__(self, element_size: int, blob: bytes, offsets: array) -> None:
        super().__init__(blob, offsets)
        self._element_size = element_size

    def _with_wire(self, blob: bytes, offsets: array) -> "SubmissionBatch":
        return SubmissionBatch(self._element_size, blob, offsets)

    @classmethod
    def from_records(cls, group, records: Iterable[bytes]) -> "SubmissionBatch":
        """Join records already in the :meth:`ClientSubmission.to_bytes`
        layout (built, or taken out of another batch)."""
        blob, offsets = _join_records(records)
        return cls(group.element_size, blob, offsets)

    @classmethod
    def from_submissions(cls, group, submissions: Iterable[ClientSubmission]) -> "SubmissionBatch":
        return cls.from_records(group, [submission.to_bytes() for submission in submissions])

    @classmethod
    def of(cls, group, submissions) -> "SubmissionBatch":
        """``submissions`` as a batch: itself if it is one, else encoded."""
        if isinstance(submissions, cls):
            return submissions
        return cls.from_submissions(group, submissions)

    @classmethod
    def from_wire(cls, group, data: bytes) -> "SubmissionBatch":
        """Parse a ``SUBMISSION_BATCH`` payload: ``count (4) || entries``.

        The structure is checked once, against the buffer: the count must
        fit, every record must hold the fixed part and end inside the
        buffer, its sender field must be canonical (length within the field,
        UTF-8, zero padding), and nothing may trail.  Every record the view
        then yields parses with :meth:`ClientSubmission.from_bytes`.
        """
        element_size = group.element_size
        offsets = array("Q", [0])
        end = _walk_records(
            data, 0, _submission_fixed_size(element_size), "submission batch", _record_sender,
            offsets,
        )
        if end != len(data):
            raise DecodingError("trailing bytes after submission batch")
        return cls(element_size, data[4:], offsets)

    def _materialise(self, index: int) -> ClientSubmission:
        return ClientSubmission.from_bytes(self.record(index), self._element_size)

    # -- columns (no ClientSubmission materialisation) -------------------------
    # Every record was checked where it entered the batch: built, taken out
    # of a checked batch, or parsed by from_wire.

    @staticmethod
    def record_chain_id(record: bytes) -> int:
        """The chain id of one :meth:`record`."""
        return int.from_bytes(record[:4], "big")

    def senders(self) -> List[str]:
        blob = self._blob
        senders = []
        for start in self._offsets[:-1]:
            start += 4 + _SENDER_START
            senders.append(blob[start:start + int.from_bytes(blob[start - 2:start], "big")].decode())
        return senders

    def columns(self) -> Tuple[List[int], List[str], List[bytes], List[bytes], List[int]]:
        """Every record's chain id, sender, encoded ``X``, proof commitment
        and proof response, in one pass."""
        blob, size = self._blob, self._element_size
        x_at = 4 + _SUBMISSION_HEADER
        commitment_at = x_at + size
        response_at = commitment_at + size
        response_end = response_at + SCALAR_SIZE
        from_bytes = int.from_bytes
        chain_ids: List[int] = []
        senders: List[str] = []
        publics: List[bytes] = []
        commitments: List[bytes] = []
        responses: List[int] = []
        for start in self._offsets[:-1]:
            chain_ids.append(from_bytes(blob[start + 4:start + 8], "big"))
            name = start + 4 + _SENDER_START
            senders.append(blob[name:name + from_bytes(blob[name - 2:name], "big")].decode())
            publics.append(blob[start + x_at:start + commitment_at])
            commitments.append(blob[start + commitment_at:start + response_at])
            responses.append(from_bytes(blob[start + response_at:start + response_end], "little"))
        return chain_ids, senders, publics, commitments, responses

    def ciphertext(self, index: int) -> bytes:
        start = self._offsets[index] + 4 + _submission_fixed_size(self._element_size)
        return self._blob[start:self._offsets[index + 1]]


def _mailbox_message(record: bytes) -> MailboxMessage:
    """The per-item form of one mailbox record (checked where it entered)."""
    return MailboxMessage(
        recipient=bytes(record[:GROUP_ELEMENT_SIZE]), sealed_body=bytes(record[GROUP_ELEMENT_SIZE:])
    )


class MailboxBatch(_PrefixedBatch):
    """Mailbox records in transit (``MAILBOX_DELIVERY``): a chain's output.

    Length-prefixed ``recipient || sealed body`` records, the
    :meth:`MailboxMessage.to_bytes` layout.  The last server joins the
    plaintexts it opens into one, the transport carries it as it is, and
    the hub stores its records.  Indexing builds one :class:`MailboxMessage`
    on demand; the round never does.
    """

    __slots__ = ()

    #: The smallest record :meth:`MailboxMessage.from_bytes` accepts.
    MINIMUM = GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE

    @classmethod
    def from_records(cls, records: Iterable[bytes]) -> "MailboxBatch":
        """Join records of at least :attr:`MINIMUM` bytes."""
        return cls(*_join_records(records))

    @classmethod
    def read(cls, data: bytes, offset: int = 0) -> Tuple["MailboxBatch", int]:
        """Parse one embedded batch at ``offset``; ``(batch, next offset)``."""
        offsets = array("Q", [0])
        end = _walk_records(data, offset, cls.MINIMUM, "mailbox batch", offsets=offsets)
        return cls(data[offset + 4:end], offsets), end

    @classmethod
    def from_wire(cls, data: bytes) -> "MailboxBatch":
        batch, end = cls.read(data)
        if end != len(data):
            raise DecodingError("trailing bytes after mailbox batch")
        return batch

    @classmethod
    def from_opened(cls, opened: OpenedSpans) -> "MailboxBatch":
        """The records a head-less :func:`~repro.crypto.aead.open_spans` call
        opened, as they lie in its output: a slot that did not open is empty."""
        return cls(opened.plain, array("Q", dict.fromkeys(opened.offsets)))

    def _materialise(self, index: int) -> MailboxMessage:
        return _mailbox_message(self.record(index))


class FetchBatch(_RecordBatch):
    """One shard's round downloads in transit (``MAILBOX_FETCH_BATCH``).

    Per user: ``owner length (4) || owner key || mailbox batch`` (the
    :meth:`MailboxBatch.to_wire` layout); ``offsets[i]`` is where user
    ``i``'s entry starts.  The hub frames it from its stored records, the
    transport carries it as it is, and the fetch opens every record where
    it lies (:meth:`sealed_spans`).  Indexing yields ``(owner, messages)``,
    the user's :class:`MailboxMessage` list; :meth:`owners` reads the keys
    alone.
    """

    __slots__ = ()

    @classmethod
    def from_inboxes(cls, inboxes: Iterable[Tuple[bytes, Sequence[bytes]]]) -> "FetchBatch":
        """Frame ``(owner, records)`` pairs, each record in the
        :meth:`MailboxMessage.to_bytes` layout.

        Every record is joined in one pass; an entry is its owner header
        and a view of its records' span of that blob.
        """
        heads, stops, flat = [], [], []
        for owner, records in inboxes:
            heads.append(len(owner).to_bytes(4, "big") + owner + len(records).to_bytes(4, "big"))
            flat.extend(records)
            stops.append(len(flat))
        blob, offsets = _join_records(flat)
        view, parts, sizes, start = memoryview(blob), [], [], 0
        for head, stop in zip(heads, stops):
            parts += (head, view[offsets[start]:offsets[stop]])
            sizes.append(len(head) + offsets[stop] - offsets[start])
            start = stop
        return cls(b"".join(parts), array("Q", accumulate(sizes, initial=0)))

    @classmethod
    def from_wire(cls, data: bytes) -> "FetchBatch":
        """Parse a ``MAILBOX_FETCH_BATCH`` payload, every nested batch included.

        The pair count must fit (an owner prefix and a mailbox count per
        pair), each owner and mailbox batch must end inside the buffer, and
        nothing may trail.
        """
        size = len(data)
        if size < 4:
            raise DecodingError("truncated fetch batch header")
        count = int.from_bytes(data[:4], "big")
        if count * 8 > size - 4:
            raise DecodingError("fetch batch count exceeds the payload")
        offsets = array("Q", [0])
        end = 4
        for _ in range(count):
            end += 4 + int.from_bytes(data[end:end + 4], "big")
            if end > size:
                raise DecodingError("fetch batch owner overruns the payload")
            end = _walk_records(data, end, MailboxBatch.MINIMUM, "mailbox batch")
            offsets.append(end - 4)
        if end != size:
            raise DecodingError("trailing bytes after fetch batch")
        return cls(data[4:], offsets)

    def owners(self) -> List[bytes]:
        blob = self._blob
        owners = []
        for start in self._offsets[:-1]:
            owners.append(blob[start + 4:start + 4 + int.from_bytes(blob[start:start + 4], "big")])
        return owners

    def _entry(self, index: int) -> Tuple[bytes, List[int], List[int]]:
        """Entry ``index``'s owner, and where its records start and end in the blob."""
        # The entry was checked where it entered (built, or from_wire).  The
        # fetch reads every record of a round here, so the length fields are
        # unpacked in place rather than sliced out.
        blob, start = self._blob, self._offsets[index]
        split = start + 4 + _read_u32(blob, start)[0]
        starts: List[int] = []
        ends: List[int] = []
        end = split + 4
        for _ in range(_read_u32(blob, split)[0]):
            starts.append(end + 4)
            end += 4 + _read_u32(blob, end)[0]
            ends.append(end)
        return bytes(blob[start + 4:split]), starts, ends

    def sealed_spans(self, key_ranges: Dict[bytes, Tuple[int, int]]) -> Tuple[List, ...]:
        """Every record's sealed body as a span of the blob.

        Returns the spans' ``starts``, ``ends``, ``first_keys`` and
        ``key_counts`` (the :func:`~repro.crypto.aead.open_spans` columns),
        then ``(owner, first record, record count)`` per entry.  A record
        addressed to its owner has the owner's ``(first key, key count)``
        in ``key_ranges`` (none for an owner not there); any other, none.
        """
        blob = self._blob
        starts: List[int] = []
        ends: List[int] = []
        firsts: List[int] = []
        counts: List[int] = []
        entries: List[Tuple[bytes, int, int]] = []
        for owner, records, stops in map(self._entry, range(len(self))):
            first, candidates = key_ranges.get(owner, (0, 0))
            entries.append((owner, len(starts), len(records)))
            starts += [record + GROUP_ELEMENT_SIZE for record in records]
            ends += stops
            for record in records:
                mine = blob.startswith(owner, record, record + GROUP_ELEMENT_SIZE)
                firsts.append(first if mine else 0)
                counts.append(candidates if mine else 0)
        return starts, ends, firsts, counts, entries

    def _materialise(self, index: int) -> Tuple[bytes, List[MailboxMessage]]:
        owner, starts, ends = self._entry(index)
        return owner, [_mailbox_message(self._blob[start:end]) for start, end in zip(starts, ends)]


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


class EncodedBatch(_RecordBatch):
    """A chain's round batch, held in its wire encoding.

    One contiguous blob of concatenated :meth:`BatchEntry.to_bytes` records
    plus an offset table — exactly the payload of a BATCH frame minus its
    count header.  This is the only shape a chain accepts, mixes, forwards,
    records or digests a batch in.  Entries decode *on demand* through
    indexing, so holding a 100k-entry round in history costs the blob (a
    few MB) instead of 100k decoded :class:`BatchEntry`/element objects.
    The blame protocol's random access and the history replay both read
    through the same lazy window; mixing itself uses the bulk accessors
    (:meth:`element_bytes`, :meth:`ciphertext`, :meth:`decode_publics`) to
    avoid materialising entry objects at all.

    Instances are immutable: transforms produce a new batch
    (:meth:`select`) or build one from parts (:meth:`from_parts`).
    """

    __slots__ = ("_group",)

    def __init__(self, group, blob: bytes, offsets: array) -> None:
        super().__init__(blob, offsets)
        self._group = group

    def _with_wire(self, blob: bytes, offsets: array) -> "EncodedBatch":
        return EncodedBatch(self._group, blob, offsets)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_entries(cls, group, entries: Iterable[BatchEntry]) -> "EncodedBatch":
        """Encode decoded entries (how tests and adversaries build a batch)."""
        records = [entry.to_bytes(group) for entry in entries]
        return cls(group, b"".join(records), array("Q", accumulate(map(len, records), initial=0)))

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

    def _materialise(self, index: int) -> BatchEntry:
        record = self._blob[self._offsets[index]:self._offsets[index + 1]]
        return BatchEntry.from_bytes(self._group, record)

    # -- bulk accessors (no BatchEntry materialisation) ----------------------

    def element_bytes(self, index: int) -> bytes:
        """Entry ``index``'s encoded DH element, without decoding it."""
        start = self._offsets[index]
        return self._blob[start:start + self._group.element_size]

    def ciphertext(self, index: int) -> bytes:
        start = self._offsets[index] + self._group.element_size + 4
        return self._blob[start:self._offsets[index + 1]]

    def ciphertexts(self) -> List[bytes]:
        return [self.ciphertext(index) for index in range(len(self))]

    def ciphertext_spans(self) -> Tuple[array, array]:
        """Every entry's ciphertext as a span of :attr:`blob`: ``(starts, ends)``."""
        skip = self._group.element_size + 4
        return array("Q", [start + skip for start in self._offsets[:-1]]), self._offsets[1:]

    def element_encodings(self) -> List[bytes]:
        """Every entry's encoded DH element, as it lies in the blob."""
        blob, size = self._blob, self._group.element_size
        return [blob[start:start + size] for start in self._offsets[:-1]]

    def decode_publics(self) -> List[object]:
        """Decode every entry's DH element (transient: caller drops the list)."""
        return decode_elements(self._group, self.element_encodings())


def decode_elements(group, encodings: Sequence[bytes]) -> List[object]:
    """Decode encoded group elements with one ``decode_batch``; an element
    the group rejects raises the :class:`DecodingError` ``decode`` gives it."""
    points = group.decode_batch(encodings)
    for encoding, point in zip(encodings, points):
        if point is None:
            group.decode(encoding)  # raises the rejection's own error
            raise DecodingError("batch element rejected")
    return points


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
