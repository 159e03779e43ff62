"""Per-object codecs for the batch wire formats: the reference for the views.

Before the batches became wire-resident, ``repro.transport.codec`` decoded
each batch kind record by record into objects, and the mailbox batches
encoded the objects they held.  Those loops live on here, unchanged in what
they accept and write, as the slow obviously-correct reference that
:class:`~repro.mixnet.messages.SubmissionBatch`,
:class:`~repro.mixnet.messages.MailboxBatch` and
:class:`~repro.mixnet.messages.FetchBatch` are held to
(``tests/test_wire_batches.py``): on any input both yield the same items or
both raise :class:`~repro.errors.DecodingError`, and the record builders
write the bytes the object encoders write.
"""

from typing import List, Sequence, Tuple

from repro.errors import DecodingError
from repro.mixnet.messages import ClientSubmission, MailboxMessage
from repro.transport.codec import _pack_bytes, _read_bytes, _read_int


def encode_records(records: Sequence[bytes]) -> bytes:
    """``count || per record: length-prefixed bytes`` — every batch kind's framing."""
    return len(records).to_bytes(4, "big") + b"".join(_pack_bytes(record) for record in records)


def encode_mailbox_batch(messages: Sequence[MailboxMessage]) -> bytes:
    """A ``MAILBOX_DELIVERY`` payload from message objects."""
    return encode_records([message.to_bytes() for message in messages])


def encode_fetch_batch(pairs: Sequence[Tuple[bytes, Sequence[MailboxMessage]]]) -> bytes:
    """A ``MAILBOX_FETCH_BATCH`` payload from ``(owner, messages)`` pairs."""
    return len(pairs).to_bytes(4, "big") + b"".join(
        _pack_bytes(owner) + encode_mailbox_batch(messages) for owner, messages in pairs
    )


def decode_submission_batch(group, data: bytes) -> List[ClientSubmission]:
    count, offset = _read_int(data, 0, 4)
    submissions: List[ClientSubmission] = []
    for _ in range(count):
        raw, offset = _read_bytes(data, offset)
        submissions.append(ClientSubmission.from_bytes(raw, element_size=group.element_size))
    if offset != len(data):
        raise DecodingError("trailing bytes after submission batch")
    return submissions


def read_mailbox_batch(data: bytes, offset: int) -> tuple:
    """Parse one embedded mailbox batch; return ``(messages, next_offset)``."""
    count, offset = _read_int(data, offset, 4)
    messages: List[MailboxMessage] = []
    for _ in range(count):
        raw, offset = _read_bytes(data, offset)
        messages.append(MailboxMessage.from_bytes(raw))
    return messages, offset


def decode_mailbox_batch(data: bytes) -> List[MailboxMessage]:
    messages, offset = read_mailbox_batch(data, 0)
    if offset != len(data):
        raise DecodingError("trailing bytes after mailbox batch")
    return messages


def decode_fetch_batch(data: bytes) -> List[tuple]:
    count, offset = _read_int(data, 0, 4)
    pairs: List[tuple] = []
    for _ in range(count):
        owner, offset = _read_bytes(data, offset)
        messages, offset = read_mailbox_batch(data, offset)
        pairs.append((owner, messages))
    if offset != len(data):
        raise DecodingError("trailing bytes after fetch batch")
    return pairs
