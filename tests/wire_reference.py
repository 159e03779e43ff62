"""Per-object decoders for the batch wire formats: the reference for the views.

Before the batches became wire-resident views, ``repro.transport.codec``
decoded each batch kind record by record into objects.  Those loops live on
here, unchanged in what they accept, as the slow obviously-correct
reference that :class:`~repro.mixnet.messages.SubmissionBatch`,
:class:`~repro.mixnet.messages.MailboxBatch` and
:class:`~repro.mixnet.messages.FetchBatch` are held to
(``tests/test_wire_batches.py``): on any input both yield the same items or
both raise :class:`~repro.errors.DecodingError`.
"""

from typing import List, Sequence

from repro.errors import DecodingError
from repro.mixnet.messages import ClientSubmission, MailboxMessage
from repro.transport.codec import _pack_bytes, _read_bytes, _read_int


def encode_records(records: Sequence[bytes]) -> bytes:
    """``count || per record: length-prefixed bytes`` — every batch kind's framing."""
    return len(records).to_bytes(4, "big") + b"".join(_pack_bytes(record) for record in records)


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
