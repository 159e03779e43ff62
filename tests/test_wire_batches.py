"""The wire-resident batches: structural checks, fuzzing, and the reference.

Every batch kind decodes to a view whose whole structure is checked once
against the buffer (:mod:`repro.transport.codec`).  These tests hold each
view to three things: every proper prefix of a payload and a payload with a
trailing byte is a :class:`DecodingError`; a forged count is rejected before
any per-record work; and on generated payloads — odd-sized adversarial
records and senders at the field bound included — the view yields exactly
what the per-object reference decoder (``tests/wire_reference.py``) yields,
or both raise.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import AEAD_TAG_SIZE, GROUP_ELEMENT_SIZE, SCALAR_SIZE, SENDER_FIELD_SIZE
from repro.crypto.group import ModPGroup
from repro.errors import DecodingError
from repro.mixnet.blame import BlameVerdict
from repro.mixnet.messages import (
    BatchEntry,
    ClientSubmission,
    EncodedBatch,
    FetchBatch,
    MailboxBatch,
    MailboxMessage,
    SubmissionBatch,
    submission_record,
)
from repro.transport import envelope as ev
from repro.transport.codec import decode_blame_verdict, decode_payload, encode_blame_verdict

from tests import wire_reference as reference

MODP = ModPGroup(bits=96)
ELEMENT = MODP.element_size
FIXED = 6 + SENDER_FIELD_SIZE + 2 * ELEMENT + SCALAR_SIZE


def record(chain_id=1, sender="alice", ciphertext=b"ct", padding=None):
    """A submission record; ``padding`` overrides the sender field's zero fill."""
    data = submission_record(
        chain_id, sender, bytes(range(ELEMENT)), b"\x07" * ELEMENT, 12345, ciphertext
    )
    if padding is not None:
        start = 6 + len(sender.encode())
        data = data[:start] + padding + data[start + len(padding):]
    return data


def submission_wire(*records):
    return reference.encode_records(records)


def mailbox_wire(count=2):
    return reference.encode_mailbox_batch([
        MailboxMessage(bytes([index]) * GROUP_ELEMENT_SIZE, b"\x01" * (AEAD_TAG_SIZE + index))
        for index in range(count)
    ])


def fetch_wire():
    message = MailboxMessage(b"\x05" * GROUP_ELEMENT_SIZE, b"\x06" * AEAD_TAG_SIZE)
    return reference.encode_fetch_batch([(b"\x05" * 32, [message, message]), (b"", []), (b"o", [])])


def batch_wire():
    entries = [BatchEntry(MODP.base_mult(index + 1), bytes([index]) * index) for index in range(3)]
    return EncodedBatch.from_entries(MODP, entries).to_wire()


#: One well-formed payload per batch kind.
PAYLOADS = {
    ev.SUBMISSION_BATCH: submission_wire(record(sender="a"), record(sender="b" * 32, ciphertext=b"")),
    ev.COVER_SUBMISSION_BATCH: submission_wire(record(sender="é" * 16)),
    ev.MAILBOX_DELIVERY: mailbox_wire(),
    ev.MAILBOX_FETCH_BATCH: fetch_wire(),
    ev.BATCH: batch_wire(),
}
KINDS = sorted(PAYLOADS)


class TestCanonicalRecords:
    def test_nonzero_sender_padding_is_rejected(self):
        padded = record(sender="bob", padding=b"\x00\x01")
        with pytest.raises(DecodingError, match="padding"):
            ClientSubmission.from_bytes(padded, element_size=ELEMENT)
        with pytest.raises(DecodingError, match="padding"):
            SubmissionBatch.from_wire(MODP, submission_wire(record(), padded))

    def test_a_full_width_sender_has_no_padding_to_check(self):
        full = record(sender="z" * SENDER_FIELD_SIZE)
        assert ClientSubmission.from_bytes(full, element_size=ELEMENT).sender == "z" * 32

    @given(st.integers(0, 2**32 - 1),
           st.text(max_size=8).filter(lambda text: len(text.encode()) <= SENDER_FIELD_SIZE),
           st.binary(max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_an_accepted_record_re_encodes_to_itself(self, chain_id, sender, ciphertext):
        data = record(chain_id, sender, ciphertext)
        assert ClientSubmission.from_bytes(data, element_size=ELEMENT).to_bytes() == data
        wire = submission_wire(data)
        assert SubmissionBatch.from_wire(MODP, wire).to_wire() == wire


class TestStructure:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_proper_prefix_is_rejected(self, kind):
        wire = PAYLOADS[kind]
        assert decode_payload(MODP, kind, wire) is not None
        for cut in range(len(wire)):
            with pytest.raises(DecodingError):
                decode_payload(MODP, kind, wire[:cut])

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_trailing_byte_is_rejected(self, kind):
        with pytest.raises(DecodingError):
            decode_payload(MODP, kind, PAYLOADS[kind] + b"\x00")

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_forged_count_is_rejected_before_any_record(self, kind):
        wire = PAYLOADS[kind]
        with pytest.raises(DecodingError, match="count exceeds"):
            decode_payload(MODP, kind, b"\xff\xff\xff\xff" + wire[4:])

    def test_a_forged_nested_count_is_rejected(self):
        wire = reference.encode_fetch_batch([(b"owner", [])])
        with pytest.raises(DecodingError, match="count exceeds"):
            FetchBatch.from_wire(wire[:-4] + b"\xff\xff\xff\xff")

    def test_a_forged_string_list_count_is_rejected(self):
        verdict = BlameVerdict(chain_id=1, round_number=2, malicious_users=["u"],
                               malicious_servers=[], false_accusations=0,
                               examined_ciphertexts=0)
        wire = encode_blame_verdict(verdict)
        forged = wire[:12] + b"\xff\xff\xff\xff" + wire[16:]
        with pytest.raises(DecodingError, match="count exceeds"):
            decode_blame_verdict(forged)

    def test_columns_match_the_decoded_submissions(self):
        wire = PAYLOADS[ev.SUBMISSION_BATCH]
        batch = SubmissionBatch.from_wire(MODP, wire)
        decoded = list(batch)
        assert batch.senders() == [submission.sender for submission in decoded]
        assert batch.columns() == (
            [submission.chain_id for submission in decoded],
            [submission.sender for submission in decoded],
            [submission.dh_public for submission in decoded],
            [submission.proof.commitment for submission in decoded],
            [submission.proof.response for submission in decoded],
        )
        for index, submission in enumerate(decoded):
            assert batch.ciphertext(index) == submission.ciphertext
            assert batch.record(index) == submission.to_bytes()
        assert list(batch.select([1, 0, 1])) == [decoded[1], decoded[0], decoded[1]]

    def test_fetch_owners_and_select(self):
        batch = FetchBatch.from_wire(fetch_wire())
        assert batch.owners() == [owner for owner, _ in batch] == [b"\x05" * 32, b"", b"o"]
        assert batch.select([2, 0]).owners() == [b"o", b"\x05" * 32]
        assert FetchBatch.from_wire(batch.select([2, 0]).to_wire()).owners() == [b"o", b"\x05" * 32]


# -- differential against the per-object reference ---------------------------

_valid_senders = st.one_of(
    st.text(max_size=SENDER_FIELD_SIZE).filter(lambda text: len(text.encode()) <= SENDER_FIELD_SIZE),
    st.just("s" * SENDER_FIELD_SIZE),  # at the bound
    st.just("é" * (SENDER_FIELD_SIZE // 2)),  # at the bound, multi-byte
)


@st.composite
def submission_records(draw):
    """A submission record: mostly well-formed, else one adversarial shape —
    cut short, odd-sized, a sender length past the field, a sender that is
    not UTF-8, or non-zero padding."""
    sender = draw(_valid_senders).encode()
    length, field = len(sender), sender + bytes(SENDER_FIELD_SIZE - len(sender))
    shape = draw(st.sampled_from(["ok"] * 5 + ["short", "length", "utf8", "padding"]))
    if shape == "length":
        length = draw(st.integers(SENDER_FIELD_SIZE + 1, 2**16 - 1))
    elif shape == "utf8":
        length, field = 2, b"\xc3\x28" + bytes(SENDER_FIELD_SIZE - 2)
    elif shape == "padding" and length < SENDER_FIELD_SIZE:
        field = field[:-1] + draw(st.binary(min_size=1, max_size=1).filter(lambda b: b != b"\0"))
    head = draw(st.binary(min_size=4, max_size=4)) + length.to_bytes(2, "big") + field
    body = draw(st.binary(min_size=FIXED - len(head), max_size=FIXED - len(head) + 24))
    data = head + body
    if shape == "short":
        data = data[:draw(st.integers(0, FIXED - 1))]
    return data


def _mutate(draw, wire):
    """Mostly leave the payload alone; else cut it, extend it, or rewrite its count."""
    how = draw(st.sampled_from(["keep"] * 6 + ["cut", "extend", "count"]))
    if how == "cut" and wire:
        return wire[:draw(st.integers(0, len(wire) - 1))]
    if how == "extend":
        return wire + draw(st.binary(min_size=1, max_size=8))
    if how == "count" and len(wire) >= 4:
        return draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big") + wire[4:]
    return wire


def _agree(view, expected):
    """Both yield the same items, or both raise DecodingError."""
    try:
        wanted = expected()
    except DecodingError:
        with pytest.raises(DecodingError):
            view()
        return
    assert view() == wanted


@st.composite
def wire_payloads(draw, kind):
    """A well-formed payload of ``kind`` with generated contents."""
    if kind == ev.SUBMISSION_BATCH:
        return submission_wire(*(
            record(draw(st.integers(0, 9)), draw(_valid_senders), draw(st.binary(max_size=24)))
            for _ in range(draw(st.integers(0, 3)))
        ))
    messages = st.lists(st.builds(
        MailboxMessage, st.binary(min_size=GROUP_ELEMENT_SIZE, max_size=GROUP_ELEMENT_SIZE),
        st.binary(min_size=AEAD_TAG_SIZE, max_size=AEAD_TAG_SIZE + 12),
    ), max_size=3)
    if kind == ev.MAILBOX_DELIVERY:
        return reference.encode_mailbox_batch(draw(messages))
    pairs = draw(st.lists(st.tuples(st.binary(max_size=33), messages), max_size=3))
    return reference.encode_fetch_batch(pairs)


class TestGeneratedStructure:
    @pytest.mark.parametrize("kind", [ev.SUBMISSION_BATCH, ev.MAILBOX_DELIVERY,
                                      ev.MAILBOX_FETCH_BATCH])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_proper_prefix_and_a_trailing_byte_are_rejected(self, kind, data):
        wire = data.draw(wire_payloads(kind))
        assert decode_payload(MODP, kind, wire).to_wire() == wire
        for cut in range(len(wire)):
            with pytest.raises(DecodingError):
                decode_payload(MODP, kind, wire[:cut])
        with pytest.raises(DecodingError):
            decode_payload(MODP, kind, wire + data.draw(st.binary(min_size=1, max_size=4)))


class TestDifferential:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_submission_batch(self, data):
        records = data.draw(st.lists(submission_records(), max_size=5))
        wire = _mutate(data.draw, reference.encode_records(records))
        _agree(
            lambda: list(SubmissionBatch.from_wire(MODP, wire)),
            lambda: reference.decode_submission_batch(MODP, wire),
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mailbox_batch(self, data):
        records = data.draw(st.lists(st.binary(max_size=GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE + 8),
                                     max_size=5))
        wire = _mutate(data.draw, reference.encode_records(records))
        _agree(lambda: list(MailboxBatch.from_wire(wire)),
               lambda: reference.decode_mailbox_batch(wire))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fetch_batch(self, data):
        pairs = data.draw(st.lists(st.tuples(
            st.binary(max_size=40),
            st.lists(st.binary(max_size=GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE + 8), max_size=3),
        ), max_size=4))
        wire = len(pairs).to_bytes(4, "big") + b"".join(
            len(owner).to_bytes(4, "big") + owner + reference.encode_records(messages)
            for owner, messages in pairs
        )
        wire = _mutate(data.draw, wire)
        _agree(
            lambda: [(owner, list(messages)) for owner, messages in FetchBatch.from_wire(wire)],
            lambda: reference.decode_fetch_batch(wire),
        )


# -- the record builders against the object encoders --------------------------

#: Mailbox messages of odd sizes: any recipient, a sealed body from one tag up.
_messages = st.builds(
    MailboxMessage, st.binary(min_size=GROUP_ELEMENT_SIZE, max_size=GROUP_ELEMENT_SIZE),
    st.binary(min_size=AEAD_TAG_SIZE, max_size=AEAD_TAG_SIZE + 21),
)
#: Owners from a small pool, so inboxes repeat owners; the empty key included.
_owners = st.sampled_from([b"", b"\x01" * GROUP_ELEMENT_SIZE, b"\x02" * GROUP_ELEMENT_SIZE, b"odd"])


class TestRecordBuilders:
    """``MailboxBatch.from_records`` and ``FetchBatch.from_inboxes`` write
    the bytes the per-object encoders write, and read back the same owners
    and records."""

    @given(st.lists(_messages, max_size=6))
    @example([])
    @settings(max_examples=100, deadline=None)
    def test_a_mailbox_batch_from_records(self, messages):
        records = [message.to_bytes() for message in messages]
        batch = MailboxBatch.from_records(records)
        assert batch.to_wire() == reference.encode_mailbox_batch(messages)
        assert [bytes(record) for record in batch.records()] == records
        assert list(batch) == messages

    @given(st.lists(st.tuples(_owners, st.lists(_messages, max_size=3)), max_size=5))
    @example([])  # no owners
    @example([(b"odd", []), (b"odd", [])])  # a repeated owner, empty inboxes
    @settings(max_examples=100, deadline=None)
    def test_a_fetch_batch_from_inboxes(self, inboxes):
        batch = FetchBatch.from_inboxes(
            (owner, [message.to_bytes() for message in messages]) for owner, messages in inboxes
        )
        assert batch.to_wire() == reference.encode_fetch_batch(inboxes)
        assert batch.owners() == [owner for owner, _ in inboxes]
        assert list(batch) == [(owner, list(messages)) for owner, messages in inboxes]
        assert FetchBatch.from_wire(batch.to_wire()) == batch
