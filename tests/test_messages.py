"""Tests for the fixed-size wire formats."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    AEAD_TAG_SIZE,
    GROUP_ELEMENT_SIZE,
    PAYLOAD_SIZE,
    SCALAR_SIZE,
    SENDER_FIELD_SIZE,
    SUBMISSION_OVERHEAD,
)
from repro.crypto.nizk import prove_dlog
from repro.errors import CryptoError, DecodingError
from repro.mixnet import messages
from repro.mixnet.messages import (
    BatchEntry,
    ClientSubmission,
    EncodedBatch,
    MailboxMessage,
    MessageBody,
    batch_digest,
    mailbox_message_size,
    split_into_payload_chunks,
)

from tests.conftest import RecordingTransport, make_deployment

KEY = b"\x05" * 32
RECIPIENT = b"\x09" * GROUP_ELEMENT_SIZE


class TestMessageBody:
    def test_data_roundtrip(self):
        body = MessageBody.data(b"hi there")
        decoded = MessageBody.decode(body.encode())
        assert decoded.kind == messages.KIND_DATA
        assert decoded.content == b"hi there"

    def test_loopback_and_offline(self):
        assert MessageBody.decode(MessageBody.loopback().encode()).is_loopback()
        assert MessageBody.decode(MessageBody.offline_notice().encode()).is_offline_notice()

    def test_encoded_size_fixed(self):
        assert len(MessageBody.data(b"x").encode()) == PAYLOAD_SIZE
        assert len(MessageBody.loopback().encode()) == PAYLOAD_SIZE

    def test_unknown_kind_rejected(self):
        with pytest.raises(CryptoError):
            MessageBody(kind=99, content=b"").encode()

    def test_empty_body_rejected_on_decode(self):
        with pytest.raises(DecodingError):
            MessageBody.decode(b"\x00\x00" + b"\x00" * 10)

    @given(st.binary(min_size=0, max_size=PAYLOAD_SIZE - 3))
    @settings(max_examples=30)
    def test_data_roundtrip_property(self, content):
        assert MessageBody.decode(MessageBody.data(content).encode()).content == content


class TestMailboxMessage:
    def test_seal_and_open(self):
        message = MailboxMessage.seal(RECIPIENT, KEY, 3, MessageBody.data(b"hello"))
        body = message.open(KEY, 3)
        assert body is not None and body.content == b"hello"

    def test_open_with_wrong_key(self):
        message = MailboxMessage.seal(RECIPIENT, KEY, 3, MessageBody.data(b"hello"))
        assert message.open(b"\x06" * 32, 3) is None

    def test_open_with_wrong_round(self):
        message = MailboxMessage.seal(RECIPIENT, KEY, 3, MessageBody.data(b"hello"))
        assert message.open(KEY, 4) is None

    def test_fixed_wire_size(self):
        short = MailboxMessage.seal(RECIPIENT, KEY, 1, MessageBody.data(b"a"))
        long = MailboxMessage.seal(RECIPIENT, KEY, 1, MessageBody.data(b"a" * 200))
        assert len(short) == len(long) == mailbox_message_size()

    def test_wire_size_against_constants(self):
        assert mailbox_message_size() == GROUP_ELEMENT_SIZE + PAYLOAD_SIZE + AEAD_TAG_SIZE
        message = MailboxMessage.seal(RECIPIENT, KEY, 1, MessageBody.data(b"x"))
        assert len(message.to_bytes()) == mailbox_message_size()

    def test_serialisation_roundtrip(self):
        message = MailboxMessage.seal(RECIPIENT, KEY, 1, MessageBody.data(b"x"))
        restored = MailboxMessage.from_bytes(message.to_bytes())
        assert restored == message

    def test_invalid_recipient_length(self):
        with pytest.raises(CryptoError):
            MailboxMessage.seal(b"short", KEY, 1, MessageBody.data(b"x"))

    def test_from_bytes_too_short(self):
        with pytest.raises(DecodingError):
            MailboxMessage.from_bytes(b"tiny")


class TestClientSubmission:
    @staticmethod
    def make(group, sender="alice", chain_id=2, ciphertext=b"c" * 100):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret)
        return ClientSubmission(
            chain_id=chain_id,
            sender=sender,
            dh_public=group.encode(group.base_mult(secret)),
            ciphertext=ciphertext,
            proof=proof,
        )

    def test_wire_size_accounting(self, group):
        submission = self.make(group)
        assert submission.wire_size() == len(submission.to_bytes())
        assert submission.wire_size() > 100 + 32

    def test_wire_size_against_constants(self, group):
        """``wire_size = SUBMISSION_OVERHEAD + |X| + |ciphertext|`` exactly."""
        submission = self.make(group, ciphertext=b"c" * 321)
        assert submission.wire_size() == SUBMISSION_OVERHEAD + GROUP_ELEMENT_SIZE + 321
        assert SUBMISSION_OVERHEAD == 4 + 2 + SENDER_FIELD_SIZE + GROUP_ELEMENT_SIZE + SCALAR_SIZE

    def test_wire_size_independent_of_sender_name(self, group):
        """The padded sender field keeps submissions uniform across users."""
        short = self.make(group, sender="a")
        long = self.make(group, sender="user-123456789")
        assert short.wire_size() == long.wire_size()

    def test_round_trip(self, group):
        submission = self.make(group, sender="user-7", chain_id=11)
        decoded = ClientSubmission.from_bytes(
            submission.to_bytes(), element_size=group.element_size
        )
        assert decoded == submission

    def test_round_trip_empty_sender_and_ciphertext(self, group):
        submission = self.make(group, sender="", ciphertext=b"")
        decoded = ClientSubmission.from_bytes(submission.to_bytes())
        assert decoded == submission

    def test_oversized_sender_rejected(self, group):
        submission = self.make(group, sender="x" * (SENDER_FIELD_SIZE + 1))
        with pytest.raises(CryptoError):
            submission.to_bytes()

    def test_from_bytes_too_short(self):
        with pytest.raises(DecodingError):
            ClientSubmission.from_bytes(b"\x00" * 10)

    def test_from_bytes_bogus_sender_length(self, group):
        wire = bytearray(self.make(group).to_bytes())
        wire[4:6] = (SENDER_FIELD_SIZE + 1).to_bytes(2, "big")
        with pytest.raises(DecodingError):
            ClientSubmission.from_bytes(bytes(wire))

    def test_from_bytes_non_utf8_sender(self, group):
        """Malformed input raises DecodingError, never UnicodeDecodeError."""
        wire = bytearray(self.make(group, sender="ab").to_bytes())
        wire[6] = 0x80
        with pytest.raises(DecodingError):
            ClientSubmission.from_bytes(bytes(wire))

    def test_cover_flag_not_on_the_wire(self, group):
        """Covers must be indistinguishable from other submissions (§5.3.3):
        a submission has no field that could mark one."""
        submission = self.make(group)
        assert [field.name for field in dataclasses.fields(ClientSubmission)] == [
            "chain_id", "sender", "dh_public", "ciphertext", "proof",
        ]
        assert ClientSubmission.from_bytes(submission.to_bytes()) == submission


class TestBatchEntry:
    def test_round_trip(self, group):
        entry = BatchEntry(dh_public=group.base_mult(7), ciphertext=b"xyz" * 11)
        decoded = BatchEntry.from_bytes(group, entry.to_bytes(group))
        assert decoded == entry

    def test_wire_size_against_constants(self, group):
        entry = BatchEntry(dh_public=group.base_mult(3), ciphertext=b"c" * 40)
        assert len(entry.to_bytes(group)) == GROUP_ELEMENT_SIZE + 4 + 40

    def test_empty_ciphertext(self, group):
        entry = BatchEntry(dh_public=group.base_mult(2), ciphertext=b"")
        assert BatchEntry.from_bytes(group, entry.to_bytes(group)) == entry

    def test_truncation_rejected(self, group):
        wire = BatchEntry(dh_public=group.base_mult(5), ciphertext=b"c" * 10).to_bytes(group)
        with pytest.raises(DecodingError):
            BatchEntry.from_bytes(group, wire[:-1])
        with pytest.raises(DecodingError):
            BatchEntry.from_bytes(group, wire + b"\x00")


def make_entries(group, count):
    return [
        BatchEntry(dh_public=group.base_mult(index + 1), ciphertext=bytes([index]) * index)
        for index in range(count)
    ]


class TestEncodedBatch:
    def test_concatenated_entries_read_in_sequence(self, group):
        entries = make_entries(group, 5)
        batch = EncodedBatch.from_entries(group, entries)
        assert batch.blob == b"".join(entry.to_bytes(group) for entry in entries)
        assert list(batch) == entries
        assert batch[-1] == entries[-1] and batch[1:3] == entries[1:3]
        assert batch.decode_publics() == [entry.dh_public for entry in entries]
        assert batch.ciphertexts() == [entry.ciphertext for entry in entries]

    def test_from_parts_matches_from_entries(self, group):
        entries = make_entries(group, 4)
        batch = EncodedBatch.from_parts(
            group,
            [group.encode(entry.dh_public) for entry in entries],
            [entry.ciphertext for entry in entries],
        )
        assert batch.blob == EncodedBatch.from_entries(group, entries).blob

    def test_select_subsets_duplicates_and_empties(self, group):
        entries = make_entries(group, 4)
        batch = EncodedBatch.from_entries(group, entries)
        assert list(batch.select([3, 0, 0])) == [entries[3], entries[0], entries[0]]
        assert len(batch.select(())) == 0 and batch.select(()).blob == b""

    def test_wire_round_trip(self, group):
        batch = EncodedBatch.from_entries(group, make_entries(group, 5))
        decoded = EncodedBatch.from_wire(group, batch.to_wire())
        assert decoded.blob == batch.blob and list(decoded) == list(batch)
        empty = EncodedBatch.from_wire(group, EncodedBatch.from_entries(group, []).to_wire())
        assert len(empty) == 0

    def test_truncated_header_rejected(self, group):
        for cut in range(4):
            with pytest.raises(DecodingError, match="truncated batch header"):
                EncodedBatch.from_wire(group, b"\x00\x00\x00\x01"[:cut])

    def test_count_beyond_payload_rejected_before_the_walk(self, group):
        """A forged count needs ``count`` minimum-size records of room."""
        wire = EncodedBatch.from_entries(group, make_entries(group, 2)).to_wire()
        minimum = group.element_size + 4
        room = (len(wire) - 4) // minimum
        forged = (room + 1).to_bytes(4, "big") + wire[4:]
        with pytest.raises(DecodingError, match="count exceeds"):
            EncodedBatch.from_wire(group, forged)
        with pytest.raises(DecodingError, match="count exceeds"):
            EncodedBatch.from_wire(group, b"\xff\xff\xff\xff" + wire[4:])

    def test_record_overrun_rejected(self, group):
        entries = [BatchEntry(group.base_mult(index + 1), b"c" * 40) for index in range(3)]
        wire = EncodedBatch.from_entries(group, entries).to_wire()
        # The last record's length field claims more ciphertext than is left.
        length_at = len(wire) - 40 - 4
        overrun = wire[:length_at] + (41).to_bytes(4, "big") + wire[length_at + 4:]
        with pytest.raises(DecodingError, match="overruns"):
            EncodedBatch.from_wire(group, overrun)
        # Every proper prefix is short somewhere: a record header or a body.
        for cut in range(4, len(wire)):
            with pytest.raises(DecodingError, match="overruns|count exceeds"):
                EncodedBatch.from_wire(group, wire[:cut])

    def test_trailing_bytes_rejected(self, group):
        wire = EncodedBatch.from_entries(group, make_entries(group, 3)).to_wire()
        with pytest.raises(DecodingError, match="trailing bytes"):
            EncodedBatch.from_wire(group, wire + b"\x00")

    def test_out_of_range_element_surfaces_at_decode_publics(self, group):
        """Structure is checked at the wire; elements once per hop, same error."""
        wire = EncodedBatch.from_entries(group, make_entries(group, 2)).to_wire()
        bad = wire[:4] + b"\xff" * group.element_size + wire[4 + group.element_size:]
        batch = EncodedBatch.from_wire(group, bad)
        assert len(batch) == 2
        with pytest.raises(DecodingError):
            batch.decode_publics()
        with pytest.raises(DecodingError):
            batch[0]
        assert batch[1] == make_entries(group, 2)[1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=2**32), st.binary(max_size=80)),
            max_size=6,
        )
    )
    def test_decode_encode_round_trip(self, group, records):
        batch = EncodedBatch.from_entries(
            group, [BatchEntry(group.base_mult(scalar), ct) for scalar, ct in records]
        )
        decoded = EncodedBatch.from_wire(group, batch.to_wire())
        assert decoded.blob == batch.blob
        assert decoded.to_wire() == batch.to_wire()
        assert [batch.ciphertext(i) for i in range(len(batch))] == [ct for _, ct in records]


class TestBatchRepresentation:
    """One batch shape in the chain (DESIGN.md §11.3), however it travelled.

    Over every transport, honest or tampered or link-faulted, what each hop
    received over the wire and what each member recorded while the round
    was held is an ``EncodedBatch`` — the wire transports, a tampering
    server and a faulty link used to hand the next hop a decoded list — and
    the round is byte-identical to the same case run in process.
    """

    CASES = ("honest", "tamper", "duplicate", "reorder", "drop")

    @staticmethod
    def _run(transport, case, inspect=lambda deployment, ctx: None):
        """One round, stage by stage, calling ``inspect`` between mix and
        deliver (deliver releases the round); returns the report and the
        recording of every envelope."""
        from repro.coordinator.adversary import (
            MODE_TAMPER_CIPHERTEXT,
            install_tampering_server,
        )
        from repro.transport import BATCH
        from repro.transport.faulty import FaultyTransport, LinkFault

        with make_deployment(num_chains=2, chain_length=3, transport=transport) as deployment:
            if case == "tamper":
                install_tampering_server(deployment, 0, 0, MODE_TAMPER_CIPHERTEXT)
            elif case != "honest":
                fault = LinkFault(behaviour=case, kind=BATCH, chain_id=0, index=1, seed=5)
                deployment.use_transport(
                    FaultyTransport(deployment.transport, [fault]), close_previous=False
                )
            recorder = RecordingTransport(deployment.transport)
            deployment.use_transport(recorder, close_previous=False)
            engine = deployment.engine
            ctx = engine.prepare(deployment.round_spec())
            for stage in (engine.collect, engine.finalize_collect, engine.precompute, engine.mix):
                stage(ctx)
            inspect(deployment, ctx)
            engine.deliver(ctx)
            engine.fetch(ctx)
            return ctx.report, recorder

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("transport", ("inproc", "tcp"))
    def test_every_hop_holds_an_encoded_batch(self, transport, case):
        def held_records(deployment, ctx):
            for chain in deployment.chains:
                delivered = ctx.chain_outcomes[chain.chain_id].result.delivered
                # The hop behind the tampering server / the faulted link ran.
                assert type(chain.members[1].round_record(1).inputs) is EncodedBatch
                for member in chain.members:
                    record = member.round_record(1)
                    for batch in (record.inputs, record.outputs):
                        assert batch is None or type(batch) is EncodedBatch
                    if delivered:
                        assert record.inputs is not None and record.outputs is not None
                # What the chain keeps of the submissions is who sent them.
                senders = chain.senders_for_round(1)
                assert senders and all(type(sender) is str for sender in senders)

        report, recorder = self._run(transport, case, held_records)
        reference, _ = self._run("inproc", case)
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert report.chain_results[0].delivered == (case != "tamper")
        for chain_id, result in report.chain_results.items():
            hops = recorder.batches(chain_id)
            assert hops and all(type(batch) is EncodedBatch for batch in hops)
            if result.delivered:
                assert len(hops) == 2  # chain_length − 1 server→server links


class TestBatchDigest:
    def test_order_independent(self, group):
        batch = EncodedBatch.from_entries(
            group, [BatchEntry(group.base_mult(index + 1), bytes([index]) * 4) for index in range(4)]
        )
        assert batch_digest(batch) == batch_digest(batch.select([3, 2, 1, 0]))

    def test_content_sensitive(self, group):
        entries = EncodedBatch.from_entries(group, [BatchEntry(group.base_mult(1), b"aaaa")])
        other = EncodedBatch.from_entries(group, [BatchEntry(group.base_mult(1), b"aaab")])
        assert batch_digest(entries) != batch_digest(other)

    def test_empty_batch(self, group):
        assert len(batch_digest(EncodedBatch.from_entries(group, []))) == 32


class TestChunking:
    def test_small_message_single_chunk(self):
        assert split_into_payload_chunks(b"hello") == [b"hello"]

    def test_empty_message(self):
        assert split_into_payload_chunks(b"") == [b""]

    def test_large_message_splits_and_reassembles(self):
        data = bytes(range(256)) * 5
        chunks = split_into_payload_chunks(data)
        assert len(chunks) > 1
        assert b"".join(chunks) == data
        assert all(len(chunk) <= PAYLOAD_SIZE - 3 for chunk in chunks)

    def test_tiny_payload_size_rejected(self):
        with pytest.raises(CryptoError):
            split_into_payload_chunks(b"data", payload_size=3)
