"""Tests for the aggregate hybrid shuffle: key ceremony, mixing, verification."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyPair
from repro.crypto.nizk import verify_dlog
from repro.crypto import onion
from repro.crypto.onion import encrypt_inner, encrypt_outer_layers, outer_layer_key
from repro.errors import ProofError, ProtocolError
from repro.mixnet.ahs import (
    ChainMember,
    ChainRoundResult,
    InnerKeyAnnouncement,
    MixChain,
    setup_context,
    submission_context,
)
from repro.mixnet.messages import (
    BatchEntry,
    ClientSubmission,
    EncodedBatch,
    MailboxMessage,
    MessageBody,
)
from repro.crypto.nizk import prove_dlog
from repro.crypto.stream import stream_key

from repro.transport.inproc import InProcTransport

from tests.conftest import RecordingTransport, selected_tier
from tests.test_native_kernels import REJECTED_ENCODINGS


def build_chain(group, length=3, chain_id=0, seed=11):
    members = [
        ChainMember(f"server-{index}", chain_id, index, group, stream_key(seed + index))
        for index in range(length)
    ]
    chain = MixChain(chain_id=chain_id, members=members, group=group)
    chain.setup()
    return chain


def input_aggregate(chain, entries):
    """Σ of a batch's DH keys, the proof base ``run_round`` hands a member."""
    return chain.group.sum(entries.decode_publics())


def make_submission(group, chain, round_number, sender, recipient_key, symmetric_key, body=None,
                    rng=None):
    """Build a well-formed AHS submission for one chain (``rng``: reproducibly)."""
    body = body or MessageBody.data(b"payload for " + sender.encode())
    mailbox_message = MailboxMessage.seal(recipient_key, symmetric_key, round_number, body)
    inner, ephemeral, nonce = (group.random_scalar(rng) for _ in range(3))
    envelope = encrypt_inner(
        group, chain.aggregate_inner_public(round_number), round_number,
        mailbox_message.to_bytes(), ephemeral_secret=inner,
    )
    ciphertext = encrypt_outer_layers(
        group, chain.public_keys.mixing_publics, round_number, envelope.to_bytes(), ephemeral
    )
    proof = prove_dlog(
        group, group.base(), ephemeral,
        submission_context(chain.chain_id, round_number, sender), nonce=nonce,
    )
    return ClientSubmission(
        chain_id=chain.chain_id,
        sender=sender,
        dh_public=group.encode(group.base_mult(ephemeral)),
        ciphertext=ciphertext,
        proof=proof,
    )


class TestKeyCeremony:
    def test_chained_key_structure(self, group):
        """bpk_i and mpk_i are both powers of bpk_{i-1}, with bpk_0 = g (§6.1)."""
        chain = build_chain(group, length=4)
        keys = chain.public_keys
        base = group.base()
        for index, member in enumerate(chain.members):
            assert keys.base_points[index] == base
            assert keys.blinding_publics[index] == group.scalar_mult(base, member.blinding_secret)
            assert keys.mixing_publics[index] == group.scalar_mult(base, member.mixing_secret)
            base = keys.blinding_publics[index]

    def test_setup_returns_all_keys(self, group):
        chain = build_chain(group, length=5)
        assert chain.public_keys.length == 5
        assert len(chain.public_keys.blinding_publics) == 5

    def test_setup_proofs_verified(self, group):
        """A member that lies about knowing its secret is caught during setup."""

        class LyingMember(ChainMember):
            def generate_long_term_keys(self, base_point):
                bundle = super().generate_long_term_keys(base_point)
                # Claim a different blinding public key than the one proven.
                return type(bundle)(
                    position=bundle.position,
                    blinding_public=self.group.scalar_mult(base_point, self.group.random_scalar()),
                    mixing_public=bundle.mixing_public,
                    blinding_proof=bundle.blinding_proof,
                    mixing_proof=bundle.mixing_proof,
                )

        members = [
            ChainMember("server-0", 0, 0, group, stream_key(1)),
            LyingMember("server-1", 0, 1, group, stream_key(2)),
        ]
        chain = MixChain(0, members, group)
        with pytest.raises(ProofError):
            chain.setup()

    def test_empty_chain_rejected(self, group):
        with pytest.raises(ProtocolError):
            MixChain(0, [], group)

    def test_user_can_derive_layer_keys(self, group):
        """The DH key a user derives for layer i equals the one server i derives (§6.3)."""
        chain = build_chain(group, length=3)
        ephemeral = group.random_scalar()
        dh_public = group.base_mult(ephemeral)
        for index, member in enumerate(chain.members):
            user_side = group.scalar_mult(chain.public_keys.mixing_publics[index], ephemeral)
            server_side = group.scalar_mult(dh_public, member.mixing_secret)
            assert user_side == server_side
            dh_public = group.scalar_mult(dh_public, member.blinding_secret)


class TestInnerKeys:
    def test_begin_round_aggregates(self, group):
        chain = build_chain(group)
        aggregate = chain.begin_round(1)
        expected = group.sum(
            group.base_mult(member.round_record(1).inner_secret) for member in chain.members
        )
        assert aggregate == expected

    def test_begin_round_is_idempotent(self, group):
        chain = build_chain(group)
        aggregate = chain.begin_round(1)
        secrets = [member.round_record(1).inner_secret for member in chain.members]
        assert chain.begin_round(1) == aggregate
        assert [member.round_record(1).inner_secret for member in chain.members] == secrets

    def test_begin_round_proofs(self, group):
        chain = build_chain(group)
        member = chain.members[0]
        announcement = member.begin_round(7)
        assert verify_dlog(
            group,
            group.base(),
            announcement.inner_public,
            announcement.proof,
            b"xrd/inner-key|" + (0).to_bytes(4, "big") + (0).to_bytes(2, "big") + (7).to_bytes(8, "big"),
        )

    @pytest.mark.parametrize("liar", [0, 2])
    def test_a_false_announcement_names_its_member(self, group, liar):
        """All announcements are checked in one batch; the verdict still
        convicts the member whose proof is for another key."""

        class LyingMember(ChainMember):
            def begin_round(self, round_number):
                honest = super().begin_round(round_number)
                return InnerKeyAnnouncement(honest.position, self.group.base_mult(7), honest.proof)

        members = [
            (LyingMember if index == liar else ChainMember)(
                f"server-{index}", 0, index, group, stream_key(index)
            )
            for index in range(3)
        ]
        chain = MixChain(0, members, group)
        chain.setup()
        with pytest.raises(ProofError, match=f"server-{liar} failed to prove"):
            chain.begin_round(1)

    def test_aggregate_inner_requires_begin(self, group):
        chain = build_chain(group)
        with pytest.raises(ProtocolError):
            chain.aggregate_inner_public(3)

    def test_reveal_requires_begin(self, group):
        chain = build_chain(group)
        with pytest.raises(ProtocolError):
            chain.members[0].reveal_inner_secret(9)

    def test_delete_inner_secret(self, group):
        chain = build_chain(group)
        chain.begin_round(1)
        chain.members[0].delete_inner_secret(1)
        with pytest.raises(ProtocolError):
            chain.members[0].reveal_inner_secret(1)


class TestSubmissionIntake:
    def test_valid_submissions_accepted(self, group):
        chain = build_chain(group)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, rejected = chain.accept_submissions(1, [submission])
        assert len(entries) == 1 and rejected == []

    def test_wrong_chain_id_rejected(self, group):
        chain = build_chain(group, chain_id=0)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        wrong = ClientSubmission(99, "alice", submission.dh_public, submission.ciphertext, submission.proof)
        _, rejected = chain.accept_submissions(1, [wrong])
        assert rejected == ["alice"]

    def test_invalid_proof_rejected(self, group):
        chain = build_chain(group)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        forged = ClientSubmission(
            chain_id=0,
            sender="mallory",
            dh_public=group.encode(group.base_mult(group.random_scalar())),
            ciphertext=good.ciphertext,
            proof=good.proof,
        )
        _, rejected = chain.accept_submissions(1, [forged])
        assert rejected == ["mallory"]

    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_undecodable_key_rejected(self, request, group_name):
        """Every kind of key the group rejects rejects its sender."""
        group = request.getfixturevalue(group_name)
        chain = build_chain(group)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        keys = [b"\xff" * 32, b"\x01" * 31, b""] + (
            [REJECTED_ENCODINGS["not a square"], REJECTED_ENCODINGS["x = 0 (y = 1), sign set"]]
            if group_name == "ed_group" else [b"\x00" * 32]
        )
        broken = [
            ClientSubmission(0, f"mallory-{index}", key, good.ciphertext, good.proof)
            for index, key in enumerate(keys)
        ]
        entries, rejected = chain.accept_submissions(1, [good, *broken])
        assert len(entries) == 1 and rejected == [submission.sender for submission in broken]

    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_a_decoder_fault_is_not_a_rejection(self, request, group_name, monkeypatch):
        """Only an encoding the group rejects drops a submission: any other
        error raised while decoding propagates instead of convicting the sender."""
        group = request.getfixturevalue(group_name)
        chain = build_chain(group)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)

        def faulty(data):
            raise RuntimeError("decoder fault")

        with selected_tier("python"):  # where decode_batch runs decode per element
            monkeypatch.setattr(group, "decode", faulty)
            with pytest.raises(RuntimeError, match="decoder fault"):
                chain.accept_submissions(1, [good])

    def test_run_round_requires_accept(self, group):
        chain = build_chain(group)
        chain.begin_round(1)
        with pytest.raises(ProtocolError):
            chain.run_round(1)


class TestHonestMixing:
    def test_all_messages_delivered(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipients = [KeyPair.generate(group) for _ in range(5)]
        keys = [bytes([index + 1]) * 32 for index in range(5)]
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipients[index].public_bytes, keys[index])
            for index in range(5)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_DELIVERED
        assert len(result.mailbox_messages) == 5
        delivered_recipients = {message.recipient for message in result.mailbox_messages}
        assert delivered_recipients == {keypair.public_bytes for keypair in recipients}
        for index, recipient in enumerate(recipients):
            matching = [m for m in result.mailbox_messages if m.recipient == recipient.public_bytes]
            assert len(matching) == 1
            body = matching[0].open(keys[index], 1)
            assert body is not None and body.content == f"payload for user-{index}".encode()

    def test_output_order_randomised(self, group):
        """The delivered order should (almost surely) differ from submission order."""
        chain = build_chain(group, length=2, seed=3)
        chain.begin_round(1)
        recipients = [KeyPair.generate(group) for _ in range(12)]
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipients[index].public_bytes, b"\x02" * 32)
            for index in range(12)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        submitted_order = [keypair.public_bytes for keypair in recipients]
        delivered_order = [message.recipient for message in result.mailbox_messages]
        assert sorted(submitted_order) == sorted(delivered_order)
        assert submitted_order != delivered_order

    def test_empty_round(self, group):
        chain = build_chain(group)
        chain.begin_round(1)
        chain.accept_submissions(1, [])
        result = chain.run_round(1)
        assert result.delivered
        assert result.mailbox_messages == []

    def test_every_hop_crosses_the_transport(self, group):
        """Each member's output reaches its successor as one BATCH envelope;
        the last member's stays local for the inner-key reveal."""
        chain = build_chain(group, length=3)
        recorder = RecordingTransport(InProcTransport())
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        chain.accept_submissions(
            1, [make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x03" * 32)]
        )
        assert chain.run_round(1, recorder).delivered
        assert [(envelope.source, envelope.destination) for envelope, _ in recorder.carried] == [
            ("server-0", "server-1"), ("server-1", "server-2"),
        ]
        assert [len(batch) for batch in recorder.batches(chain.chain_id)] == [1, 1]

    def test_release_round_forgets_only_that_round(self, group):
        chain = build_chain(group, length=2)
        recipient = KeyPair.generate(group)
        for round_number in (1, 2):
            chain.begin_round(round_number)
            chain.accept_submissions(round_number, [make_submission(
                group, chain, round_number, "alice", recipient.public_bytes, b"\x05" * 32
            )])
        announced = chain.aggregate_inner_public(1)
        assert chain.run_round(1).delivered
        chain.release_round(1)
        stores = (chain._entries, chain._senders, chain._input_aggregate,
                  chain._inner_publics, chain._aggregate_inner)
        assert [sorted(store) for store in stores] == [[2]] * 5
        assert all(sorted(member._rounds) == [2] for member in chain.members)
        assert chain.run_round(2).delivered
        # Announcing a released round re-derives the keys it had.
        assert chain.begin_round(1) == announced

    def test_garbage_inner_envelope_dropped(self, group):
        """A submission whose outer layers are fine but whose inner envelope is
        truncated garbage is simply dropped after the reveal, and counted as
        invalid (it can only hurt its malicious sender)."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x04" * 32)
        ephemeral = group.random_scalar()
        garbage_ct = encrypt_outer_layers(
            group, chain.public_keys.mixing_publics, 1, b"not an inner envelope", ephemeral
        )
        bad = ClientSubmission(
            chain_id=0,
            sender="mallory",
            dh_public=group.encode(group.base_mult(ephemeral)),
            ciphertext=garbage_ct,
            proof=prove_dlog(group, group.base(), ephemeral, submission_context(0, 1, "mallory")),
        )
        chain.accept_submissions(1, [good, bad])
        result = chain.run_round(1)
        assert result.delivered
        assert len(result.mailbox_messages) == 1
        assert result.invalid_inner_count == 1

    def test_a_short_mailbox_message_is_an_invalid_inner(self, group):
        """An inner envelope that opens to fewer bytes than a mailbox message
        counts as invalid, like a truncated envelope does."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        envelope = encrypt_inner(group, chain.aggregate_inner_public(1), 1, b"short")
        ephemeral = group.random_scalar()
        short = ClientSubmission(
            chain_id=0,
            sender="mallory",
            dh_public=group.encode(group.base_mult(ephemeral)),
            ciphertext=encrypt_outer_layers(
                group, chain.public_keys.mixing_publics, 1, envelope.to_bytes(), ephemeral
            ),
            proof=prove_dlog(group, group.base(), ephemeral, submission_context(0, 1, "mallory")),
        )
        chain.accept_submissions(1, [short])
        result = chain.run_round(1)
        assert result.delivered
        assert (result.mailbox_messages, result.invalid_inner_count) == ([], 1)

    def test_a_decryption_fault_is_not_an_invalid_inner(self, group, monkeypatch):
        """Only what the envelopes themselves fail on — length, a rejected
        ephemeral key, a tag — makes an entry invalid; a fault of the final
        decryption propagates out of ``run_round``.  (The envelopes are read
        where they lie, with no parser to fault.)"""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x04" * 32)
        chain.accept_submissions(1, [good])

        def faulty(*args, **kwargs):
            raise RuntimeError("key derivation fault")

        monkeypatch.setattr(onion, "shared_keys_batch", faulty)
        with pytest.raises(RuntimeError, match="key derivation fault"):
            chain.run_round(1)

    def test_multiple_rounds_independent(self, group):
        chain = build_chain(group, length=2)
        recipient = KeyPair.generate(group)
        for round_number in (1, 2, 3):
            chain.begin_round(round_number)
            chain.accept_submissions(
                round_number,
                [make_submission(group, chain, round_number, "alice", recipient.public_bytes, b"\x05" * 32)],
            )
            result = chain.run_round(round_number)
            assert result.delivered
            assert len(result.mailbox_messages) == 1

    def test_replayed_submission_from_previous_round_rejected_or_dropped(self, group):
        """A ciphertext built for round 1 cannot be delivered in round 2 (nonce binding)."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        chain.begin_round(2)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x06" * 32)
        entries, rejected = chain.accept_submissions(2, [submission])
        if rejected:
            assert rejected == ["alice"]
        else:
            result = chain.run_round(2)
            # Either the round halts with blame pointing at the replayer, or
            # the message is dropped; it must not be delivered as round-2 mail.
            if result.delivered:
                assert len(result.mailbox_messages) == 0
            else:
                assert result.blame_verdict is not None


class TestPrecompute:
    def test_precompute_round_returns_blinded_keys_and_fills_table(self, group):
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        member = chain.members[0]
        publics = [group.base_mult(group.random_scalar()) for _ in range(3)]
        heads, blinded = member.precompute_rows(1, [group.encode(p) for p in publics], publics)
        assert blinded == [group.scalar_mult(p, member.blinding_secret) for p in publics]
        assert heads == [group.encode(point) for point in blinded]
        table = member.round_record(1).precomputed
        assert set(table) == {group.encode(p) for p in publics}
        for public in publics:
            assert table[group.encode(public)] == (
                group.encode(group.scalar_mult(public, member.blinding_secret)),
                outer_layer_key(group, group.scalar_mult(public, member.mixing_secret)),
            )

    def test_precompute_is_incremental_and_idempotent(self, group):
        chain = build_chain(group, length=1)
        chain.begin_round(1)
        member = chain.members[0]
        first = group.base_mult(group.random_scalar())
        second = group.base_mult(group.random_scalar())
        member.precompute_rows(1, [group.encode(first)], [first])
        table = member.round_record(1).precomputed
        row = table[group.encode(first)]
        both = [group.encode(first), group.encode(second)]
        member.precompute_rows(1, both, [first, second])  # tops up, same table object
        assert member.round_record(1).precomputed is table
        assert len(table) == 2 and table[group.encode(first)] == row

    def test_precompute_requires_key_setup(self, group):
        member = ChainMember("server-0", 0, 0, group, stream_key(1))
        with pytest.raises(ProtocolError):
            member.precompute_rows(1, [], [])

    def test_release_round_forgets_the_table_with_the_round(self, group):
        chain = build_chain(group, length=1)
        member = chain.members[0]
        public = group.base_mult(group.random_scalar())
        for round_number in (1, 2, 3):
            chain.begin_round(round_number)
            member.precompute_rows(round_number, [group.encode(public)], [public])
        member.release_round(1)
        assert sorted(member._rounds) == [2, 3]
        assert all(len(member.round_record(r).precomputed) == 1 for r in (2, 3))
        # Releasing a round the member never held is a no-op.
        member.release_round(99)

    def test_chain_precompute_cascade_feeds_every_member(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        submissions = _submissions(group, chain, 2)
        chain.precompute_round(1, submissions)
        expected = [group.decode(submission.dh_public) for submission in submissions]
        for member in chain.members:
            table = member.round_record(1).precomputed
            assert set(table) == {group.encode(p) for p in expected}
            expected = [group.scalar_mult(p, member.blinding_secret) for p in expected]
            assert [row[0] for row in table.values()] == [group.encode(p) for p in expected]

    def test_chain_precompute_decodes_only_what_member_zero_lacks(self, group, monkeypatch):
        """A repeat over the same batch decodes nothing; a top-up decodes
        only the new keys."""
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        submissions = _submissions(group, chain, 3)
        decoded = []
        decode_batch = group.decode_batch

        def counting(encodings):
            decoded.extend(encodings)
            return decode_batch(encodings)

        monkeypatch.setattr(group, "decode_batch", counting)
        chain.precompute_round(1, submissions[:2])
        assert decoded == [submission.dh_public for submission in submissions[:2]]
        tables = [dict(member.round_record(1).precomputed) for member in chain.members]
        del decoded[:]
        chain.precompute_round(1, submissions[:2])
        assert decoded == []
        assert [member.round_record(1).precomputed for member in chain.members] == tables
        chain.precompute_round(1, submissions)
        assert decoded == [submissions[2].dh_public]
        assert all(len(member.round_record(1).precomputed) == 3 for member in chain.members)

    def test_chain_precompute_skips_foreign_and_garbage(self, group):
        """Only this chain's decodable keys reach the tables; a batch that
        will fail its proofs still precomputes (the checks stay online)."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        good = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        foreign = ClientSubmission(99, "bob", good.dh_public, good.ciphertext, good.proof)
        garbage = ClientSubmission(0, "eve", b"\xff" * 32, good.ciphertext, good.proof)
        chain.precompute_round(1, [good, foreign, garbage])
        assert set(chain.members[0].round_record(1).precomputed) == {good.dh_public}


def _submissions(group, chain, count):
    recipient = KeyPair.generate(group)
    return [
        make_submission(
            group, chain, 1, f"user-{index}", recipient.public_bytes, bytes([index + 1]) * 32
        )
        for index in range(count)
    ]


def _tampered(group, batch, indices):
    """``batch`` with the first ciphertext byte of each entry in ``indices``
    flipped: a failed open, so the blame path."""
    entries = list(batch)
    for index in indices:
        entry = entries[index]
        entries[index] = BatchEntry(
            dh_public=entry.dh_public,
            ciphertext=bytes([entry.ciphertext[0] ^ 0xFF]) + entry.ciphertext[1:],
        )
    return EncodedBatch.from_entries(group, entries)


class TestPrecomputePropertyParity:
    """Hypothesis: precompute ahead of the online pass == no precompute.

    For arbitrary entry batches — valid submissions, tampered ciphertexts
    (the blame/failed-open path), or a mix — running ``precompute_rows``
    first must change nothing but when the keys were derived: the online
    pass of an identically-seeded twin fills its table itself and produces
    the same result.
    """

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_precompute_then_online_equals_process_round(self, group, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=0, max_value=4), label="entries")
        corrupt = data.draw(
            st.lists(st.booleans(), min_size=count, max_size=count), label="corrupt"
        )
        online = build_chain(group, length=2, seed=seed)
        precomputed = build_chain(group, length=2, seed=seed)
        online.begin_round(1)
        precomputed.begin_round(1)
        submissions = _submissions(group, online, count)
        tampered = [index for index, flag in enumerate(corrupt) if flag]

        def entries_for(chain):
            accepted, rejected = chain.accept_submissions(1, submissions)
            assert rejected == []
            return _tampered(group, accepted, tampered)

        entries = entries_for(online)
        twin_entries = entries_for(precomputed)
        member_online = online.members[0]
        member_pre = precomputed.members[0]
        _, blinded = member_pre.precompute_rows(
            1, entries.element_encodings(), entries.decode_publics()
        )
        assert blinded == [
            group.scalar_mult(entry.dh_public, member_pre.blinding_secret)
            for entry in entries
        ]
        aggregate = input_aggregate(precomputed, entries)
        result_pre = member_pre.process_round(1, twin_entries, aggregate)
        result_online = member_online.process_round(1, entries, aggregate)
        assert result_pre.position == result_online.position
        assert result_pre.entries.blob == result_online.entries.blob
        assert result_pre.proof == result_online.proof
        assert result_pre.failed_indices == result_online.failed_indices
        # The online pass filled exactly the table the precompute built.
        table = member_pre.round_record(1).precomputed
        assert len(table) == len({group.encode(entry.dh_public) for entry in entries})
        assert member_online.round_record(1).precomputed == table
        # Both twins read the same table code, so hold it to the per-entry
        # derivation: every layer key is the single-point one, and the opens
        # fail on exactly the tampered entries.
        for entry in entries:
            shared = group.scalar_mult(entry.dh_public, member_pre.mixing_secret)
            assert table[group.encode(entry.dh_public)][1] == outer_layer_key(group, shared)
        assert result_online.failed_indices == tampered

    @settings(max_examples=6, deadline=None)
    @given(st.data())
    def test_chain_level_precompute_parity_with_blame(self, group, data):
        """Whole-chain cascade parity, including halted/blamed rounds."""
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=1, max_value=4), label="entries")
        corrupt_index = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=count - 1)),
            label="corrupt_index",
        )
        online = build_chain(group, length=2, seed=seed)
        precomputed = build_chain(group, length=2, seed=seed)
        online.begin_round(1)
        precomputed.begin_round(1)
        submissions = _submissions(group, online, count)

        def run(chain, with_precompute):
            chain.accept_submissions(1, submissions)
            if corrupt_index is not None:
                chain._entries[1] = _tampered(group, chain._entries[1], [corrupt_index])
            if with_precompute:
                chain.precompute_round(1, submissions)
            return chain.run_round(1)

        result_online = run(online, with_precompute=False)
        result_pre = run(precomputed, with_precompute=True)
        assert result_pre.status == result_online.status
        assert [m.to_bytes() for m in result_pre.mailbox_messages] == [
            m.to_bytes() for m in result_online.mailbox_messages
        ]
        assert result_pre.rejected_senders == result_online.rejected_senders
        assert result_pre.invalid_inner_count == result_online.invalid_inner_count
        if result_online.blame_verdict is not None:
            assert result_pre.blame_verdict.to_bytes() == result_online.blame_verdict.to_bytes()


class TestContextHelpers:
    def test_contexts_are_distinct(self):
        assert setup_context(1, 2) != setup_context(2, 1)
        assert submission_context(1, 2, "a") != submission_context(1, 2, "b")
        assert submission_context(1, 2, "a") != submission_context(1, 3, "a")
