"""Tests for the blame protocol (§6.4): convict the guilty, never the honest."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead, nizk
from repro.crypto.keys import KeyPair
from repro.errors import BlameError
from repro.mixnet.ahs import ChainRoundResult
from repro.mixnet.blame import BlameVerdict, run_blame_protocol
from repro.mixnet.messages import EncodedBatch
from repro.coordinator.adversary import (
    LIE_BLINDING_PROOF,
    LIE_INPUT_INDEX,
    LIE_KEY_PROOF,
    LIE_PREIMAGE,
    LIE_REFUSE,
    MODE_BREAK_AGGREGATE,
    MODE_PRESERVE_AGGREGATE,
    MODE_TAMPER_CIPHERTEXT,
    LyingRevealMember,
    TamperingMember,
    forge_misauthenticated_submission,
)
from repro.client.user import ChainKeysView

from tests.conftest import forbid, native_dispatches, needs_native
from tests.blame_oracle import (
    reference_blame_protocol,
    reference_blame_reveal,
    reference_key_reveal,
)
from tests.test_ahs_protocol import build_chain, input_aggregate, make_submission


def keys_view(chain, round_number):
    return ChainKeysView(
        chain_id=chain.chain_id,
        mixing_publics=chain.public_keys.mixing_publics,
        aggregate_inner_public=chain.aggregate_inner_public(round_number),
    )


class TestMaliciousUserConviction:
    def test_user_failing_at_last_server_is_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x01" * 32)
            for index in range(3)
        ]
        bad = forge_misauthenticated_submission(group, keys_view(chain, 1), 1, "mallory")
        chain.accept_submissions(1, honest + [bad])
        result = chain.run_round(1)
        assert result.delivered
        assert "mallory" in result.rejected_senders
        assert result.blame_verdict is not None
        assert result.blame_verdict.malicious_users == ["mallory"]
        assert result.blame_verdict.malicious_servers == []
        # Honest traffic still goes through after the retry.
        assert len(result.mailbox_messages) == 3

    def test_user_failing_mid_chain_is_convicted(self, group):
        chain = build_chain(group, length=4)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x02" * 32)
        bad = forge_misauthenticated_submission(
            group, keys_view(chain, 1), 1, "mallory", fail_at_position=2
        )
        chain.accept_submissions(1, [honest, bad])
        result = chain.run_round(1)
        assert result.delivered
        assert result.blame_verdict.malicious_users == ["mallory"]

    def test_user_failing_at_first_server_is_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x03" * 32)
        bad = forge_misauthenticated_submission(
            group, keys_view(chain, 1), 1, "mallory", fail_at_position=0
        )
        chain.accept_submissions(1, [honest, bad])
        result = chain.run_round(1)
        assert result.delivered
        assert result.blame_verdict.malicious_users == ["mallory"]

    def test_multiple_malicious_users_all_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x04" * 32)
            for index in range(2)
        ]
        bad = [
            forge_misauthenticated_submission(group, keys_view(chain, 1), 1, f"mallory-{index}")
            for index in range(3)
        ]
        chain.accept_submissions(1, honest + bad)
        result = chain.run_round(1)
        assert result.delivered
        assert sorted(result.blame_verdict.malicious_users) == [
            "mallory-0",
            "mallory-1",
            "mallory-2",
        ]
        assert len(result.mailbox_messages) == 2


class TestMaliciousServerConviction:
    def _tampered_chain(self, group, mode, position=0, length=3, seed=21):
        chain = build_chain(group, length=length, seed=seed)
        chain.members[position] = TamperingMember(chain.members[position], mode)
        return chain

    def test_ciphertext_tampering_convicts_server(self, group):
        chain = self._tampered_chain(group, MODE_TAMPER_CIPHERTEXT, position=0)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x05" * 32)
            for index in range(3)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-0"]
        assert result.blame_verdict.malicious_users == []

    def test_aggregate_preserving_tampering_convicts_server(self, group):
        """Fixing the aggregate does not help: per-message DLEQs in blame catch it."""
        chain = self._tampered_chain(group, MODE_PRESERVE_AGGREGATE, position=0)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x06" * 32)
            for index in range(4)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-0"]
        assert result.blame_verdict.malicious_users == []

    def test_middle_server_tampering_convicted(self, group):
        chain = self._tampered_chain(group, MODE_TAMPER_CIPHERTEXT, position=1, length=4)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x07" * 32)
            for index in range(3)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-1"]

    @pytest.mark.parametrize("mode, status", (
        (MODE_TAMPER_CIPHERTEXT, ChainRoundResult.STATUS_HALTED_BLAME),
        (MODE_BREAK_AGGREGATE, ChainRoundResult.STATUS_HALTED_SERVER),
    ))
    def test_a_halted_round_deletes_every_inner_key(self, group, mode, status):
        """§6.4: a round that will not deliver loses its inner keys on every
        server, so its inner envelopes can never be opened; the records
        blame reads stay."""
        chain = self._tampered_chain(group, mode)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        chain.accept_submissions(1, [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x09" * 32)
            for index in range(3)
        ])
        assert chain.run_round(1).status == status
        for member in chain.members:
            assert member.round_record(1).inner_secret is None
        assert chain.members[0].round_record(1).inputs is not None

    def test_honest_users_never_convicted_by_tampering_server(self, group):
        """Whatever a tampering server does, no honest user ends up convicted."""
        for mode in (MODE_TAMPER_CIPHERTEXT, MODE_PRESERVE_AGGREGATE):
            chain = self._tampered_chain(group, mode, position=0)
            chain.begin_round(1)
            recipient = KeyPair.generate(group)
            submissions = [
                make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x08" * 32)
                for index in range(3)
            ]
            chain.accept_submissions(1, submissions)
            result = chain.run_round(1)
            assert result.blame_verdict is not None
            assert result.blame_verdict.malicious_users == []


class TestBlameProtocolDirect:
    def test_invalid_accusing_position(self, group):
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        chain.accept_submissions(1, [])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, accusing_position=5, flagged_input_indices=[0], history=[EncodedBatch.from_entries(group, [])])

    def test_history_must_cover_accuser(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        chain.accept_submissions(1, [])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, accusing_position=2, flagged_input_indices=[0], history=[EncodedBatch.from_entries(group, [])])

    def test_flagged_index_out_of_range(self, group):
        chain = build_chain(group, length=1)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, 0, [5], [entries])

    def test_false_accusation_convicts_accuser_not_user(self, group):
        """An honest user's ciphertext decrypts fine, so accusing her backfires (§6.4)."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        # Server 0 processes the batch normally, then falsely accuses Alice's
        # (perfectly valid) submission anyway.
        chain.members[0].process_round(1, entries, input_aggregate(chain, entries))
        verdict = run_blame_protocol(
            chain, 1, accusing_position=0, flagged_input_indices=[0], history=[entries]
        )
        assert verdict.malicious_users == []
        assert verdict.malicious_servers == ["server-0"]
        assert verdict.false_accusations == 1

    def test_accusation_without_processing_also_backfires(self, group):
        """A server that accuses without even revealing a consistent key is convicted."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        verdict = run_blame_protocol(
            chain, 1, accusing_position=0, flagged_input_indices=[0], history=[entries]
        )
        assert verdict.malicious_users == []
        assert verdict.malicious_servers == ["server-0"]

    def test_verdict_dataclass(self):
        verdict = BlameVerdict(chain_id=0, round_number=1)
        assert not verdict.identified
        verdict.malicious_users.append("mallory")
        assert verdict.identified


# -- the batched walk against the per-ciphertext reference ----------------------

def populate(chain, round_number, honest, forged, seed=5):
    """Begin the round and accept ``honest`` good submissions plus one forgery
    per entry of ``forged`` (the position each fails at; ``None`` = the last).
    Reproducible: two chains built alike accept identical batches."""
    group = chain.group
    rng = random.Random(seed)
    chain.begin_round(round_number)
    recipient = KeyPair.from_secret(group.random_scalar(rng), group)
    submissions = [
        make_submission(
            group, chain, round_number, f"user-{index}", recipient.public_bytes,
            b"\x09" * 32, rng=rng,
        )
        for index in range(honest)
    ] + [
        forge_misauthenticated_submission(
            group, keys_view(chain, round_number), round_number, f"mallory-{index}",
            fail_at_position=position,
        )
        for index, position in enumerate(forged)
    ]
    rng.shuffle(submissions)
    return chain.accept_submissions(round_number, submissions)[0]


def mix_to(chain, round_number, position, entries):
    """Run members ``0 … position`` over the accepted batch ``entries``, as
    ``run_round`` would; returns member ``position``'s step result and the
    history so far."""
    history = [entries]
    for member in chain.members[:position]:
        entries = member.process_round(
            round_number, entries, input_aggregate(chain, entries)
        ).entries
        history.append(entries)
    member = chain.members[position]
    return member.process_round(round_number, entries, input_aggregate(chain, entries)), history


def draw_counters(chain, round_number):
    return [member.round_record(round_number).draws for member in chain.members]


class TestBatchedWalkMatchesReference:
    """``run_blame_protocol`` against ``tests/blame_oracle.py``: same verdict
    bytes, and every member's round draw counter left where the
    per-ciphertext walk leaves it (so the re-mix after blame shuffles
    identically)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_verdict_and_draw_counters(self, group, data):
        length = data.draw(st.integers(1, 4), label="chain length")
        accusing = data.draw(st.integers(0, length - 1), label="accusing position")
        honest = data.draw(st.integers(0, 3), label="honest submissions")
        # Forgeries failing at the accuser are fair accusations; ones failing
        # further down still open there, so accusing them is as false as
        # accusing an honest user.
        forged = data.draw(
            st.lists(st.integers(accusing, length - 1), max_size=4), label="forgeries fail at"
        )
        tamper = None
        if accusing and honest + len(forged) >= 2:
            tamper = data.draw(
                st.none() | st.sampled_from([MODE_TAMPER_CIPHERTEXT, MODE_PRESERVE_AGGREGATE]),
                label="upstream tampering",
            )
        target = data.draw(st.integers(0, 7), label="tampering target")
        seed = data.draw(st.integers(0, 2**16), label="seed")

        chains, histories = [], []
        for _ in range(2):
            chain = build_chain(group, length=length, seed=seed)
            if tamper is not None:
                chain.members[accusing - 1] = TamperingMember(
                    chain.members[accusing - 1], tamper, target_index=target
                )
            entries = populate(chain, 1, honest, forged, seed=seed)
            _, history = mix_to(chain, 1, accusing, entries)
            chains.append(chain)
            histories.append(history)
        size = len(histories[0][accusing])
        flagged = data.draw(
            st.lists(st.integers(0, size - 1), max_size=size + 2) if size else st.just([]),
            label="flagged (any subset, any order, repeats allowed)",
        )
        verdict = run_blame_protocol(chains[0], 1, accusing, flagged, histories[0])
        reference = reference_blame_protocol(chains[1], 1, accusing, flagged, histories[1])
        assert verdict.to_bytes() == reference.to_bytes()
        assert draw_counters(chains[0], 1) == draw_counters(chains[1], 1)

    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_reveals_are_the_reference_reveals(self, request, group_name, tier):
        """Same nonces, same proofs, same keys: a member's batch reveal is,
        column for column, the per-ciphertext reveal."""
        group = request.getfixturevalue(group_name)
        chains = [build_chain(group, length=2, seed=3) for _ in range(2)]
        for chain in chains:
            entries = populate(chain, 1, honest=1, forged=[None, None])
            result, _ = mix_to(chain, 1, 1, entries)
        flagged = result.failed_indices
        assert len(flagged) == 2
        accuser, upstream = chains[0].members[1], chains[0].members[0]
        keys = accuser.reveal_decryption_keys(1, flagged)
        reveals = upstream.blame_reveals(1, flagged)
        for column, index in enumerate(flagged):
            expected = reference_key_reveal(chains[1].members[1], 1, index)
            entry = keys.preimages[column]
            assert (entry.dh_public, entry.ciphertext) == (expected.dh_public, expected.ciphertext)
            assert keys.decryption_keys[column] == expected.decryption_key
            assert keys.key_proofs[column] == expected.key_proof
            expected = reference_blame_reveal(chains[1].members[0], 1, index)
            entry = reveals.preimages[column]
            assert (entry.dh_public, entry.ciphertext) == (expected.dh_public, expected.ciphertext)
            assert reveals.input_indices[column] == expected.input_index
            assert reveals.decryption_keys[column] == expected.decryption_key
            assert reveals.blinding_proofs[column] == expected.blinding_proof
            assert reveals.key_proofs[column] == expected.key_proof
        assert draw_counters(chains[0], 1) == draw_counters(chains[1], 1)


class TestLyingReveals:
    """One flagged batch, one lie: the ciphertext whose reveal a server lies
    about convicts that server; the rest walk on and convict their users."""

    LIES = (LIE_INPUT_INDEX, LIE_PREIMAGE, LIE_BLINDING_PROOF, LIE_KEY_PROOF)

    def _halted(self, group, seed=17):
        chain = build_chain(group, length=3, seed=seed)
        entries = populate(chain, 1, honest=2, forged=[None, None, None], seed=seed)
        result, history = mix_to(chain, 1, 2, entries)
        assert len(result.failed_indices) == 3
        return chain, result.failed_indices, history

    def _output_index(self, chain, position, flagged_index):
        """Where the ciphertext flagged at the last hop sits in ``position``'s output."""
        for member in chain.members[2 - 1:position:-1]:
            flagged_index = member.round_record(1).permutation[flagged_index]
        return flagged_index

    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("lie", LIES)
    def test_one_lie_convicts_the_server_for_that_ciphertext_only(
        self, request, group_name, tier, position, lie
    ):
        group = request.getfixturevalue(group_name)
        chain, flagged, history = self._halted(group)
        honest_chain, _, honest_history = self._halted(group)
        users = run_blame_protocol(honest_chain, 1, 2, flagged, honest_history).malicious_users
        assert len(users) == 3
        target = 1  # the second flagged ciphertext
        chain.members[position] = LyingRevealMember(
            chain.members[position], lie, self._output_index(chain, position, flagged[target])
        )
        verdict = run_blame_protocol(chain, 1, 2, flagged, history)
        assert verdict.malicious_servers == [f"server-{position}"]
        assert verdict.malicious_users == [users[0], users[2]]
        assert verdict.false_accusations == 0 and verdict.examined_ciphertexts == 3

    @pytest.mark.parametrize("position", [0, 1])
    def test_refusing_server_is_convicted_for_everything_it_was_asked(self, group, position):
        chain, flagged, history = self._halted(group)
        chain.members[position] = LyingRevealMember(chain.members[position], LIE_REFUSE)
        verdict = run_blame_protocol(chain, 1, 2, flagged, history)
        assert verdict.malicious_servers == [f"server-{position}"]
        assert verdict.malicious_users == []

    @pytest.mark.parametrize("lie", LIES)
    def test_lying_about_everything(self, group, lie):
        chain, flagged, history = self._halted(group)
        chain.members[1] = LyingRevealMember(chain.members[1], lie)
        verdict = run_blame_protocol(chain, 1, 2, flagged, history)
        assert (verdict.malicious_servers, verdict.malicious_users) == (["server-1"], [])

    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_tampered_ciphertext_among_forgeries(self, request, group_name, tier):
        """The fifth rejection: server 1 reveals honestly, but what it revealed
        does not open to the ciphertext it handed on.  The two forgeries that
        fail at the same hop still convict their users."""
        group = request.getfixturevalue(group_name)
        twin = build_chain(group, length=3, seed=23)
        entries = populate(twin, 1, honest=3, forged=[None, None], seed=23)
        forgeries = mix_to(twin, 1, 2, entries)[0].failed_indices
        target = next(index for index in range(5) if index not in forgeries)  # an honest user's
        chain = build_chain(group, length=3, seed=23)
        chain.members[1] = TamperingMember(
            chain.members[1], MODE_TAMPER_CIPHERTEXT, target_index=target
        )
        populate(chain, 1, honest=3, forged=[None, None], seed=23)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.examined_ciphertexts == 3
        assert result.blame_verdict.malicious_servers == ["server-1"]
        assert sorted(result.blame_verdict.malicious_users) == ["mallory-0", "mallory-1"]


# -- the clock-free performance guard ---------------------------------------------


class TestBatchedPathsStayBatched:
    """What a blame walk and an intake cost is a number of kernel dispatches
    that does not depend on how many ciphertexts they cover."""

    SIZES = (1, 8, 40)

    @needs_native
    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_blame_dispatches_do_not_grow_with_the_flagged_set(self, request, group_name):
        group = request.getfixturevalue(group_name)
        seen = []
        for size in self.SIZES:
            chain = build_chain(group, length=3)
            entries = populate(chain, 1, honest=2, forged=[None] * size)
            result, history = mix_to(chain, 1, 2, entries)
            with native_dispatches() as counts:
                verdict = run_blame_protocol(chain, 1, 2, result.failed_indices, history)
            assert len(verdict.malicious_users) == size
            seen.append(counts)
        assert seen[0] == seen[1] == seen[2]
        assert seen[0]  # the guard is counting something

    @needs_native
    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_intake_dispatches_do_not_grow_with_the_batch(self, request, group_name):
        group = request.getfixturevalue(group_name)
        seen = []
        for size in self.SIZES:
            chain = build_chain(group, length=2)
            chain.begin_round(1)
            forged = [
                forge_misauthenticated_submission(group, keys_view(chain, 1), 1, f"user-{index}")
                for index in range(size)
            ]
            with native_dispatches() as counts:
                entries, rejected = chain.accept_submissions(1, forged)
            assert (len(entries), rejected) == (size, [])
            seen.append(counts)
        assert seen[0] == seen[1] == seen[2]
        assert seen[0]

    VERIFIERS = (aead.adec, nizk.verify_dleq, nizk.verify_dlog)

    def test_no_per_item_crypto_on_either_path(self, group, monkeypatch):
        chain = build_chain(group, length=3)
        forbid(monkeypatch, *self.VERIFIERS)
        chain.begin_round(1)
        forged = [
            forge_misauthenticated_submission(group, keys_view(chain, 1), 1, f"mallory-{index}")
            for index in range(3)
        ]
        forbid(monkeypatch, nizk.prove_dleq)
        entries, rejected = chain.accept_submissions(1, forged)
        assert (len(entries), rejected) == (3, [])
        monkeypatch.undo()
        forbid(monkeypatch, *self.VERIFIERS)  # each mix step proves its one aggregate proof
        result, history = mix_to(chain, 1, 2, entries)
        forbid(monkeypatch, nizk.prove_dleq)
        verdict = run_blame_protocol(chain, 1, 2, result.failed_indices, history)
        assert len(verdict.malicious_users) == 3

    def test_no_per_item_verification_in_a_whole_round(self, group, monkeypatch):
        """Announcing, intake, every hop's check, blame, the re-mix and the
        inner opens: the chain verifies nothing item by item."""
        chain = build_chain(group, length=3)
        forbid(monkeypatch, *self.VERIFIERS)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x01" * 32)
            for index in range(2)
        ]
        forged = forge_misauthenticated_submission(group, keys_view(chain, 1), 1, "mallory")
        chain.accept_submissions(1, honest + [forged])
        result = chain.run_round(1)
        assert result.delivered and result.rejected_senders == ["mallory"]
        assert len(result.mailbox_messages) == 2
