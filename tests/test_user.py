"""The user agent's chain assignment, and the per-user oracle's message
building and mailbox decryption (``tests/user_oracle.py``) through real chains."""

import pytest

from repro.client.chain_selection import ell_for_chains, intersection_chain
from repro.client.user import ChainKeysView, ReceivedMessage, User
from repro.errors import ConfigurationError, ProtocolError
from repro.mixnet.messages import MailboxMessage, MessageBody
from repro.crypto.kdf import loopback_key

from tests.test_ahs_protocol import build_chain
from tests.user_oracle import (
    build_cover_submissions,
    build_round_submissions,
    decrypt_mailbox,
    seal_conversation,
)


def chain_views(group, num_chains, round_number, length=2):
    """Build real chains and return (chains, views dict) for message construction."""
    chains = [build_chain(group, length=length, chain_id=chain_id, seed=50 + chain_id) for chain_id in range(num_chains)]
    views = {}
    for chain in chains:
        chain.begin_round(round_number)
        views[chain.chain_id] = ChainKeysView(
            chain_id=chain.chain_id,
            mixing_publics=chain.public_keys.mixing_publics,
            aggregate_inner_public=chain.aggregate_inner_public(round_number),
        )
    return chains, views


class TestChainAssignment:
    def test_assigned_chain_count_is_ell(self, group):
        user = User("alice", group)
        for num_chains in (1, 3, 6, 10, 45):
            assert len(user.assigned_chains(num_chains)) == ell_for_chains(num_chains)

    def test_assignment_deterministic(self, group):
        user = User("alice", group)
        assert user.assigned_chains(10) == user.assigned_chains(10)

    def test_conversation_chain_is_shared(self, group):
        alice, bob = User("alice", group), User("bob", group)
        shared = alice.start_conversation("bob", bob.public_bytes, 10).chain_id
        assert shared in alice.assigned_chains(10)
        assert shared == intersection_chain(alice.public_bytes, bob.public_bytes, 10)

    def test_no_conversation_chain_when_idle(self, group):
        alice = User("alice", group)
        assert alice.conversation is None
        assert not alice.in_conversation()

    def test_a_new_partner_moves_the_chain(self, group):
        """Replacing the conversation fixes the chain shared with the new
        partner; the old partner's chain goes with the old conversation."""
        num_chains = 40
        alice, bob, carol = User("alice", group), User("bob", group), User("carol", group)
        with_bob = alice.start_conversation("bob", bob.public_bytes, num_chains)
        with_carol = alice.start_conversation("carol", carol.public_bytes, num_chains)
        assert alice.conversation is with_carol
        assert with_bob.chain_id == intersection_chain(alice.public_bytes, bob.public_bytes, num_chains)
        assert with_carol.chain_id == intersection_chain(
            alice.public_bytes, carol.public_bytes, num_chains
        )


class TestSubmissionBuilding:
    def test_idle_user_sends_all_loopbacks(self, group):
        num_chains = 3
        _, views = chain_views(group, num_chains, 1)
        user = User("alice", group)
        submissions = build_round_submissions(user, 1, num_chains, views)
        assert len(submissions) == ell_for_chains(num_chains)
        assert sorted(s.chain_id for s in submissions) == sorted(user.assigned_chains(num_chains))
        assert all(s.sender == "alice" for s in submissions)

    def test_conversing_user_sends_same_number_of_messages(self, group):
        """Traffic pattern must be identical whether or not the user converses (§4.1)."""
        num_chains = 3
        _, views = chain_views(group, num_chains, 1)
        alice, bob = User("alice", group), User("bob", group)
        idle = build_round_submissions(alice, 1, num_chains, views)
        alice.start_conversation("bob", bob.public_bytes, num_chains)
        talking = build_round_submissions(alice, 1, num_chains, views, payload=b"hi")
        assert len(idle) == len(talking)
        assert [s.chain_id for s in idle] == [s.chain_id for s in talking]
        assert all(len(i.ciphertext) == len(t.ciphertext) for i, t in zip(idle, talking))

    def test_missing_chain_keys_rejected(self, group):
        user = User("alice", group)
        with pytest.raises(ConfigurationError):
            build_round_submissions(user, 1, 3, {})

    def test_cover_submissions_look_like_live_ones(self, group):
        """A cover set is shaped like the live round it stands in for (§5.3.3):
        the same chains and sizes, from draws of its own."""
        num_chains = 3
        _, views = chain_views(group, num_chains, 2)
        user = User("alice", group)
        covers = build_cover_submissions(user, 2, num_chains, views)
        live = build_round_submissions(user, 2, num_chains, views)
        assert len(covers) == ell_for_chains(num_chains)
        assert [s.chain_id for s in covers] == [s.chain_id for s in live]
        assert [len(s.to_bytes()) for s in covers] == [len(s.to_bytes()) for s in live]
        assert all(cover.dh_public != s.dh_public for cover, s in zip(covers, live))

    def test_sealing_conversation_without_partner_fails(self, group):
        user = User("alice", group)
        with pytest.raises(ProtocolError):
            seal_conversation(user, 1, MessageBody.data(b"x"))


class TestEndToEndThroughRealChains:
    def test_conversation_delivery_and_classification(self, group):
        num_chains = 3
        round_number = 1
        chains, views = chain_views(group, num_chains, round_number)
        alice, bob = User("alice", group), User("bob", group)
        alice.start_conversation("bob", bob.public_bytes, num_chains)
        bob.start_conversation("alice", alice.public_bytes, num_chains)

        per_chain = {chain.chain_id: [] for chain in chains}
        for user, payload in ((alice, b"hello bob"), (bob, b"hello alice")):
            for submission in build_round_submissions(user, round_number, num_chains, views, payload=payload):
                per_chain[submission.chain_id].append(submission)

        delivered = []
        for chain in chains:
            chain.accept_submissions(round_number, per_chain[chain.chain_id])
            result = chain.run_round(round_number)
            assert result.delivered
            delivered.extend(result.mailbox_messages)

        alice_mail = [m for m in delivered if m.recipient == alice.public_bytes]
        bob_mail = [m for m in delivered if m.recipient == bob.public_bytes]
        ell = ell_for_chains(num_chains)
        assert len(alice_mail) == ell
        assert len(bob_mail) == ell

        alice_received = decrypt_mailbox(alice, round_number, alice_mail, num_chains)
        conversation = [m for m in alice_received if m.kind == ReceivedMessage.KIND_CONVERSATION]
        loopbacks = [m for m in alice_received if m.kind == ReceivedMessage.KIND_LOOPBACK]
        assert [m.content for m in conversation] == [b"hello alice"]
        assert len(loopbacks) == ell - 1

    def test_offline_notice_classification(self, group):
        num_chains = 3
        chains, views = chain_views(group, num_chains, 1)
        alice, bob = User("alice", group), User("bob", group)
        alice.start_conversation("bob", bob.public_bytes, num_chains)
        bob.start_conversation("alice", alice.public_bytes, num_chains)
        submissions = build_round_submissions(alice, 1, num_chains, views, offline_notice=True)
        per_chain = {chain.chain_id: [] for chain in chains}
        for submission in submissions:
            per_chain[submission.chain_id].append(submission)
        delivered = []
        for chain in chains:
            chain.accept_submissions(1, per_chain[chain.chain_id])
            delivered.extend(chain.run_round(1).mailbox_messages)
        bob_mail = [m for m in delivered if m.recipient == bob.public_bytes]
        received = decrypt_mailbox(bob, 1, bob_mail, num_chains)
        assert any(m.kind == ReceivedMessage.KIND_OFFLINE_NOTICE for m in received)
        assert bob.conversation.partner_offline
        assert not bob.conversation.active


class TestMailboxDecryption:
    def test_loopback_classified(self, group):
        user = User("alice", group)
        chain_id = user.assigned_chains(3)[0]
        key = loopback_key(user.keypair.identity_secret_bytes(), chain_id)
        message = MailboxMessage.seal(user.public_bytes, key, 1, MessageBody.loopback())
        received = decrypt_mailbox(user, 1, [message], 3)
        assert received[0].kind == ReceivedMessage.KIND_LOOPBACK
        assert received[0].chain_id == chain_id

    def test_unreadable_message_flagged(self, group):
        user = User("alice", group)
        message = MailboxMessage.seal(user.public_bytes, b"\x55" * 32, 1, MessageBody.data(b"x"))
        received = decrypt_mailbox(user, 1, [message], 3)
        assert received[0].kind == ReceivedMessage.KIND_UNREADABLE

    def test_message_for_other_user_flagged(self, group):
        user = User("alice", group)
        other = User("bob", group)
        key = loopback_key(other.keypair.identity_secret_bytes(), 0)
        message = MailboxMessage.seal(other.public_bytes, key, 1, MessageBody.loopback())
        received = decrypt_mailbox(user, 1, [message], 3)
        assert received[0].kind == ReceivedMessage.KIND_UNREADABLE

    def test_conversation_payload_decrypted(self, group):
        alice, bob = User("alice", group), User("bob", group)
        alice.start_conversation("bob", bob.public_bytes, 3)
        bob.start_conversation("alice", alice.public_bytes, 3)
        sealed = seal_conversation(bob, 4, MessageBody.data(b"round 4 text"))
        received = decrypt_mailbox(alice, 4, [sealed], 3)
        assert received[0].kind == ReceivedMessage.KIND_CONVERSATION
        assert received[0].content == b"round 4 text"
        assert received[0].partner_name == "bob"
