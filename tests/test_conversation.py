"""Tests for conversation state and the directional key schedule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.chain_selection import chains_for_user, intersection_chain
from repro.client.conversation import Conversation
from repro.client.user import User
from repro.crypto.group import ModPGroup
from repro.crypto.keys import KeyPair

MODP = ModPGroup(bits=64)


class TestConversationKeys:
    def test_both_sides_derive_matching_keys(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        alice_view = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        bob_view = Conversation.establish(group, bob, "alice", alice.public_bytes, 0)
        # Alice's "to partner" key must equal Bob's "to me" key and vice versa.
        assert alice_view.key_to_partner() == bob_view.key_to_me()
        assert bob_view.key_to_partner() == alice_view.key_to_me()

    def test_directional_keys_differ(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        conversation = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        assert conversation.key_to_partner() != conversation.key_to_me()

    def test_different_partners_different_keys(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        charlie = KeyPair.generate(group)
        with_bob = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        with_charlie = Conversation.establish(group, alice, "charlie", charlie.public_bytes, 0)
        assert with_bob.key_to_partner() != with_charlie.key_to_partner()

    def test_shared_secret_symmetric(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        alice_view = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        bob_view = Conversation.establish(group, bob, "alice", alice.public_bytes, 0)
        assert alice_view.shared_secret_bytes == bob_view.shared_secret_bytes


class TestConversationState:
    def test_establish_defaults(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        conversation = Conversation.establish(
            group, alice, "bob", bob.public_bytes, 0, established_round=4
        )
        assert conversation.active
        assert not conversation.partner_offline
        assert conversation.established_round == 4
        assert conversation.chain_id == 0
        assert conversation.partner_name == "bob"

    def test_mark_partner_offline(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        conversation = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        conversation.mark_partner_offline()
        assert conversation.partner_offline
        assert not conversation.active

    def test_end(self, group):
        alice = KeyPair.generate(group)
        bob = KeyPair.generate(group)
        conversation = Conversation.establish(group, alice, "bob", bob.public_bytes, 0)
        conversation.end()
        assert not conversation.active
        assert not conversation.partner_offline


class TestConversationChain:
    @given(st.integers(1, MODP.order - 1), st.integers(1, MODP.order - 1),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_both_partners_hold_their_intersection_chain(self, secret_a, secret_b, num_chains):
        """The chain fixed when two users agree to talk is the §5.3.2
        intersection chain, the same from either side, and one both send to."""
        alice = User("alice", MODP, KeyPair.from_secret(secret_a, MODP), bytes(32))
        bob = User("bob", MODP, KeyPair.from_secret(secret_b, MODP), bytes(32))
        expected = intersection_chain(alice.public_bytes, bob.public_bytes, num_chains)
        for me, partner in ((alice, bob), (bob, alice)):
            conversation = me.start_conversation(partner.name, partner.public_bytes, num_chains)
            chain_id = conversation.chain_id
            assert chain_id == expected
            assert chain_id in chains_for_user(alice.public_bytes, num_chains)
            assert chain_id in chains_for_user(bob.public_bytes, num_chains)
