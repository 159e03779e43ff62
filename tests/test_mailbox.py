"""Tests for mailboxes, mailbox servers, and the sharded hub."""

import pytest

from repro.errors import MailboxError
from repro.mailbox import Mailbox, MailboxServer, ShardedMailboxHub
from repro.mixnet.messages import MailboxBatch, MailboxMessage, MessageBody

OWNER = b"\x01" * 32
OTHER = b"\x02" * 32
KEY = b"\x09" * 32


def sealed(recipient=OWNER, round_number=1, content=b"hello"):
    return MailboxMessage.seal(recipient, KEY, round_number, MessageBody.data(content))


def batch(*messages):
    """A chain's delivery: the messages' records, as the hub receives them."""
    return MailboxBatch.from_records(message.to_bytes() for message in messages)


def _records(fetch):
    """A fetch batch's ``(owner, records)`` pairs, each record its bytes."""
    return [(owner, [message.to_bytes() for message in messages]) for owner, messages in fetch]


class TestMailbox:
    def test_put_get(self):
        mailbox = Mailbox(owner=OWNER)
        mailbox.put(1, sealed())
        assert len(mailbox.get(1)) == 1
        assert mailbox.message_count(1) == 1

    def test_wrong_owner_rejected(self):
        mailbox = Mailbox(owner=OWNER)
        with pytest.raises(MailboxError):
            mailbox.put(1, sealed(recipient=OTHER))

    def test_rounds_isolated(self):
        mailbox = Mailbox(owner=OWNER)
        mailbox.put(1, sealed())
        assert mailbox.get(2) == []

    def test_drain_removes(self):
        mailbox = Mailbox(owner=OWNER)
        mailbox.put(1, sealed())
        assert len(mailbox.drain(1)) == 1
        assert mailbox.get(1) == []

    def test_get_returns_copy(self):
        mailbox = Mailbox(owner=OWNER)
        mailbox.put(1, sealed())
        listing = mailbox.get(1)
        listing.clear()
        assert mailbox.message_count(1) == 1


class TestMailboxServer:
    def test_create_and_put(self):
        server = MailboxServer("mb-0")
        server.create_mailbox(OWNER)
        server.put(1, sealed())
        assert len(server.get(1, OWNER)) == 1
        assert OWNER in server
        assert server.owners() == [OWNER]

    def test_unknown_recipient_rejected(self):
        server = MailboxServer("mb-0")
        with pytest.raises(MailboxError):
            server.put(1, sealed())
        with pytest.raises(MailboxError):
            server.get(1, OWNER)

    def test_grouped_delivery_counts_unknown_recipients_as_dropped(self):
        server = MailboxServer("mb-0")
        server.create_mailbox(OWNER)
        groups = {OWNER: [sealed(content=b"a").to_bytes(), sealed(content=b"b").to_bytes()],
                  OTHER: [sealed(recipient=OTHER).to_bytes()] * 3}
        assert server.deliver_grouped(1, groups) == 3
        assert server.get(1, OWNER) == groups[OWNER]
        assert OTHER not in server
        assert server.deliver_grouped(2, {}) == 0

    def test_create_idempotent(self):
        server = MailboxServer("mb-0")
        first = server.create_mailbox(OWNER)
        second = server.create_mailbox(OWNER)
        assert first is second


class TestMailboxHub:
    def test_sharding_is_stable(self):
        hub = ShardedMailboxHub(num_servers=4)
        hub.create_mailbox(OWNER)
        hub.put(1, sealed())
        assert len(hub.get(1, OWNER)) == 1

    def test_all_shards_used(self):
        hub = ShardedMailboxHub(num_servers=4)
        owners = [bytes([index]) * 32 for index in range(1, 60)]
        for owner in owners:
            hub.create_mailbox(owner)
        populated = [server for server in hub.servers if server.owners()]
        assert len(populated) == 4

    def test_deliver_batch_counts_unknown(self):
        hub = ShardedMailboxHub(num_servers=2)
        hub.create_mailbox(OWNER)
        dropped = hub.deliver_batch(1, batch(sealed(), sealed(recipient=OTHER)))
        assert dropped == 1
        assert len(hub.get(1, OWNER)) == 1

    def test_message_counts(self):
        hub = ShardedMailboxHub()
        hub.create_mailbox(OWNER)
        hub.create_mailbox(OTHER)
        hub.put(1, sealed())
        counts = hub.message_counts(1, [OWNER, OTHER])
        assert counts == {OWNER: 1, OTHER: 0}

    def test_invalid_server_count(self):
        with pytest.raises(MailboxError):
            ShardedMailboxHub(num_servers=0)


class TestConsistentHashing:
    """The consistent-hash shard map and the batched delivery/fetch flows."""

    @staticmethod
    def owners(count):
        return [index.to_bytes(2, "big") * 16 for index in range(1, count + 1)]

    def test_mapping_is_deterministic_across_instances(self):
        first = ShardedMailboxHub(num_servers=5)
        second = ShardedMailboxHub(num_servers=5)
        for owner in self.owners(50):
            assert first.server_name_for(owner) == second.server_name_for(owner)

    def test_owner_cache_matches_ring_walk(self):
        hub = ShardedMailboxHub(num_servers=4)
        for owner in self.owners(40):
            before = hub.server_name_for(owner)  # ring walk (uncached)
            hub.create_mailbox(owner)            # fills the cache
            assert hub.server_name_for(owner) == before

    def test_adding_a_shard_moves_few_owners(self):
        """The consistent-hashing property: growing n → n+1 shards remaps
        roughly 1/(n+1) of the owners, not almost all of them."""
        owners = self.owners(400)
        small = ShardedMailboxHub(num_servers=4)
        grown = ShardedMailboxHub(num_servers=5)
        moved = sum(
            small.server_name_for(owner) != grown.server_name_for(owner)
            for owner in owners
        )
        # Expectation is 1/5 of 400 = 80; allow generous slack, but far
        # below the near-total reshuffle of modulo hashing.
        assert moved < len(owners) // 2

    def test_shard_loads_are_roughly_balanced(self):
        hub = ShardedMailboxHub(num_servers=4)
        for owner in self.owners(400):
            hub.create_mailbox(owner)
        loads = sorted(len(server.owners()) for server in hub.servers)
        assert loads[0] > 0
        assert loads[-1] < 3 * (400 // 4)

    def test_batched_delivery_matches_sequential_puts(self):
        owners = self.owners(12)
        batched = ShardedMailboxHub(num_servers=3)
        sequential = ShardedMailboxHub(num_servers=3)
        for owner in owners:
            batched.create_mailbox(owner)
            sequential.create_mailbox(owner)
        messages = [sealed(recipient=owner) for owner in owners for _ in range(2)]
        messages.append(sealed(recipient=b"\xfe" * 32))  # unknown recipient
        dropped = batched.deliver_batch(1, batch(*messages))
        sequential_dropped = 0
        for message in messages:
            try:
                sequential.put(1, message)
            except MailboxError:
                sequential_dropped += 1
        assert dropped == sequential_dropped == 1
        for owner in owners:
            assert batched.get(1, owner) == sequential.get(1, owner)

    def test_fetch_batch_returns_the_gets_then_drains(self):
        hub = ShardedMailboxHub(num_servers=2)
        owners = self.owners(6)
        for owner in owners:
            hub.create_mailbox(owner)
        hub.deliver_batch(2, batch(
            sealed(recipient=owners[0], round_number=2),
            sealed(recipient=owners[0], round_number=2, content=b"again"),
            sealed(recipient=owners[3], round_number=2),
            sealed(recipient=owners[5], round_number=2),
        ))
        hub.deliver_batch(3, batch(sealed(recipient=owners[0], round_number=3)))
        # owners[0] twice in one frame; owners[5] is offline and not fetched.
        fetched = [owners[0], owners[1], owners[3], owners[0]]
        expected = [(owner, hub.get(2, owner)) for owner in fetched]
        assert _records(hub.fetch_batch(2, fetched)) == expected
        assert len(expected[0][1]) == 2 and expected[3] == expected[0]
        for owner in fetched:
            assert hub.get(2, owner) == []
        assert _records(hub.fetch_batch(2, fetched)) == [(owner, []) for owner in fetched]
        # An unfetched owner keeps her round; later rounds are untouched.
        assert len(hub.get(2, owners[5])) == 1
        assert len(hub.get(3, owners[0])) == 1
        # Back online, her next fetch also drops the round she missed.
        assert _records(hub.fetch_batch(3, [owners[5]])) == [(owners[5], [])]
        assert hub.get(2, owners[5]) == []
        held = {
            (mailbox.owner, round_number)
            for server in hub.servers
            for mailbox in server._mailboxes.values()
            for round_number in mailbox._rounds
        }
        assert held == {(owners[0], 3)}

    def test_shard_owners_partitions_and_preserves_order(self):
        hub = ShardedMailboxHub(num_servers=3)
        owners = self.owners(30)
        for owner in owners:
            hub.create_mailbox(owner)
        groups = hub.shard_owners(owners)
        flattened = [owner for _, group in groups for owner in group]
        assert sorted(flattened) == sorted(owners)
        for server, group in groups:
            for owner in group:
                assert hub.server_name_for(owner) == server.name
            assert group == [o for o in owners if hub.server_name_for(o) == server.name]

    def test_put_batch_rejects_foreign_recipient(self):
        mailbox = Mailbox(owner=OWNER)
        with pytest.raises(MailboxError):
            mailbox.put_batch(1, [sealed().to_bytes(), sealed(recipient=OTHER).to_bytes()])
        mailbox.put_batch(1, [sealed().to_bytes(), sealed().to_bytes()])
        assert mailbox.message_count(1) == 2
