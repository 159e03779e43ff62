"""Mailboxes and mailbox servers (§5.1).

Every user owns exactly one mailbox, publicly identified by her encoded
public key.  Mailbox servers expose only *put* and *get*; they are trusted
for availability, not privacy — all content they hold is encrypted for the
mailbox owner and their access pattern is uniform (every user fetches her
whole mailbox every round).

A deployment shards mailboxes across servers with a **consistent-hash
ring** (:class:`ShardedMailboxHub`): each server contributes a fixed set of
virtual ring points, and an owner's mailbox lives on the server owning the
first point at or after the hash of her public key.  Adding or removing a
shard therefore moves only the owners in the vacated arcs — ``~1/n`` of
them — where the previous modulo scheme reshuffled nearly everyone.  The
owner→server mapping is cached at mailbox creation, so steady-state routing
is one dict lookup, and both delivery and fetch are *batched*: records are
grouped per shard and appended with one list-extend per mailbox round
(O(batch) dict merges) instead of one guarded put per message.

A mailbox holds *records* — ``recipient || AEnc(s, ρ, body)``, the
:meth:`~repro.mixnet.messages.MailboxMessage.to_bytes` layout — as
``bytes``: delivery slices them out of a chain's
:class:`~repro.mixnet.messages.MailboxBatch` (a copy, so mail held for an
offline user does not keep the chain's whole delivery alive), and a fetch
frames them into a :class:`~repro.mixnet.messages.FetchBatch` as they are.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.constants import GROUP_ELEMENT_SIZE
from repro.errors import MailboxError
from repro.mixnet.messages import FetchBatch, MailboxBatch, MailboxMessage

__all__ = ["Mailbox", "MailboxServer", "ShardedMailboxHub"]

#: Virtual ring points per mailbox server.  Enough that shard loads stay
#: within a few percent of uniform at deployment scale while keeping ring
#: construction trivial.
VIRTUAL_NODES_PER_SERVER = 64


@dataclass(slots=True)
class Mailbox:
    """A single user's mailbox: per-round lists of sealed records."""

    owner: bytes
    _rounds: Dict[int, List[bytes]] = field(default_factory=dict)

    def put(self, round_number: int, message: MailboxMessage) -> None:
        if message.recipient != self.owner:
            raise MailboxError("message recipient does not match mailbox owner")
        self._rounds.setdefault(round_number, []).append(message.to_bytes())

    def put_batch(self, round_number: int, records: Sequence[bytes]) -> None:
        """Append a whole round batch of records in one list merge.

        The caller (the hub's sharded delivery) has already routed by
        recipient, so the per-record ownership check reduces to one
        assertion over the batch.
        """
        for record in records:
            if record[:GROUP_ELEMENT_SIZE] != self.owner:
                raise MailboxError("message recipient does not match mailbox owner")
        self._rounds.setdefault(round_number, []).extend(records)

    def get(self, round_number: int) -> List[bytes]:
        """Return (without removing) every record delivered in ``round_number``."""
        return list(self._rounds.get(round_number, []))

    def drain(self, round_number: int) -> List[bytes]:
        """Return and delete the round's records — and any earlier round's:
        mail the owner missed offline, which nothing reads after this fetch."""
        records = self._rounds.pop(round_number, [])
        for stale in [held for held in self._rounds if held < round_number]:
            del self._rounds[stale]
        return records

    def message_count(self, round_number: int) -> int:
        return len(self._rounds.get(round_number, []))


class MailboxServer:
    """One mailbox server holding a subset of the deployment's mailboxes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._mailboxes: Dict[bytes, Mailbox] = {}

    def create_mailbox(self, owner: bytes) -> Mailbox:
        """Create (or return the existing) mailbox for ``owner``."""
        if owner not in self._mailboxes:
            self._mailboxes[owner] = Mailbox(owner=owner)
        return self._mailboxes[owner]

    def put(self, round_number: int, message: MailboxMessage) -> None:
        """Deliver one mailbox message; unknown recipients raise :class:`MailboxError`."""
        if message.recipient not in self._mailboxes:
            raise MailboxError("no mailbox registered for this recipient")
        self._mailboxes[message.recipient].put(round_number, message)

    def deliver_grouped(self, round_number: int, groups: Dict[bytes, List[bytes]]) -> int:
        """Deliver recipient-grouped records; return the dropped count."""
        dropped = 0
        for recipient, records in groups.items():
            mailbox = self._mailboxes.get(recipient)
            if mailbox is None:
                dropped += len(records)
                continue
            mailbox.put_batch(round_number, records)
        return dropped

    def get(self, round_number: int, owner: bytes) -> List[bytes]:
        if owner not in self._mailboxes:
            raise MailboxError("no mailbox registered for this owner")
        return self._mailboxes[owner].get(round_number)

    def drain(self, round_number: int, owner: bytes) -> List[bytes]:
        if owner not in self._mailboxes:
            raise MailboxError("no mailbox registered for this owner")
        return self._mailboxes[owner].drain(round_number)

    def owners(self) -> List[bytes]:
        return list(self._mailboxes)

    def __contains__(self, owner: bytes) -> bool:
        return owner in self._mailboxes


def _ring_hash(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class ShardedMailboxHub:
    """The deployment's mailbox tier: consistent-hash shards, batched flows."""

    def __init__(self, num_servers: int = 1,
                 virtual_nodes: int = VIRTUAL_NODES_PER_SERVER) -> None:
        if num_servers < 1:
            raise MailboxError("a deployment needs at least one mailbox server")
        if virtual_nodes < 1:
            raise MailboxError("each shard needs at least one ring point")
        self.servers = [MailboxServer(name=f"mailbox-{index}") for index in range(num_servers)]
        self.virtual_nodes = virtual_nodes
        points: List[Tuple[int, int]] = []
        for server_index, server in enumerate(self.servers):
            for virtual in range(virtual_nodes):
                token = _ring_hash(f"{server.name}|vnode-{virtual}".encode())
                points.append((token, server_index))
        points.sort()
        self._ring_tokens = [token for token, _ in points]
        self._ring_servers = [server_index for _, server_index in points]
        #: owner → shard, filled at mailbox creation so the steady state
        #: never walks the ring.
        self._owner_shard: Dict[bytes, MailboxServer] = {}

    def _server_for(self, owner: bytes) -> MailboxServer:
        cached = self._owner_shard.get(owner)
        if cached is not None:
            return cached
        index = bisect.bisect_left(self._ring_tokens, _ring_hash(owner))
        if index == len(self._ring_tokens):
            index = 0  # wrap: first point of the ring
        return self.servers[self._ring_servers[index]]

    def server_name_for(self, owner: bytes) -> str:
        """The name of the mailbox server holding ``owner``'s mailbox.

        Transport envelopes name their endpoints; this is how the engine
        labels a fetch with the true sharded source so per-link accounting
        survives a multi-server mailbox tier.
        """
        return self._server_for(owner).name

    def create_mailbox(self, owner: bytes) -> Mailbox:
        server = self._server_for(owner)
        self._owner_shard[owner] = server
        return server.create_mailbox(owner)

    def put(self, round_number: int, message: MailboxMessage) -> None:
        self._server_for(message.recipient).put(round_number, message)

    def deliver_batch(self, round_number: int, batch: MailboxBatch) -> int:
        """Deliver a chain's records, dropping ones addressed to unknown mailboxes.

        Records for unknown recipients can only have been produced by
        malicious users (honest users address themselves or their partner),
        so dropping them is safe; the count of drops is returned for
        reporting.  Delivery is grouped per (shard, recipient) so the hot
        path is dict merges, not per-record guarded puts.
        """
        per_server: Dict[int, Dict[bytes, List[bytes]]] = {}
        server_ids: Dict[int, MailboxServer] = {}
        for index in range(len(batch)):
            record = bytes(batch.record(index))
            recipient = record[:GROUP_ELEMENT_SIZE]
            server = self._server_for(recipient)
            key = id(server)
            server_ids[key] = server
            per_server.setdefault(key, {}).setdefault(recipient, []).append(record)
        dropped = 0
        for key, groups in per_server.items():
            dropped += server_ids[key].deliver_grouped(round_number, groups)
        return dropped

    def get(self, round_number: int, owner: bytes) -> List[bytes]:
        return self._server_for(owner).get(round_number, owner)

    def fetch_batch(self, round_number: int, owners: Sequence[bytes]) -> FetchBatch:
        """Every given owner's round download, in owner order, drained.

        The population fetch path frames these per shard (see
        :meth:`shard_owners`); the lookup itself is one cached dict hit per
        owner.  A fetch is the round's consumer, so the fetched owners'
        round (and any earlier one they missed) is drained as it is read;
        a repeated owner gets the same download each time.  Offline users
        keep theirs until their next fetch; :meth:`get` does not drain.
        """
        drained: Dict[bytes, List[bytes]] = {}
        for owner in owners:
            if owner not in drained:
                drained[owner] = self._server_for(owner).drain(round_number, owner)
        return FetchBatch.from_inboxes((owner, drained[owner]) for owner in owners)

    def shard_owners(self, owners: Sequence[bytes]) -> List[Tuple[MailboxServer, List[bytes]]]:
        """Group ``owners`` by their shard, preserving order within a shard."""
        grouped: Dict[int, List[bytes]] = {}
        servers: Dict[int, MailboxServer] = {}
        for owner in owners:
            server = self._server_for(owner)
            key = id(server)
            servers[key] = server
            grouped.setdefault(key, []).append(owner)
        return [(servers[key], group) for key, group in grouped.items()]

    def message_counts(self, round_number: int, owners: Sequence[bytes]) -> Dict[bytes, int]:
        """Per-owner delivered-message counts — the adversary's observable in §5.3.3."""
        return {owner: len(self.get(round_number, owner)) for owner in owners}
