"""The XRD user agent (§5.3, §6.2).

A :class:`User` owns an identity key pair (which doubles as her mailbox
address), her conversation state, and her chain assignment.  Every round she
sends one fixed-size submission per assigned chain (a conversation message
on the intersection chain when she is talking to someone, loopback messages
everywhere else), banks the next round's *cover* submissions (§5.3.3), and
decrypts whatever lands in her mailbox — all of which the deployment's
:class:`~repro.population.UserPopulation` executes for every user at once,
column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.client.chain_selection import chains_for_user, intersection_chain
from repro.client.conversation import Conversation
from repro.crypto.keys import KeyPair
from repro.crypto.stream import stream_key as fresh_stream_key

__all__ = ["ChainKeysView", "ReceivedMessage", "User"]


@dataclass(frozen=True, slots=True)
class ChainKeysView:
    """The public key material a user needs to submit to one chain in one round."""

    chain_id: int
    mixing_publics: Sequence[object]
    aggregate_inner_public: object


@dataclass(frozen=True, slots=True)
class ReceivedMessage:
    """A decrypted mailbox message, classified by the receiving user."""

    kind: str
    content: bytes
    chain_id: Optional[int] = None
    partner_name: Optional[str] = None

    KIND_LOOPBACK = "loopback"
    KIND_CONVERSATION = "conversation"
    KIND_OFFLINE_NOTICE = "offline-notice"
    KIND_UNREADABLE = "unreadable"


class User:
    """One XRD user: identity, conversation state, and chain assignment.

    ``stream_key`` keys every scalar she draws (:mod:`repro.crypto.stream`);
    fresh OS entropy when not given.  Her key pair, when not given, is the
    key's identity draw — as :meth:`Deployment.create
    <repro.coordinator.network.Deployment.create>` derives it.
    """

    def __init__(
        self,
        name: str,
        group,
        keypair: Optional[KeyPair] = None,
        stream_key: Optional[bytes] = None,
    ) -> None:
        self.name = name
        self.group = group
        self.stream_key = stream_key if stream_key is not None else fresh_stream_key()
        self.keypair = keypair or KeyPair.generate(group, self.stream_key)
        self.conversation: Optional[Conversation] = None

    # -- identity ------------------------------------------------------------

    @property
    def public_bytes(self) -> bytes:
        """The user's encoded public key; also her mailbox identifier."""
        return self.keypair.public_bytes

    def assigned_chains(self, num_chains: int) -> List[int]:
        """Physical chains this user must send one message to every round."""
        return chains_for_user(self.public_bytes, num_chains)

    # -- conversations ---------------------------------------------------------

    def start_conversation(
        self, partner_name: str, partner_public_bytes: bytes, num_chains: int, round_number: int = 0
    ) -> Conversation:
        """Begin (or replace) the user's single active conversation, on the
        chain she and the partner share among ``num_chains`` (§5.3.2)."""
        chain_id = intersection_chain(self.public_bytes, partner_public_bytes, num_chains)
        self.conversation = Conversation.establish(
            self.group, self.keypair, partner_name, partner_public_bytes, chain_id, round_number
        )
        return self.conversation

    def end_conversation(self) -> None:
        if self.conversation is not None:
            self.conversation.end()

    def in_conversation(self) -> bool:
        return self.conversation is not None and self.conversation.active
