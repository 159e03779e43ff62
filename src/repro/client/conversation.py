"""Conversation state and key schedule (§5.3.2).

A conversation between Alice and Bob is symmetric: both derive the shared
secret ``s_AB = DH(pk_other, sk_self)`` and then two directional symmetric
keys ``KDF(s_AB, pk_B)`` (messages *to* Bob) and ``KDF(s_AB, pk_A)``
(messages *to* Alice).  The paper assumes the two users agreed out of band
(e.g., via Alpenhorn) to start talking at a given round; here that agreement
is the :meth:`Conversation.establish` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.kdf import conversation_key

__all__ = ["Conversation"]


@dataclass
class Conversation:
    """One user's view of a (possibly one-sided) conversation with a partner."""

    partner_name: str
    partner_public_bytes: bytes
    partner_public_point: object
    shared_secret_bytes: bytes = field(repr=False)
    my_public_bytes: bytes
    #: The two directional keys; constant for the life of the conversation,
    #: so they are derived once, in :meth:`establish`.
    partner_key: bytes = field(repr=False)
    my_key: bytes = field(repr=False)
    #: The physical chain both partners send on: their intersection chain,
    #: fixed when they agree to talk (§5.3.2).
    chain_id: int
    established_round: int = 0
    active: bool = True
    partner_offline: bool = False

    @classmethod
    def establish(
        cls,
        group,
        my_keypair,
        partner_name: str,
        partner_public_bytes: bytes,
        chain_id: int,
        established_round: int = 0,
    ) -> "Conversation":
        """Create conversation state from my key pair and the partner's public
        key, on the intersection chain ``chain_id`` the two of us share."""
        partner_point = group.decode(partner_public_bytes)
        shared_point = group.diffie_hellman(partner_point, my_keypair.secret)
        partner_public_bytes = bytes(partner_public_bytes)
        my_public_bytes = bytes(my_keypair.public_bytes)
        shared_secret_bytes = group.encode(shared_point)
        return cls(
            partner_name=partner_name,
            partner_public_bytes=partner_public_bytes,
            partner_public_point=partner_point,
            shared_secret_bytes=shared_secret_bytes,
            my_public_bytes=my_public_bytes,
            partner_key=conversation_key(shared_secret_bytes, partner_public_bytes),
            my_key=conversation_key(shared_secret_bytes, my_public_bytes),
            chain_id=chain_id,
            established_round=established_round,
        )

    def key_to_partner(self) -> bytes:
        """Symmetric key for messages addressed to the partner (``KDF(s_AB, pk_B)``)."""
        return self.partner_key

    def key_to_me(self) -> bytes:
        """Symmetric key for messages the partner addresses to me (``KDF(s_AB, pk_A)``)."""
        return self.my_key

    def mark_partner_offline(self) -> None:
        """Record that the partner's offline notice arrived; stop sending to them.

        Per §5.3.3, once Bob learns that Alice went offline he reverts to
        loopback messages so the adversary cannot tell they were ever
        talking.
        """
        self.partner_offline = True
        self.active = False

    def end(self) -> None:
        """End the conversation locally (the same mechanism as going offline)."""
        self.active = False
