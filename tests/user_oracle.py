"""The per-user client path (§5.3, §6.2): the reference for ``repro.population``.

This is the client as it ran before the batched population became the only
executor — one :class:`~repro.client.user.User` at a time, every submission
sealed, onion-encrypted and proved individually, each of its three scalars
one block of the user's keyed stream (:func:`draw`), every mailbox message
trial-decrypted one AEAD call at a time.  From the same stream keys
:class:`~repro.population.UserPopulation` must build the same submission
bytes (tests/test_native_kernels.py::TestOnionBuildDifferential)
and classify every mailbox the same way, including the §5.3.3 offline-notice
side effect (tests/test_population.py, tests/test_user.py).  :func:`install`
routes a whole deployment's client side through these functions, so any
round script can be run against the oracle end to end.
"""

from typing import Dict, List, Optional, Sequence

from repro.client.chain_selection import intersection_chain
from repro.client.user import ChainKeysView, ReceivedMessage
from repro.crypto import stream
from repro.crypto.chacha20 import chacha20_block
from repro.crypto.kdf import loopback_key
from repro.crypto.nizk import prove_dlog
from repro.crypto.onion import encrypt_inner, encrypt_outer_layers
from repro.errors import ConfigurationError, ProtocolError
from repro.mixnet.ahs import submission_context
from repro.mixnet.messages import ClientSubmission, MailboxMessage, MessageBody, SubmissionBatch


def seal_loopback(user, round_number: int, chain_id: int) -> MailboxMessage:
    key = loopback_key(user.keypair.identity_secret_bytes(), chain_id)
    return MailboxMessage.seal(user.public_bytes, key, round_number, MessageBody.loopback())


def seal_conversation(user, round_number: int, body: MessageBody) -> MailboxMessage:
    if user.conversation is None:
        raise ProtocolError("no active conversation to seal a message for")
    return MailboxMessage.seal(
        user.conversation.partner_public_bytes,
        user.conversation.key_to_partner(),
        round_number,
        body,
    )


def draw(user, label: bytes, round_number: int, slot: int) -> int:
    """One scalar: block ``slot`` of the user's (label, round) stream, reduced."""
    block = chacha20_block(user.stream_key, slot, label + round_number.to_bytes(8, "big"))
    return 1 + int.from_bytes(block, "little") % (user.group.order - 1)


def wrap_for_chain(
    user,
    round_number: int,
    slot: int,
    chain_keys: ChainKeysView,
    mailbox_message: MailboxMessage,
    cover: bool,
) -> ClientSubmission:
    group = user.group
    label_y, label_x, label_k = stream.COVER if cover else stream.LIVE
    envelope = encrypt_inner(
        group, chain_keys.aggregate_inner_public, round_number, mailbox_message.to_bytes(),
        ephemeral_secret=draw(user, label_y, round_number, slot),
    )
    ephemeral_secret = draw(user, label_x, round_number, slot)
    ciphertext = encrypt_outer_layers(
        group, chain_keys.mixing_publics, round_number, envelope.to_bytes(), ephemeral_secret
    )
    proof = prove_dlog(
        group,
        group.base(),
        ephemeral_secret,
        submission_context(chain_keys.chain_id, round_number, user.name),
        nonce=draw(user, label_k, round_number, slot),
    )
    return ClientSubmission(
        chain_id=chain_keys.chain_id,
        sender=user.name,
        dh_public=group.encode(group.base_mult(ephemeral_secret)),
        ciphertext=ciphertext,
        proof=proof,
    )


def build_round_submissions(
    user,
    round_number: int,
    num_chains: int,
    chain_keys: Dict[int, ChainKeysView],
    payload: Optional[bytes] = None,
    offline_notice: bool = False,
    cover: bool = False,
) -> List[ClientSubmission]:
    """Build the user's ℓ fixed-size submissions for ``round_number``.

    If the user is in an active conversation, the chain she shares with
    her partner carries a conversation message (containing ``payload``,
    or an offline notice when ``offline_notice`` is set — the content of
    cover messages); every other assigned chain carries a loopback
    message.  Users not in a conversation send loopbacks everywhere, so
    their traffic pattern is identical.
    """
    chains = user.assigned_chains(num_chains)
    conversation_chain_id = None
    if user.in_conversation():  # derived here, not read off the field it checks
        conversation_chain_id = intersection_chain(
            user.public_bytes, user.conversation.partner_public_bytes, num_chains
        )
    submissions: List[ClientSubmission] = []
    conversation_sent = False
    for slot, chain_id in enumerate(chains):
        if chain_id not in chain_keys:
            raise ConfigurationError(f"missing chain keys for chain {chain_id}")
        if (
            conversation_chain_id is not None
            and chain_id == conversation_chain_id
            and not conversation_sent
        ):
            if offline_notice:
                body = MessageBody.offline_notice()
            else:
                body = MessageBody.data(payload or b"")
            mailbox_message = seal_conversation(user, round_number, body)
            conversation_sent = True
        else:
            mailbox_message = seal_loopback(user, round_number, chain_id)
        submissions.append(
            wrap_for_chain(user, round_number, slot, chain_keys[chain_id], mailbox_message, cover)
        )
    return submissions


def build_cover_submissions(
    user,
    next_round_number: int,
    num_chains: int,
    chain_keys: Dict[int, ChainKeysView],
) -> List[ClientSubmission]:
    """Cover messages for round ``ρ + 1`` (§5.3.3).

    If the user is in a conversation the cover set contains an *offline
    notice* on the intersection chain so the partner learns she vanished;
    otherwise it is all loopbacks.  The coordinator plays these on the
    user's behalf if she fails to submit next round.
    """
    return build_round_submissions(
        user,
        next_round_number,
        num_chains,
        chain_keys,
        payload=None,
        offline_notice=True,
        cover=True,
    )


def decrypt_mailbox(
    user,
    round_number: int,
    messages: Sequence[MailboxMessage],
    num_chains: int,
) -> List[ReceivedMessage]:
    """Decrypt and classify this round's mailbox contents.

    Loopback messages are recognised by trial decryption with each
    per-chain loopback key; conversation messages with the partner's
    directional key.  Receiving an offline notice marks the conversation
    partner as offline (the §5.3.3 state transition).
    """
    received: List[ReceivedMessage] = []
    loopback_keys = {
        chain_id: loopback_key(user.keypair.identity_secret_bytes(), chain_id)
        for chain_id in sorted(set(user.assigned_chains(num_chains)))
    }
    for message in messages:
        if message.recipient != user.public_bytes:
            received.append(ReceivedMessage(kind=ReceivedMessage.KIND_UNREADABLE, content=b""))
            continue
        classified = False
        if user.conversation is not None:
            body = message.open(user.conversation.key_to_me(), round_number)
            if body is not None:
                if body.is_offline_notice():
                    user.conversation.mark_partner_offline()
                    received.append(
                        ReceivedMessage(
                            kind=ReceivedMessage.KIND_OFFLINE_NOTICE,
                            content=b"",
                            partner_name=user.conversation.partner_name,
                        )
                    )
                else:
                    received.append(
                        ReceivedMessage(
                            kind=ReceivedMessage.KIND_CONVERSATION,
                            content=body.content,
                            partner_name=user.conversation.partner_name,
                        )
                    )
                classified = True
        if classified:
            continue
        for chain_id, key in loopback_keys.items():
            body = message.open(key, round_number)
            if body is not None:
                received.append(
                    ReceivedMessage(
                        kind=ReceivedMessage.KIND_LOOPBACK, content=b"", chain_id=chain_id
                    )
                )
                classified = True
                break
        if not classified:
            received.append(ReceivedMessage(kind=ReceivedMessage.KIND_UNREADABLE, content=b""))
    return received


def install(deployment) -> None:
    """Run ``deployment``'s client side through this module, user by user.

    The population's two batch entry points are replaced on the instance by
    per-user loops over :func:`build_round_submissions` and
    :func:`decrypt_mailbox` — same users, same order, same stream keys — so
    the engine, transport and mailbox flows around them are unchanged.
    """
    population = deployment.population
    num_chains = deployment.num_chains

    def build(round_number, chain_keys, users, payloads=None, offline_notice=False, cover=False,
              map_chains=None):
        per_chain: Dict[int, List[ClientSubmission]] = {}
        for user in users:
            for submission in build_round_submissions(
                user, round_number, num_chains, chain_keys,
                payload=(payloads or {}).get(user.name),
                offline_notice=offline_notice, cover=cover,
            ):
                per_chain.setdefault(submission.chain_id, []).append(submission)
        return {
            chain_id: SubmissionBatch.from_submissions(deployment.group, submissions)
            for chain_id, submissions in sorted(per_chain.items())
        }

    def decrypt(round_number, users, fetches):
        # The engine hands over its fetch envelopes; the oracle reads each
        # user's records out of them as objects.
        inboxes: Dict[bytes, List[MailboxMessage]] = {}
        for fetch in fetches:
            for owner, messages in fetch:
                inboxes.setdefault(owner, []).extend(messages)
        return {
            user.name: decrypt_mailbox(
                user, round_number, inboxes.get(user.public_bytes, []), num_chains
            )
            for user in users
        }

    population.build_round_submissions_batch = build
    population.decrypt_mailboxes_batch = decrypt
