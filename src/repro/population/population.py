"""The :class:`UserPopulation`: all honest users as column-oriented batches.

Walking one user at a time — each submission sealed, onion-encrypted and
proved individually, each mailbox message trial-decrypted one AEAD call at
a time — is per-user Python overhead, not protocol, and it capped practical
rounds at a few hundred users.  That walk survives only as the test oracle
(``tests/user_oracle.py``).  The population keeps the *state* on the
:class:`~repro.client.user.User` objects (conversations, identity and
stream keys) but executes the per-round work column-wise:

* **build** — a gathering pass walks users in deployment order and sorts
  each (user, chain slot) entry into its chain's columns: body, seal key,
  recipient, the user's stream key and the slot.  Everything else — the
  ``y``/``x``/``k`` draws, each a pure function of (stream key, round,
  live or cover, slot) (:mod:`repro.crypto.stream`), and the crypto — runs
  per chain over those columns (:mod:`repro.population.batch_build`), so
  the batch is bit-identical to the per-user oracle whatever the chain,
  chunk or thread it runs on.
* **fetch** — mailbox decryption reads each fetched record as it came
  (``recipient = record[:32]``, ``sealed body = record[32:]``) and runs a
  trial-decryption *cascade*: every (user, record) pair tries its first
  candidate key in one batched AEAD pass, survivors try their second, and
  so on.  Each record authenticates under exactly one key, so cascade
  order cannot change any classification.

Chain assignments are derived from public keys alone, so the columns stay
valid across chain re-formation (:meth:`Deployment.reform_chain
<repro.coordinator.network.Deployment.reform_chain>` changes key views,
which are per-round inputs, never the assignment).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.chain_selection import chains_for_user, intersection_chain
from repro.client.user import ReceivedMessage, User
from repro.constants import GROUP_ELEMENT_SIZE
from repro.crypto.aead import adec_batch
from repro.crypto.kdf import loopback_key
from repro.errors import ConfigurationError
from repro.mixnet.messages import MessageBody, SubmissionBatch
from repro.population.batch_build import PendingColumns, build_chain_submissions

__all__ = ["UserPopulation"]

#: Sentinel chain label for the conversation-key trial of the fetch cascade.
_CONVERSATION_TRIAL = -1


class UserPopulation:
    """Columnar views over a deployment's honest users."""

    def __init__(self, group, users: Sequence[User], num_chains: int) -> None:
        self.group = group
        self.num_chains = num_chains
        self.users: List[User] = list(users)
        #: name → ordered physical chain ids (length ℓ, possibly repeating).
        self.chain_assignments: Dict[str, Tuple[int, ...]] = {
            user.name: tuple(chains_for_user(user.public_bytes, num_chains))
            for user in self.users
        }
        #: chain id → sender names in deployment order (with multiplicity):
        #: the canonical order of every per-chain batch.
        self.chain_rosters: Dict[int, List[str]] = {}
        for user in self.users:
            for chain_id in self.chain_assignments[user.name]:
                self.chain_rosters.setdefault(chain_id, []).append(user.name)
        #: Lazily derived per-(user, chain) loopback keys — identity secrets
        #: never change, so these are computed once per population.
        self._loopback_keys: Dict[Tuple[str, int], bytes] = {}
        #: Per-user loopback trial order for the fetch cascade: sorted, so
        #: it cannot depend on set hash order.
        self._trial_chains: Dict[str, Tuple[int, ...]] = {
            name: tuple(sorted(set(assignment)))
            for name, assignment in self.chain_assignments.items()
        }

    def _loopback_key(self, user: User, chain_id: int) -> bytes:
        cache_key = (user.name, chain_id)
        key = self._loopback_keys.get(cache_key)
        if key is None:
            key = loopback_key(user.keypair.identity_secret_bytes(), chain_id)
            self._loopback_keys[cache_key] = key
        return key

    # -- batched submission building -------------------------------------------

    def build_round_submissions_batch(
        self,
        round_number: int,
        chain_keys: Dict[int, object],
        users: Sequence[User],
        payloads: Optional[Dict[str, bytes]] = None,
        offline_notice: bool = False,
        cover: bool = False,
        map_chains: Optional[Callable] = None,
    ) -> Dict[int, SubmissionBatch]:
        """Build every given user's ℓ submissions, batched per chain.

        ``users`` must be in deployment order; the returned per-chain
        batches are in the canonical batch order (deployment order, then each user's
        chain-slot order) — the order ``finalize_collect`` assembles.  This
        pass only gathers each entry's columns; the per-chain draws and
        crypto go through ``map_chains`` (an execution backend's, so chains
        build concurrently; one after another when not given).
        """
        payloads = payloads or {}
        buckets: Dict[int, PendingColumns] = {}
        loopback_body = MessageBody.loopback().encode()
        for user in users:
            assignment = self.chain_assignments.get(user.name)
            if assignment is None:
                raise ConfigurationError(f"user {user.name!r} is not in the population")
            conversation_chain_id = None
            if user.in_conversation():
                conversation_chain_id = intersection_chain(
                    user.public_bytes,
                    user.conversation.partner_public_bytes,
                    self.num_chains,
                )
            conversation_sent = False
            payload = payloads.get(user.name)
            for slot, chain_id in enumerate(assignment):
                if chain_id not in chain_keys:
                    raise ConfigurationError(f"missing chain keys for chain {chain_id}")
                if (
                    conversation_chain_id is not None
                    and chain_id == conversation_chain_id
                    and not conversation_sent
                ):
                    body = (
                        MessageBody.offline_notice()
                        if offline_notice
                        else MessageBody.data(payload or b"")
                    ).encode()
                    seal_key = user.conversation.key_to_partner()
                    recipient = user.conversation.partner_public_bytes
                    conversation_sent = True
                else:
                    body = loopback_body
                    seal_key = self._loopback_key(user, chain_id)
                    recipient = user.public_bytes
                pending = buckets.get(chain_id)
                if pending is None:
                    pending = buckets[chain_id] = PendingColumns()
                pending.senders.append(user.name)
                pending.seal_keys.append(seal_key)
                pending.recipients.append(recipient)
                pending.bodies.append(body)
                pending.stream_keys.append(user.stream_key)
                pending.slots.append(slot)
        chain_ids = sorted(buckets)

        def build(chain_id: int) -> SubmissionBatch:
            return build_chain_submissions(
                self.group, chain_keys[chain_id], round_number, buckets[chain_id], cover=cover
            )

        built = map_chains(build, chain_ids) if map_chains else [build(c) for c in chain_ids]
        return dict(zip(chain_ids, built))

    # -- batched mailbox decryption ---------------------------------------------

    def decrypt_mailboxes_batch(
        self,
        round_number: int,
        users: Sequence[User],
        inboxes: Sequence[Sequence[bytes]],
    ) -> Dict[str, List[ReceivedMessage]]:
        """Decrypt and classify every user's round download, cascaded.

        Each inbox holds the user's mailbox records (views or bytes, in the
        :meth:`~repro.mixnet.messages.MailboxMessage.to_bytes` layout).
        Semantics mirror the per-user oracle (``tests/user_oracle.py``)
        exactly, including the §5.3.3 side effect of marking a conversation
        partner offline.
        """
        results: Dict[str, List[Optional[ReceivedMessage]]] = {}
        # (user, record index, sealed body, trial keys, next trial); trials
        # carry the chain id the loopback key belongs to, or the
        # conversation sentinel.
        pending: List[list] = []
        for user, inbox in zip(users, inboxes):
            slots: List[Optional[ReceivedMessage]] = [None] * len(inbox)
            results[user.name] = slots
            trial_chains = self._trial_chains[user.name]
            conversation_key = (
                user.conversation.key_to_me() if user.conversation is not None else None
            )
            for message_index, record in enumerate(inbox):
                if record[:GROUP_ELEMENT_SIZE] != user.public_bytes:
                    slots[message_index] = ReceivedMessage(
                        kind=ReceivedMessage.KIND_UNREADABLE, content=b""
                    )
                    continue
                trials: List[Tuple[int, bytes]] = []
                if conversation_key is not None:
                    trials.append((_CONVERSATION_TRIAL, conversation_key))
                trials.extend(
                    (chain_id, self._loopback_key(user, chain_id))
                    for chain_id in trial_chains
                )
                pending.append([user, message_index, record[GROUP_ELEMENT_SIZE:], trials, 0])

        while pending:
            opened = adec_batch(
                [item[3][item[4]][1] for item in pending],
                round_number,
                [item[2] for item in pending],
            )
            still_pending: List[list] = []
            for item, (ok, plaintext) in zip(pending, opened):
                user, message_index, _sealed, trials, position = item
                if ok:
                    label = trials[position][0]
                    body = MessageBody.decode(plaintext)
                    if label == _CONVERSATION_TRIAL:
                        if body.is_offline_notice():
                            user.conversation.mark_partner_offline()
                            received = ReceivedMessage(
                                kind=ReceivedMessage.KIND_OFFLINE_NOTICE,
                                content=b"",
                                partner_name=user.conversation.partner_name,
                            )
                        else:
                            received = ReceivedMessage(
                                kind=ReceivedMessage.KIND_CONVERSATION,
                                content=body.content,
                                partner_name=user.conversation.partner_name,
                            )
                    else:
                        received = ReceivedMessage(
                            kind=ReceivedMessage.KIND_LOOPBACK, content=b"", chain_id=label
                        )
                    results[user.name][message_index] = received
                    continue
                item[4] = position + 1
                if item[4] < len(trials):
                    still_pending.append(item)
                else:
                    results[user.name][message_index] = ReceivedMessage(
                        kind=ReceivedMessage.KIND_UNREADABLE, content=b""
                    )
            pending = still_pending

        return {name: list(slots) for name, slots in results.items()}
