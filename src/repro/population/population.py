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
* **fetch** — mailbox decryption opens each fetch envelope (one shard's
  downloads for one chunk of users) in one
  :func:`~repro.crypto.aead.open_spans` call over its blob: every record's
  sealed body (``record[32:]``) is a span, and a record addressed to its
  owner (``record[:32]``) has her candidate keys — the conversation key,
  then her loopback keys in sorted chain order — of which the first whose
  tag verifies opens it.  Each record authenticates under at most one of
  them, so the order cannot change any classification.

Chain assignments are derived from public keys alone, so the columns stay
valid across chain re-formation (:meth:`Deployment.reform_chain
<repro.coordinator.network.Deployment.reform_chain>` changes key views,
which are per-round inputs, never the assignment).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.chain_selection import assign_group, chains_for_group, ell_for_chains
from repro.client.user import ReceivedMessage, User
from repro.crypto.aead import open_spans
from repro.crypto.kdf import loopback_key
from repro.errors import ConfigurationError
from repro.mixnet.messages import FetchBatch, MessageBody, SubmissionBatch
from repro.population.batch_build import PendingColumns, build_chain_submissions

__all__ = ["UserPopulation"]

#: Sentinel chain label for the conversation key among a user's candidates.
_CONVERSATION_TRIAL = -1
#: The one loopback body there is: a plaintext equal to it decodes, as a loopback.
_LOOPBACK_BODY = MessageBody.loopback().encode()
_UNREADABLE = ReceivedMessage(kind=ReceivedMessage.KIND_UNREADABLE, content=b"")


class UserPopulation:
    """Columnar views over a deployment's honest users."""

    def __init__(self, group, users: Sequence[User], num_chains: int) -> None:
        self.group = group
        self.users: List[User] = list(users)
        #: name → ordered physical chain ids (length ℓ, possibly repeating):
        #: her group's chains (§5.3.1), one tuple shared by the group.
        groups = ell_for_chains(num_chains) + 1
        group_chains = [tuple(chains_for_group(index, num_chains)) for index in range(groups)]
        self.chain_assignments: Dict[str, Tuple[int, ...]] = {
            user.name: group_chains[assign_group(user.public_bytes, groups)]
            for user in self.users
        }
        #: chain id → sender names in deployment order (with multiplicity):
        #: the canonical order of every per-chain batch.
        self.chain_rosters: Dict[int, List[str]] = {}
        for user in self.users:
            for chain_id in self.chain_assignments[user.name]:
                self.chain_rosters.setdefault(chain_id, []).append(user.name)
        #: Per-user loopback candidate order for the fetch: sorted, so it
        #: cannot depend on set hash order; one tuple shared by the group.
        group_trials = {chains: tuple(sorted(set(chains))) for chains in group_chains}
        self._trial_chains: Dict[str, Tuple[int, ...]] = {
            name: group_trials[assignment] for name, assignment in self.chain_assignments.items()
        }
        #: Per user, the loopback keys in that order, as one key blob —
        #: derived lazily, once per population: identity secrets never change.
        self._loopback_blobs: Dict[str, bytes] = {}

    def _loopback_blob(self, user: User) -> bytes:
        blob = self._loopback_blobs.get(user.name)
        if blob is None:
            secret = user.keypair.identity_secret_bytes()
            blob = self._loopback_blobs[user.name] = b"".join(
                loopback_key(secret, chain_id) for chain_id in self._trial_chains[user.name]
            )
        return blob

    def _loopback_key(self, user: User, chain_id: int) -> bytes:
        at = 32 * self._trial_chains[user.name].index(chain_id)
        return self._loopback_blob(user)[at:at + 32]

    def _candidates(self, user: User) -> Tuple[Tuple[int, ...], bytes]:
        """The user's fetch candidates: their labels (a chain id, or the
        conversation sentinel) and their keys as one blob, in trial order."""
        chains, blob = self._trial_chains[user.name], self._loopback_blob(user)
        if user.conversation is None:
            return chains, blob
        return (_CONVERSATION_TRIAL, *chains), user.conversation.key_to_me() + blob

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
            conversation_chain_id = user.conversation.chain_id if user.in_conversation() else None
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
        fetches: Sequence[FetchBatch],
    ) -> Dict[str, List[ReceivedMessage]]:
        """Decrypt and classify every user's round download.

        ``fetches`` are the fetch envelopes that carried ``users``' mailboxes
        (a user's records are those of her entries, in fetch order).  Each
        envelope is one open over its blob; then the users are classified
        in ``users`` order.  Semantics mirror the per-user oracle
        (``tests/user_oracle.py``) exactly, including the §5.3.3 side effect
        of marking a conversation partner offline, in the same user order.
        """
        owners = {user.public_bytes: user for user in users}
        labels: Dict[bytes, Tuple[int, ...]] = {}
        located: Dict[bytes, list] = {}
        for fetch in fetches:
            keys: List[bytes] = []
            ranges: Dict[bytes, Tuple[int, int]] = {}
            held = 0
            for owner in fetch.owners():
                user = owners.get(owner)
                if user is None or owner in ranges:
                    continue
                labels[owner], blob = self._candidates(user)
                ranges[owner] = (held, len(labels[owner]))
                keys.append(blob)
                held += len(labels[owner])
            starts, ends, first_keys, key_counts, entries = fetch.sealed_spans(ranges)
            opened = open_spans(
                fetch.blob, starts, ends, b"".join(keys), round_number,
                first_keys=first_keys, key_counts=key_counts,
            )
            for owner, first, count in entries:
                located.setdefault(owner, []).append((opened, first, count))

        results: Dict[str, List[ReceivedMessage]] = {}
        loopbacks: Dict[int, ReceivedMessage] = {}
        for user in users:
            received: List[ReceivedMessage] = []
            results[user.name] = received
            user_labels = labels.get(user.public_bytes, ())
            for (plain, offsets, opened), first, count in located.get(user.public_bytes, ()):
                for span in range(first, first + count):
                    trial = opened[span]
                    if not trial:
                        received.append(_UNREADABLE)
                        continue
                    plaintext = plain[offsets[span] + 4:offsets[span + 1]]
                    label = user_labels[trial - 1]
                    if label != _CONVERSATION_TRIAL:
                        if plaintext != _LOOPBACK_BODY:
                            MessageBody.decode(plaintext)  # raises for a malformed body
                        loopback = loopbacks.get(label)
                        if loopback is None:
                            loopback = loopbacks[label] = ReceivedMessage(
                                kind=ReceivedMessage.KIND_LOOPBACK, content=b"", chain_id=label
                            )
                        received.append(loopback)
                        continue
                    body = MessageBody.decode(plaintext)
                    if body.is_offline_notice():
                        user.conversation.mark_partner_offline()
                        kind, content = ReceivedMessage.KIND_OFFLINE_NOTICE, b""
                    else:
                        kind, content = ReceivedMessage.KIND_CONVERSATION, body.content
                    received.append(ReceivedMessage(
                        kind=kind, content=content, partner_name=user.conversation.partner_name
                    ))
        return results
