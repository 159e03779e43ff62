"""Typed artifacts of the staged round pipeline (see DESIGN.md §2).

A communication round decomposes into seven explicit stages:

1. **prepare** — allocate the round number and announce the per-round inner
   keys on every chain, yielding the key views users need;
2. **collect** — gather one submission per (user, assigned chain), play
   covers for offline users, and bank next round's covers;
3. **finalize collect** — build the users a staggered schedule deferred
   past the previous round's fetch, and assemble the per-chain batches;
4. **precompute** — run every chain member's public-key work (DH blinding,
   outer-layer key derivation) on the collected batch ahead of the online
   phase (§5.2.1); it always runs, and deterministically, so a scheduler
   may start it early (over what collect has built so far) and top it up;
5. **mix** — accept and run the aggregate hybrid shuffle on every chain;
6. **deliver** — fold the per-chain outcomes into the round report and hand
   the recovered mailbox records to the mailbox servers, in chain order so
   the result is independent of the mixing schedule;
7. **fetch** — each online user fetches and decrypts her mailbox.

Chains share no mutable state, so every per-chain step — the client
build's crypto pass, intake, precompute and mix — fans out through the
execution backend's ``map_chains`` (DESIGN.md §2.2).

This module holds the data that flows between those stages: the
:class:`RoundSpec` describing what a round should do, the per-chain
:class:`ChainOutcome`, the :class:`RoundContext` threaded through the
stages, and the :class:`RoundReport` handed back to the caller.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.client.user import ChainKeysView, ReceivedMessage
from repro.mixnet.ahs import ChainRoundResult
from repro.mixnet.messages import ClientSubmission, SubmissionBatch
from repro.trace import Trace

__all__ = ["RoundSpec", "ChainOutcome", "RoundContext", "RoundReport"]


@dataclass
class RoundSpec:
    """Everything the engine needs to know to execute one round."""

    payloads: Dict[str, bytes] = field(default_factory=dict)
    offline_users: Set[str] = field(default_factory=set)
    extra_submissions: List[ClientSubmission] = field(default_factory=list)


@dataclass
class RoundReport:
    """Everything observable about one completed round."""

    round_number: int
    delivered: Dict[str, List[ReceivedMessage]] = field(default_factory=dict)
    mailbox_counts: Dict[str, int] = field(default_factory=dict)
    chain_results: Dict[int, ChainRoundResult] = field(default_factory=dict)
    offline_users: List[str] = field(default_factory=list)
    used_cover_for: List[str] = field(default_factory=list)
    rejected_senders: List[str] = field(default_factory=list)
    total_submissions: int = 0
    dropped_unknown_recipients: int = 0
    #: What the round did, stage by stage (DESIGN.md §13).  Diagnostics
    #: only: excluded from :meth:`canonical_bytes`, and freed with the report.
    trace: Trace = field(default_factory=Trace, compare=False, repr=False)

    def conversation_payloads(self, user_name: str) -> List[bytes]:
        """Convenience: the conversation payloads delivered to ``user_name``."""
        return [
            message.content
            for message in self.delivered.get(user_name, [])
            if message.kind == ReceivedMessage.KIND_CONVERSATION
        ]

    def all_chains_delivered(self) -> bool:
        return all(result.delivered for result in self.chain_results.values())

    def server_convictions(self) -> Dict[int, List[str]]:
        """Servers this round's chain outcomes convicted, by chain.

        A server is convicted either by a blame verdict
        (:class:`~repro.mixnet.blame.BlameVerdict.malicious_servers`) or by
        an aggregate-proof / inner-key-reveal failure
        (``misbehaving_server``).  The engine's deliver stage feeds these to
        :meth:`Deployment.note_convictions
        <repro.coordinator.network.Deployment.note_convictions>`, where an
        explicit :meth:`~repro.coordinator.network.Deployment.recover` turns
        them into evictions and chain re-formation.
        """
        convictions: Dict[int, List[str]] = {}
        for chain_id in sorted(self.chain_results):
            result = self.chain_results[chain_id]
            if result.delivered:
                continue
            names: List[str] = []
            verdict = result.blame_verdict
            if verdict is not None:
                names.extend(verdict.malicious_servers)
            if result.misbehaving_server and result.misbehaving_server not in names:
                names.append(result.misbehaving_server)
            if names:
                convictions[chain_id] = names
        return convictions

    def canonical_bytes(self) -> bytes:
        """A deterministic byte serialisation of the report's payload.

        Two rounds that delivered the same messages to the same users, with
        the same per-chain outcomes, in the same order, produce identical
        canonical bytes — regardless of which execution backend or scheduler
        produced them.  The engine parity tests compare these.
        """
        hasher = hashlib.sha256()

        def feed(*parts: object) -> None:
            for part in parts:
                data = part if isinstance(part, bytes) else str(part).encode()
                hasher.update(len(data).to_bytes(8, "big"))
                hasher.update(data)

        feed(b"round", self.round_number)
        for user_name in sorted(self.delivered):
            feed(b"user", user_name, self.mailbox_counts.get(user_name, -1))
            for message in self.delivered[user_name]:
                feed(message.kind, message.content, message.chain_id, message.partner_name)
        for chain_id in sorted(self.chain_results):
            result = self.chain_results[chain_id]
            feed(b"chain", chain_id, result.status, result.input_digest, result.invalid_inner_count)
            feed(result.misbehaving_server, *result.rejected_senders)
            for record in result.mailbox_messages.records():
                feed(bytes(record))
        feed(b"offline", *self.offline_users)
        feed(b"covers", *self.used_cover_for)
        feed(b"rejected", *self.rejected_senders)
        feed(b"totals", self.total_submissions, self.dropped_unknown_recipients)
        return hasher.digest()


@dataclass
class ChainOutcome:
    """What one chain produced during the mix stage."""

    chain_id: int
    accept_rejected: List[str]
    result: ChainRoundResult


@dataclass
class RoundContext:
    """Mutable state threaded through the stages of one round."""

    round_number: int
    spec: RoundSpec
    report: RoundReport
    current_views: Dict[int, ChainKeysView] = field(default_factory=dict)
    next_views: Dict[int, ChainKeysView] = field(default_factory=dict)
    #: Per-user submission records (``ClientSubmission.to_bytes()`` layout,
    #: viewed in the uploaded batches), assembled into ``per_chain`` (in
    #: global user order, so batches are schedule-independent) by
    #: finalize_collect.
    user_submissions: Dict[str, List[memoryview]] = field(default_factory=dict)
    #: Users whose submission build was deferred past the previous round's
    #: fetch because that fetch may flip their conversation state.
    deferred_users: List[str] = field(default_factory=list)
    #: Users who may receive an offline notice in THIS round's mailbox (their
    #: partner went offline and a cover with a notice was played): the
    #: staggered scheduler must not build their next-round submissions until
    #: this round's fetch has run.
    notice_targets: Set[str] = field(default_factory=set)
    #: Each chain's assembled batch, from finalize_collect until its intake.
    per_chain: Dict[int, SubmissionBatch] = field(default_factory=dict)
    chain_outcomes: Dict[int, ChainOutcome] = field(default_factory=dict)
