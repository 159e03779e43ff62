"""The round engine: orchestration policy for one communication round.

:class:`RoundEngine` decomposes :meth:`Deployment.run_round
<repro.coordinator.network.Deployment.run_round>` into the explicit stages
described in :mod:`repro.engine.stages` and fans each stage's per-chain
work out on a :class:`~repro.engine.backends.ParallelBackend`.  The engine
holds no round state of its own — everything lives in the
:class:`RoundContext` — so a scheduler (see :mod:`repro.engine.stagger`) may
interleave the stages of consecutive rounds.

Stage/state ownership, which is what makes that interleaving safe:

* **prepare** and **announce** touch chain state (per-round inner keys);
* **collect** touches only user state, the cover store, and the report;
* **precompute** touches chain state for its own round only — per-round
  precompute tables, written deterministically and never read by any other
  round;
* **mix** touches only chain state for its own round;
* **deliver** and **fetch** touch the mailbox hub, user state, and the
  report; deliver also releases its own round's chain state.

The scheduler keeps prepare/announce/deliver/fetch on the coordinating
thread and only ever overlaps *collect* (user state) and *precompute*
(round *r*'s per-round tables) with *mix* (round *r − 1*'s chain state) —
disjoint by construction.  Within a stage, the per-chain work — the
client build's crypto pass, intake, precompute and mix — fans out through
the backend's ``map_chains``, because chains share no state either.

Each stage runs with the round's :class:`~repro.trace.Trace` active
(DESIGN.md §13), on whichever thread the scheduler runs it: what the stage
and the layers under it record — spans, link records, kernel dispatches —
is charged to that round.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import trace
from repro.engine.backends import ParallelBackend
from repro.engine.stages import ChainOutcome, RoundContext, RoundReport, RoundSpec
from repro.mixnet.messages import SubmissionBatch
from repro.population.streaming import built_chunks, chunk_spans, index_spans
from repro.transport.envelope import (
    INJECTED,
    MAILBOX_DELIVERY,
    MAILBOX_FETCH_BATCH,
    POPULATION,
    Envelope,
    submission_batch_envelope,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.coordinator.network import Deployment

__all__ = ["RoundEngine"]


def _stage(name: str) -> Callable:
    """Run an engine stage ``(self, ctx, ...)`` as stage ``name`` of its round's trace."""

    def decorate(method):
        @functools.wraps(method)
        def staged(engine, ctx, *args, **kwargs):
            with ctx.report.trace.stage(name):
                return method(engine, ctx, *args, **kwargs)

        return staged

    return decorate


class RoundEngine:
    """Executes rounds for one deployment on its thread pool.

    The precompute and mix stages run the chains ``ctx.per_chain`` names: all
    of them in process, the one of a ``MIX`` request on a mix role.  The
    distributed coordinator overrides just those (``RemoteMixEngine``).
    """

    def __init__(self, deployment: "Deployment", backend: Optional[ParallelBackend] = None) -> None:
        self.deployment = deployment
        self.backend = backend or ParallelBackend()

    # -- one-shot execution ----------------------------------------------------

    def execute_round(self, spec: RoundSpec) -> RoundReport:
        """Run the seven stages of one round back to back."""
        ctx = self.prepare(spec)
        self.collect(ctx)
        self.finalize_collect(ctx)
        self.precompute(ctx)
        self.mix(ctx)
        self.deliver(ctx)
        self.fetch(ctx)
        return ctx.report

    # -- individual stages -------------------------------------------------------

    def announce(self, round_number: int) -> None:
        """Announce (idempotently) the per-round inner keys for a future round.

        The staggered scheduler calls this ahead of time so that, while a
        round is mixing, the overlapped collect stage finds every key view it
        needs already cached and never touches chain state.
        """
        self.deployment._begin_round_on_chains(round_number)

    def prepare(self, spec: RoundSpec) -> RoundContext:
        """Allocate the round number and assemble the chain key views."""
        deployment = self.deployment
        round_number = deployment.next_round
        deployment.next_round += 1
        ctx = RoundContext(
            round_number=round_number,
            spec=spec,
            report=RoundReport(round_number=round_number),
        )
        with ctx.report.trace.stage("prepare"):
            ctx.current_views = deployment.chain_keys_view(round_number)
            if deployment.config.use_cover_messages:
                ctx.next_views = deployment.chain_keys_view(round_number + 1)
        return ctx

    @_stage("collect")
    def collect(self, ctx: RoundContext, defer: "frozenset[str]" = frozenset()) -> None:
        """Gather submissions from every online user; play covers for the rest.

        ``defer`` names users whose submissions must not be built yet — the
        staggered scheduler passes the previous round's ``notice_targets``,
        because those users' conversation state may flip when the previous
        round's fetch runs (an offline notice ends the conversation, turning
        next round's conversation message into a loopback).  Their builds
        happen in :meth:`finalize_collect`, after that fetch.  A user's own
        draw order never changes — only *when* it runs — so reports stay
        bit-identical to serial execution.

        """
        deployment = self.deployment
        spec = ctx.spec
        report = ctx.report
        online = []
        for user in deployment.users:
            if user.name in spec.offline_users:
                report.offline_users.append(user.name)
                covers = deployment._cover_store.pop(user.name, None)
                if covers is not None:
                    report.used_cover_for.append(user.name)
                    ctx.user_submissions[user.name] = list(covers)
                    if user.conversation is not None:
                        # The partner will find an offline notice in this
                        # round's mailbox; anyone scheduling ahead must wait
                        # for this round's fetch before building their next
                        # submissions.
                        ctx.notice_targets.add(user.conversation.partner_name)
                    # The cover set carried an offline notice to the partner
                    # (§5.3.3): from the user's own point of view the
                    # conversation is over until re-established out of band.
                    user.end_conversation()
                continue
            if user.name in defer:
                ctx.deferred_users.append(user.name)
                continue
            online.append(user)
        self._build_population_submissions(ctx, online)

    # -- population build path -----------------------------------------------------

    def _upload_submission_batches(
        self, ctx: RoundContext, per_chain: Dict[int, SubmissionBatch], cover: bool,
        part: Optional[int] = None, source: str = POPULATION,
    ) -> Dict[int, SubmissionBatch]:
        """Ship per-chain batches over the transport; the batches as delivered.

        One framed envelope crosses each (chain, entry-server) link per
        population chunk (``part``; ``None`` for injected extras), and the
        chains' envelopes go out together (``deliver_many``: TCP keeps them
        all in flight).
        """
        deployment = self.deployment
        envelopes = [
            submission_batch_envelope(
                chain_id,
                batch,
                deployment.entry_servers,
                ctx.round_number,
                cover=cover,
                part=part,
                source=source,
            )
            for chain_id, batch in per_chain.items()
        ]
        return dict(zip(per_chain, deployment.transport.deliver_many(envelopes)))

    def _scatter_batch(
        self, delivered: Dict[int, SubmissionBatch], users
    ) -> Dict[str, List[memoryview]]:
        """Rebuild per-user record lists from the delivered per-chain batches.

        Each chain's records are queued per sender (FIFO, so a link fault's
        duplicate or reordering keeps what it can); each user then takes one
        record from each of her chains' queues, in her own chain-slot order.
        A record is a view into its delivered batch: nothing is copied, and
        nothing is decoded beyond the sender.
        """
        population = self.deployment.population
        queues: Dict[int, Dict[str, deque]] = {}
        for chain_id, batch in delivered.items():
            chain_queues = queues[chain_id] = {}
            for sender, record in zip(batch.senders(), batch.records()):
                queue = chain_queues.get(sender)
                if queue is None:
                    queue = chain_queues[sender] = deque()
                queue.append(record)
        per_user: Dict[str, List[memoryview]] = {}
        for user in users:
            records = []
            for chain_id in population.chain_assignments[user.name]:
                queue = queues.get(chain_id, {}).get(user.name)
                if queue:
                    records.append(queue.popleft())
            per_user[user.name] = records
        # Anything left in a queue (a duplicated batch element from a link
        # fault) still belongs to its sender; append in chain order.
        for chain_id in sorted(queues):
            for sender, leftover in queues[chain_id].items():
                if sender in per_user and leftover:
                    per_user[sender].extend(leftover)
        return per_user

    def _build_population_submissions(self, ctx: RoundContext, users) -> None:
        """Build ``users``' submissions and bank next round's covers.

        Both the round's submissions and the next round's cover set cross the
        client→entry-server link *this* round (covers are banked ahead of
        time, §5.3.3), so both uploads are routed through the transport here.

        Streams through :func:`repro.population.streaming.built_chunks`:
        each chunk is built, uploaded as per-(chain, chunk) framed
        envelopes, and released before the next, so peak build memory is
        O(chunk).  Uploads run in (chunk, chain) order, so every transport
        sees the same deterministic envelope stream.
        """
        deployment = self.deployment
        population = deployment.population
        for chunk in built_chunks(
            population,
            ctx.round_number,
            ctx.current_views,
            ctx.next_views,
            users,
            ctx.spec.payloads,
            use_covers=deployment.config.use_cover_messages,
            map_chains=self.backend.map_chains,
        ):
            delivered = self._scatter_batch(
                self._upload_submission_batches(
                    ctx, chunk.submissions, cover=False, part=chunk.index
                ),
                chunk.users,
            )
            ctx.user_submissions.update(delivered)
            if chunk.covers is not None:
                banked = self._scatter_batch(
                    self._upload_submission_batches(
                        ctx, chunk.covers, cover=True, part=chunk.index
                    ),
                    chunk.users,
                )
                deployment._cover_store.update(banked)

    def _fold_user_submissions(self, ctx: RoundContext) -> Dict[int, list]:
        """Fold the per-user submission records into per-chain record lists.

        Walks the users in global (deployment) order — the one definition of
        which submissions are pending, shared by :meth:`finalize_collect`
        (assembling the mix batches) and the overlapped precompute
        (operating on the same pending set).  Every chain of the deployment
        gets a list, and a submission for a chain the deployment does not
        run fails loudly (``KeyError``) instead of being counted into a
        batch no chain will ever mix.
        """
        per_chain: Dict[int, list] = {chain.chain_id: [] for chain in self.deployment.chains}
        chain_of = SubmissionBatch.record_chain_id
        for user in self.deployment.users:
            for record in ctx.user_submissions.get(user.name, ()):
                per_chain[chain_of(record)].append(record)
        return per_chain

    @_stage("finalize_collect")
    def finalize_collect(self, ctx: RoundContext) -> None:
        """Build any deferred users' submissions and assemble the chain batches.

        Batches are assembled in global user order, then the extra
        submissions in spec order, so their contents are independent of
        which phase built each user.  Injected (possibly adversarial)
        submissions cross the same client→entry-server link as honest ones:
        one ``SUBMISSION_BATCH`` per chain, from the ``INJECTED`` source.
        """
        deployment = self.deployment
        self._build_population_submissions(
            ctx, [deployment.user(name) for name in ctx.deferred_users]
        )
        ctx.deferred_users = []
        records = self._fold_user_submissions(ctx)
        # The fold was the last reader of the per-user index: from here the
        # chain lists hold the only references to the records, so each
        # chain's list dies as soon as its batch is joined.
        ctx.user_submissions = {}
        extras: Dict[int, list] = {}
        for submission in ctx.spec.extra_submissions:
            if submission.chain_id in records:
                extras.setdefault(submission.chain_id, []).append(submission.to_bytes())
        if extras:
            injected = self._upload_submission_batches(ctx, {
                chain_id: SubmissionBatch.from_records(deployment.group, extras[chain_id])
                for chain_id in sorted(extras)
            }, cover=False, source=INJECTED)
            for chain_id, batch in injected.items():
                records[chain_id].extend(batch.records())
        ctx.per_chain = {
            chain_id: SubmissionBatch.from_records(deployment.group, records.pop(chain_id))
            for chain_id in list(records)
        }
        ctx.report.total_submissions = sum(len(batch) for batch in ctx.per_chain.values())

    # -- precompute stage (§5.2.1 / DESIGN.md §8) ---------------------------------

    def _chains_of(self, per_chain: Dict[int, SubmissionBatch]) -> list:
        """The deployment's chains that ``per_chain`` names, in chain order:
        every chain in process, the one chain a mix role was asked to run."""
        return [chain for chain in self.deployment.chains if chain.chain_id in per_chain]

    def _precompute_batches(
        self, ctx: RoundContext, per_chain: Dict[int, SubmissionBatch]
    ) -> None:
        """Cascade the chains' public-key precompute over pending submissions.

        Incremental: members skip publics already in their round tables, so
        calling this once from the overlap window and again after
        :meth:`finalize_collect` only pays for the entries the first pass
        could not see (deferred users, injected extras).  The per-chain
        work fans out through the backend's ``map_chains``.
        """

        def run_chain(chain) -> None:
            submissions = per_chain[chain.chain_id]
            if submissions:
                with trace.span(chain_id=chain.chain_id, entries=len(submissions)):
                    chain.precompute_round(ctx.round_number, submissions)

        self.backend.map_chains(run_chain, self._chains_of(per_chain))

    @_stage("precompute")
    def precompute(self, ctx: RoundContext) -> None:
        """Run the round's public-key work ahead of the online mix phase.

        Operates on the assembled chain batches, so it is complete after
        :meth:`finalize_collect`.  Skipping it is harmless: a member's
        online pass fills whatever its table lacks before reading it (the
        online-only arm the parity table and the benchmarks hold it to).
        """
        self._precompute_batches(ctx, ctx.per_chain)

    @_stage("precompute")
    def precompute_collected(self, ctx: RoundContext) -> None:
        """Early precompute over whatever :meth:`collect` has built so far.

        The staggered scheduler calls this inside the overlap window, while
        the previous round is still mixing, so the bulk of round *r*'s
        public-key work hides behind round *r − 1*'s online phase.  It fans
        out like any stage: the coordinating thread drains its own chains,
        so it never waits on helpers the in-flight mix keeps busy.
        Deferred users and extra submissions are not built yet; the
        post-finalize :meth:`precompute` tops those up.
        """
        group = self.deployment.group
        self._precompute_batches(ctx, {
            chain_id: SubmissionBatch.from_records(group, chain_records)
            for chain_id, chain_records in self._fold_user_submissions(ctx).items()
        })

    @_stage("mix")
    def mix(self, ctx: RoundContext) -> None:
        """Run the aggregate hybrid shuffle on the round's chains via the backend.

        This is the protocol's *online* phase; its span in the round's trace
        (the client-NIZK intake nested in it as stage ``accept``) is what the
        precompute win is measured against (the fig4/fig5 companions).
        Each chain hands its hops to the deployment's transport.
        """
        transport = self.deployment.transport

        def accept_chain(chain) -> List[str]:
            submissions = ctx.per_chain.pop(chain.chain_id)
            with trace.span(chain_id=chain.chain_id, entries=len(submissions)):
                _, rejected = chain.accept_submissions(ctx.round_number, submissions)
            return rejected

        def run_chain(chain):
            with trace.span(chain_id=chain.chain_id):
                return chain.run_round(ctx.round_number, transport)

        # Every chain accepts up front, before any chain mixes: each
        # acceptance slices its EncodedBatch out of the submission records
        # and keeps only the senders for blame, so the engine can release
        # the submission batches — the round's largest structure — for
        # *every* chain before the first mix's transient working set stacks
        # on top of it.  Intake is transport-free, so it fans out like the
        # mix; the two maps stay separate to keep that order.
        chains = self._chains_of(ctx.per_chain)
        with ctx.report.trace.stage("accept"):
            rejected = self.backend.map_chains(accept_chain, chains)
        results = self.backend.map_chains(run_chain, chains)
        ctx.chain_outcomes = {
            chain.chain_id: ChainOutcome(chain.chain_id, senders, result)
            for chain, senders, result in zip(chains, rejected, results)
        }

    @_stage("deliver")
    def deliver(self, ctx: RoundContext) -> None:
        """Fold chain outcomes into the report and deliver mailbox messages.

        Runs in chain order regardless of how the backend scheduled the
        mixing, so report fields and mailbox contents are deterministic.
        """
        deployment = self.deployment
        report = ctx.report
        for chain in deployment.chains:
            outcome = ctx.chain_outcomes[chain.chain_id]
            result = outcome.result
            report.rejected_senders.extend(outcome.accept_rejected)
            report.chain_results[chain.chain_id] = result
            report.rejected_senders.extend(
                sender
                for sender in result.rejected_senders
                if sender not in report.rejected_senders
            )
            if not result.delivered:
                # A halted chain deleted its inner keys as it halted (§6.4);
                # the rest of its round's records waits for recover().
                continue
            # Nothing reads a delivered round's chain state again; it is
            # freed on the coordinating thread, for any helper count.
            chain.release_round(ctx.round_number)
            # The last server of the chain ships the recovered records to
            # the mailbox tier as one framed message per (chain, chunk), so
            # the mailbox hub's intake is incremental and the largest single
            # wire message stays bounded.  deliver_batch preserves
            # per-recipient arrival order across successive calls, so
            # chunked delivery leaves mailbox contents bit-identical.
            batch = result.mailbox_messages
            for part, span in enumerate(index_spans(len(batch))):
                delivered = deployment.transport.deliver(
                    Envelope(
                        kind=MAILBOX_DELIVERY,
                        source=chain.members[-1].server_name,
                        destination="mailbox-hub",
                        round_number=ctx.round_number,
                        payload=batch.select(span),
                        chain_id=chain.chain_id,
                        part=part,
                    )
                )
                report.dropped_unknown_recipients += (
                    deployment.mailboxes.deliver_batch(ctx.round_number, delivered)
                )
        # Server convictions (blame verdicts, proof failures) become pending
        # recoveries: the coordinator evicts and re-forms on an explicit
        # Deployment.recover(), never mid-pipeline — see that method's note
        # on scheduler parity.  Recorded here, in chain order on the
        # coordinating thread, so any helper count records the same sequence.
        for chain_id, servers in report.server_convictions().items():
            deployment.note_convictions(ctx.round_number, chain_id, servers)

    @_stage("fetch")
    def fetch(self, ctx: RoundContext) -> None:
        """Every online user fetches and decrypts her mailbox.

        The downloads are framed per mailbox shard (one envelope per shard
        instead of one per user) and the population opens each envelope's
        records where they lie, one AEAD call per envelope — no object is
        built.  The users are walked in population chunks: each chunk's
        downloads are framed per (shard, chunk) and decrypted before the
        next chunk's are fetched, so the fetch stage holds O(chunk) inboxes
        at a time.  Mailbox classification is per (user, message), so
        chunking cannot change any outcome; chunks are decrypted in order,
        so the §5.3.3 mark-partner-offline side effects land in the same
        user order too.
        """
        deployment = self.deployment
        population = deployment.population
        report = ctx.report
        users = [
            user for user in deployment.users if user.name not in ctx.spec.offline_users
        ]
        for part, span in enumerate(chunk_spans(users)):
            with trace.span(part=part, entries=len(span)):
                fetches = [
                    deployment.transport.deliver(
                        Envelope(
                            kind=MAILBOX_FETCH_BATCH,
                            source=server.name,
                            destination=POPULATION,
                            round_number=ctx.round_number,
                            payload=deployment.mailboxes.fetch_batch(ctx.round_number, owners),
                            part=part,
                        )
                    )
                    for server, owners in deployment.mailboxes.shard_owners(
                        [user.public_bytes for user in span]
                    )
                ]
                received = population.decrypt_mailboxes_batch(ctx.round_number, span, fetches)
                for user in span:
                    report.mailbox_counts[user.name] = len(received[user.name])
                report.delivered.update(received)

    def close(self) -> None:
        self.backend.close()
