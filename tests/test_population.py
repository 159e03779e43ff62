"""The vectorized user-population layer (DESIGN.md §7).

Three properties are enforced here, below the end-to-end parity tables of
``test_engine_parity.py``:

1. the batched crypto primitives (ChaCha20 block batches, AEAD batches,
   fixed-point scalar batches) are bit-identical to their scalar
   references, under hypothesis-generated inputs;
2. the population's whole-chain build produces the *same submission
   objects* (field for field) as the per-user oracle (``tests/user_oracle.py``)
   given identical RNG state, and its fetch cascade classifies mailboxes
   identically;
3. the new batch wire codecs round-trip losslessly and reject malformed
   frames with :class:`DecodingError` (framing fuzz).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import chain_selection
from repro.crypto import kernels
from repro.crypto.aead import adec, adec_batch, aenc, aenc_batch
from repro.crypto.chacha20 import chacha20_block, chacha20_blocks_batch
from repro.crypto.group import ModPGroup
from repro.crypto.kdf import loopback_key
from repro.crypto.nizk import prove_dlog
from repro.errors import DecodingError
from repro.mixnet.messages import (
    ClientSubmission,
    FetchBatch,
    MailboxMessage,
    MessageBody,
    SubmissionBatch,
)
from repro.transport import (
    COVER_SUBMISSION_BATCH,
    MAILBOX_FETCH_BATCH,
    SUBMISSION_BATCH,
    Envelope,
)
from repro.transport.codec import decode_payload, encode_payload
from repro.transport.envelope import submission_batch_envelope

from tests import user_oracle
from tests.conftest import forbid, make_deployment, native_dispatches

MODP = ModPGroup(bits=64)


def deployment_pair(**kwargs):
    """Two identically-seeded deployments: the per-user oracle and the
    production population."""
    kwargs = {"seed": 77, **kwargs}
    reference = make_deployment(**kwargs)
    user_oracle.install(reference)
    return reference, make_deployment(**kwargs)


# ---------------------------------------------------------------------------
# 1. batched crypto primitives == scalar references
# ---------------------------------------------------------------------------


class TestBatchedPrimitives:
    @given(st.lists(st.tuples(st.binary(min_size=32, max_size=32),
                              st.binary(min_size=12, max_size=12),
                              st.integers(min_value=0, max_value=2**32 - 1)),
                    min_size=0, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_block_batch_matches_scalar(self, triples):
        keys = [t[0] for t in triples]
        nonces = [t[1] for t in triples]
        counters = [t[2] for t in triples]
        flat = chacha20_blocks_batch(keys, nonces, counters)
        expected = b"".join(
            chacha20_block(key, counter, nonce)
            for key, nonce, counter in triples
        )
        assert flat == expected

    @given(st.lists(st.tuples(st.binary(min_size=32, max_size=32),
                              st.binary(min_size=0, max_size=400)),
                    min_size=0, max_size=30),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=25, deadline=None)
    def test_aead_batches_match_scalar(self, pairs, round_number):
        keys = [p[0] for p in pairs]
        plaintexts = [p[1] for p in pairs]
        sealed = aenc_batch(keys, round_number, plaintexts)
        assert sealed == [aenc(k, round_number, m) for k, m in zip(keys, plaintexts)]
        # Tamper with a few ciphertexts so both failure and success paths run.
        datas = [
            data if index % 3 else (b"\x00" * len(data))
            for index, data in enumerate(sealed)
        ]
        opened = adec_batch(keys, round_number, datas)
        assert opened == [adec(k, round_number, d) for k, d in zip(keys, datas)]

    @given(st.lists(st.integers(min_value=0, max_value=2**64), min_size=0, max_size=20),
           st.integers(min_value=2, max_value=2**60))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_batch_matches_scalar_modp(self, scalars, element_seed):
        point = MODP.scalar_mult(MODP.base(), element_seed)
        assert MODP.fixed_point_mult_batch(point, scalars) == [
            MODP.scalar_mult(point, scalar) for scalar in scalars
        ]

    def test_fixed_point_batch_matches_scalar_ed25519(self, ed_group):
        group = ed_group
        point = group.scalar_mult(group.base(), 987654321)
        scalars = [0, 1, 5, group.order - 1, 2**200 + 17]
        assert group.fixed_point_mult_batch(point, scalars) == [
            group.scalar_mult(point, scalar) for scalar in scalars
        ]
        assert group.fixed_point_mult_batch(group.identity(), scalars) == [
            group.scalar_mult(group.identity(), scalar) for scalar in scalars
        ]
        assert group.fixed_point_mult_batch(group.base(), scalars) == [
            group.scalar_mult(group.base(), scalar) for scalar in scalars
        ]


# ---------------------------------------------------------------------------
# 2. population build/fetch == per-user oracle at the object level
# ---------------------------------------------------------------------------


class TestPopulationSemantics:
    def test_each_fetch_envelope_is_one_open_classified_like_the_oracle(self):
        """Two fetch envelopes, one a user split from her partner's: a
        conversation message, an offline notice, a loopback, a record
        addressed to someone else and one sealed under no key of hers.  The
        population opens each envelope once and classifies every record —
        side effect included — as the per-user oracle does."""
        outcomes = []
        for oracle, deployment in zip((True, False), deployment_pair()):
            a, b, c = deployment.users[:3]
            deployment.start_conversation(a.name, b.name)

            def loopback(user):
                chain_id = deployment.population._trial_chains[user.name][-1]
                key = loopback_key(user.keypair.identity_secret_bytes(), chain_id)
                return MailboxMessage.seal(user.public_bytes, key, 5, MessageBody.loopback())

            def from_a(body):
                return MailboxMessage.seal(b.public_bytes, a.conversation.key_to_partner(), 5, body)

            b_mail = [
                from_a(MessageBody.data(b"hi")), loopback(b), loopback(c),
                MailboxMessage.seal(b.public_bytes, b"\x55" * 32, 5, MessageBody.data(b"?")),
                from_a(MessageBody.offline_notice()),
            ]
            fetches = [
                FetchBatch.from_inboxes([(b.public_bytes, [m.to_bytes() for m in b_mail])]),
                FetchBatch.from_inboxes([(c.public_bytes, [loopback(c).to_bytes()]),
                                         (a.public_bytes, [])]),
            ]
            if oracle or not kernels.native_available():
                received = deployment.population.decrypt_mailboxes_batch(5, [a, b, c], fetches)
            else:
                with native_dispatches() as counts:
                    received = deployment.population.decrypt_mailboxes_batch(5, [a, b, c], fetches)
                assert counts == {"xrd_aead_open_spans": 2}
            outcomes.append((received, b.conversation.partner_offline))
        assert outcomes[0] == outcomes[1]
        assert [m.kind for m in outcomes[1][0][b.name]] == [
            "conversation", "loopback", "unreadable", "unreadable", "offline-notice"
        ]

    def test_batched_build_produces_identical_submissions(self):
        reference, batched = deployment_pair()
        a, b = reference.users[0].name, reference.users[1].name
        reference.start_conversation(a, b)
        batched.start_conversation(a, b)
        # Once a chain has accepted it keeps the senders and the wire blob,
        # so whole submissions — chain id, sender, X, ciphertext, proof —
        # are compared where they still exist: in the engine's
        # per-chain lists, after collect and before mix consumes them.
        collected = []
        for deployment in (reference, batched):
            ctx = deployment.engine.prepare(deployment.round_spec(payloads={a: b"hello"}))
            deployment.engine.collect(ctx)
            deployment.engine.finalize_collect(ctx)
            collected.append((ctx, {cid: list(subs) for cid, subs in ctx.per_chain.items()}))
        (ref_ctx, ref_submissions), (bat_ctx, bat_submissions) = collected
        assert all(ref_submissions.values())
        assert bat_submissions == ref_submissions
        for chain_id, submissions in ref_submissions.items():
            assert [s.to_bytes() for s in bat_submissions[chain_id]] == [
                s.to_bytes() for s in submissions
            ]
        for deployment, ctx in ((reference, ref_ctx), (batched, bat_ctx)):
            deployment.engine.precompute(ctx)
            deployment.engine.mix(ctx)
        # What the chains accepted, observed while the round is still held
        # (deliver releases it).
        for chain_ref, chain_bat in zip(reference.chains, batched.chains):
            assert chain_bat.senders_for_round(1)
            assert chain_bat.senders_for_round(1) == chain_ref.senders_for_round(1)
            assert (
                chain_bat.members[0].round_record(1).inputs.blob
                == chain_ref.members[0].round_record(1).inputs.blob
            )
        for deployment, ctx in ((reference, ref_ctx), (batched, bat_ctx)):
            deployment.engine.deliver(ctx)
            deployment.engine.fetch(ctx)
        assert bat_ctx.report.canonical_bytes() == ref_ctx.report.canonical_bytes()

    def test_rounds_read_the_chain_fixed_at_agreement(self, monkeypatch):
        """Partners fix their intersection chain once, when they agree to
        talk (§5.3.2): no staggered round — covers banked and played, one
        user offline — asks chain selection for it again."""
        deployment = make_deployment(seed=5)
        a, b, c, d = (user.name for user in deployment.users[:4])
        deployment.start_conversation(a, b)
        deployment.start_conversation(c, d)
        forbid(monkeypatch, chain_selection.intersection_chain,
               chain_selection.intersection_logical_chain)
        reports = deployment.run_rounds([
            deployment.round_spec(payloads={a: b"hi", c: b"yo"}),
            deployment.round_spec(offline_users={b}),  # b's covers play
        ], staggered=True)
        assert reports[0].conversation_payloads(b) == [b"hi"]
        assert reports[0].conversation_payloads(d) == [b"yo"]
        assert deployment.user(a).conversation.partner_offline  # b's cover notice

    def test_population_rosters_cover_every_user_slot(self):
        _, batched = deployment_pair()
        population = batched.population
        total = sum(len(roster) for roster in population.chain_rosters.values())
        assert total == sum(
            len(assignment) for assignment in population.chain_assignments.values()
        )
        for name, assignment in population.chain_assignments.items():
            assert len(assignment) == batched.ell()
            for chain_id in assignment:
                assert name in population.chain_rosters[chain_id]

    def test_fetch_cascade_matches_per_user_decrypt(self):
        reference, batched = deployment_pair(seed=123)
        a, b = reference.users[0].name, reference.users[1].name
        reference.start_conversation(a, b)
        batched.start_conversation(a, b)
        specs = [
            {"payloads": {a: b"ping", b: b"pong"}},
            {"payloads": {}, "offline_users": {b}},  # offline notice lands at a
            {"payloads": {}},
        ]
        for spec in specs:
            ref_report = reference.run_round(**spec)
            bat_report = batched.run_round(**spec)
            assert bat_report.delivered == ref_report.delivered
            assert bat_report.mailbox_counts == ref_report.mailbox_counts
        # The §5.3.3 side effect happened on both sides.
        assert reference.user(a).conversation.partner_offline
        assert batched.user(a).conversation.partner_offline

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_chain_envelopes_of_a_pass_travel_together(self, transport):
        """One ``deliver_many`` per build pass, one envelope per chain in it
        (TCP pipelines them) — and nothing counted twice by an observer that
        wraps both entry points, as the benchmark's tracer does."""
        from repro.transport.envelope import COVER_SUBMISSION_BATCH, SUBMISSION_BATCH

        reference, batched = deployment_pair(transport=transport, use_cover_messages=True)
        reference.close()
        link = batched.transport
        batches, singles = [], []
        one, many = link.deliver, link.deliver_many
        link.deliver = lambda envelope: singles.append(envelope.kind) or one(envelope)
        link.deliver_many = lambda envelopes: (
            batches.append([(envelope.kind, envelope.chain_id) for envelope in envelopes])
            or many(envelopes)
        )
        batched.run_round()
        batched.close()
        chains = sorted(batched.population.chain_rosters)
        assert batches == [
            [(SUBMISSION_BATCH, chain_id) for chain_id in chains],
            [(COVER_SUBMISSION_BATCH, chain_id) for chain_id in chains],
        ]
        if transport == "inproc":  # the hand-off has no per-envelope call underneath
            assert not [kind for kind in singles if kind.endswith("submission-batch")]

    def test_link_faults_on_batch_frames(self):
        """Drop and duplicate faults compose with the batch frames: a
        dropped frame loses the whole chain's uploads (the engine skips the
        missing submissions), and a duplicated element re-enters sender-keyed
        scatter without corrupting other users' lists."""
        from repro.transport import SUBMISSION_BATCH
        from repro.transport.faulty import FaultyTransport, LinkFault

        _, batched = deployment_pair(seed=31)
        victim_chain = 0
        batched.use_transport(
            FaultyTransport(
                batched.transport,
                [LinkFault(behaviour="drop", kind=SUBMISSION_BATCH, chain_id=victim_chain)],
            ),
            close_previous=False,
        )
        report = batched.run_round()
        assert not report.chain_results[victim_chain].mailbox_messages
        expected = sum(
            1
            for user in batched.users
            for chain_id in batched.population.chain_assignments[user.name]
            if chain_id != victim_chain
        )
        assert report.total_submissions == expected

        _, duplicated = deployment_pair(seed=31)
        duplicated.use_transport(
            FaultyTransport(
                duplicated.transport,
                [LinkFault(behaviour="duplicate", kind=SUBMISSION_BATCH, chain_id=victim_chain)],
            ),
            close_previous=False,
        )
        report = duplicated.run_round()
        baseline = sum(
            len(assignment)
            for assignment in duplicated.population.chain_assignments.values()
        )
        assert report.total_submissions == baseline + 1
        assert report.all_chains_delivered()

    def test_recovery_keeps_population_consistent(self):
        """Chain re-formation never invalidates the columnar views."""
        from repro.faults.runner import ScenarioRunner
        from repro.faults.scenarios import tamper_and_recover
        from tests.test_faults import build

        reports = []
        for oracle in (True, False):
            deployment = build()
            if oracle:
                user_oracle.install(deployment)
            reports.append(ScenarioRunner(deployment, tamper_and_recover()).run())
            deployment.close()
        assert reports[1].canonical_bytes() == reports[0].canonical_bytes()


# ---------------------------------------------------------------------------
# 3. batch codec round-trips and framing fuzz
# ---------------------------------------------------------------------------


def make_submission(group, chain_id, sender, ciphertext):
    secret = group.random_scalar()
    return ClientSubmission(
        chain_id=chain_id,
        sender=sender,
        dh_public=group.encode(group.base_mult(secret)),
        ciphertext=ciphertext,
        proof=prove_dlog(group, group.base(), secret),
    )


def envelope(kind, payload, **kwargs):
    defaults = dict(source="src", destination="dst", round_number=1)
    defaults.update(kwargs)
    return Envelope(kind=kind, payload=payload, **defaults)


class TestSubmissionBatchCodec:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                              st.text(alphabet="abcdefuser-0123456789", min_size=1, max_size=16),
                              st.binary(min_size=0, max_size=120)),
                    min_size=0, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, specs):
        submissions = [
            make_submission(MODP, chain_id, sender, ciphertext)
            for chain_id, sender, ciphertext in specs
        ]
        batch = SubmissionBatch.from_submissions(MODP, submissions)
        for kind in (SUBMISSION_BATCH, COVER_SUBMISSION_BATCH):
            wire = encode_payload(MODP, envelope(kind, batch))
            decoded = decode_payload(MODP, kind, wire)
            assert isinstance(decoded, SubmissionBatch) and decoded.to_wire() == wire
            assert list(decoded) == submissions

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_framing_fuzz_truncation(self, data):
        submissions = [
            make_submission(MODP, index, f"user-{index}", b"ct" * index)
            for index in range(3)
        ]
        wire = encode_payload(
            MODP, envelope(SUBMISSION_BATCH, SubmissionBatch.from_submissions(MODP, submissions))
        )
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        mutated = wire[:cut]
        with pytest.raises(DecodingError):
            decode_payload(MODP, SUBMISSION_BATCH, mutated)

    def test_trailing_bytes_rejected(self):
        batch = SubmissionBatch.from_submissions(MODP, [make_submission(MODP, 1, "u", b"c")])
        wire = encode_payload(MODP, envelope(SUBMISSION_BATCH, batch))
        with pytest.raises(DecodingError):
            decode_payload(MODP, SUBMISSION_BATCH, wire + b"\x00")

    def test_envelope_builder_labels_the_link(self):
        submissions = SubmissionBatch.from_submissions(MODP, [make_submission(MODP, 2, "user-1", b"c")])
        built = submission_batch_envelope(2, submissions, {2: "server-7"}, 9, cover=True)
        assert built.payload is submissions
        assert built.kind == COVER_SUBMISSION_BATCH
        assert built.destination == "server-7"
        assert built.chain_id == 2
        assert built.round_number == 9


class TestFetchBatchCodec:
    @given(st.lists(st.tuples(st.binary(min_size=32, max_size=32),
                              st.lists(st.binary(min_size=0, max_size=60), max_size=4)),
                    min_size=0, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, owner_specs):
        pairs = [
            (
                owner,
                [
                    MailboxMessage.seal(owner, b"\x07" * 32, 3, MessageBody.data(content))
                    for content in contents
                ],
            )
            for owner, contents in owner_specs
        ]
        inboxes = [(owner, [message.to_bytes() for message in messages]) for owner, messages in pairs]
        wire = encode_payload(MODP, envelope(MAILBOX_FETCH_BATCH, FetchBatch.from_inboxes(inboxes)))
        decoded = decode_payload(MODP, MAILBOX_FETCH_BATCH, wire)
        assert [(owner, list(messages)) for owner, messages in decoded] == pairs

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_framing_fuzz_truncation(self, data):
        owner = b"\x05" * 32
        inboxes = [
            (owner, [MailboxMessage.seal(owner, b"\x07" * 32, 1, MessageBody.loopback()).to_bytes()])
        ]
        wire = encode_payload(MODP, envelope(MAILBOX_FETCH_BATCH, FetchBatch.from_inboxes(inboxes)))
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        with pytest.raises(DecodingError):
            decode_payload(MODP, MAILBOX_FETCH_BATCH, wire[:cut])

    def test_trailing_bytes_rejected(self):
        wire = encode_payload(MODP, envelope(MAILBOX_FETCH_BATCH, FetchBatch.from_inboxes([])))
        with pytest.raises(DecodingError):
            decode_payload(MODP, MAILBOX_FETCH_BATCH, wire + b"\xff")
