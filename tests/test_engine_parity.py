"""Engine parity: every transport/backend/scheduler combination is bit-identical.

The acceptance property of the engine and transport refactors: with a fixed
deployment seed, every cell of the matrix

    {InProcTransport, InstrumentedTransport}
        × {SerialBackend, ParallelBackend with one pinned helper}
        × {sequential, staggered}

delivers byte-identical :class:`RoundReport` payloads across multi-round
conversations, including offline/cover rounds and adversarial extra
submissions.  ``RoundReport.canonical_bytes`` hashes everything observable
about a round (delivered messages, mailbox counts, per-chain statuses and
mailbox message bytes, rejections, cover plays), so equality here means the
execution strategy *and* the transport are unobservable.  For the
instrumented transport the property is stronger still: every delivered
payload was re-decoded from its wire bytes, so parity proves the codecs of
:mod:`repro.transport.codec` lossless.

The reference every cell is held to is pinned: :data:`GOLDEN` holds the
digests the per-user client path produced before the population became the
only client executor, and ``tests/user_oracle.py`` — that path, kept as the
oracle — still reproduces them (:class:`TestGoldenDigests`).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.engine import ParallelBackend, RoundEngine, SerialBackend, StaggeredScheduler
from repro.crypto import kernels

from benchmarks.conftest import online_only
from tests import user_oracle
from tests.conftest import BACKENDS, RecordingTransport, install_backend
from tests.test_ahs_protocol import make_submission

TRANSPORTS = ("inproc", "instrumented")

#: sha256[:16] of ``canonical_bytes()`` for :func:`build` (group swapped):
#: the six reports of :func:`conversation_script` and the
#: :class:`~repro.faults.runner.ScenarioReport` of ``tamper_and_recover()``.
GOLDEN = {
    "modp": {
        "honest": [
            "46a8ee3bd39341d9", "2dbb4df5ba7bca45", "3c02315e30b64c5b",
            "87f1d9ea6ccee2e3", "d798b0780b6b822b", "523657d2fa3ac187",
        ],
        "blame": "892fb1dc2b0156c1",
    },
    "ed25519": {
        "honest": [
            "54d504a7b41bc2b0", "73234ecfdf1b2b9e", "1cbe5a90d61d8d90",
            "5f15d73901da0e9d", "ad61b0aa361ea517", "0ba12a21a920b7e6",
        ],
        "blame": "cae9e33037d52cc7",
    },
}
#: The reference of every modp matrix cell below.
REFERENCE = GOLDEN["modp"]["honest"]

_PROPERTY_GROUP = None


def _property_group():
    """One shared ModP group for the hypothesis parity properties (its safe
    prime search is the expensive part, not the arithmetic)."""
    global _PROPERTY_GROUP
    if _PROPERTY_GROUP is None:
        from repro.crypto.group import ModPGroup

        _PROPERTY_GROUP = ModPGroup()
    return _PROPERTY_GROUP


def build(backend="production", seed=42, transport="inproc", **kwargs):
    kwargs = {"group_kind": "modp", "num_servers": 4, "num_users": 6, "num_chains": 3,
              "chain_length": 2, **kwargs}
    config = DeploymentConfig(seed=seed, transport=transport, **kwargs)
    return install_backend(Deployment.create(config), backend)


def conversation_script(deployment):
    """A six-round script exercising payloads, idle rounds, and churn."""
    a, b = deployment.users[0].name, deployment.users[1].name
    c, d = deployment.users[2].name, deployment.users[3].name
    deployment.start_conversation(a, b)
    deployment.start_conversation(c, d)
    return [
        deployment.round_spec(payloads={a: b"r1-a", b: b"r1-b", c: b"r1-c"}),
        # b vanishes: her banked cover is played and a receives the offline
        # notice in this round's fetch — the data dependency the staggered
        # scheduler must honour.
        deployment.round_spec(payloads={a: b"r2-a"}, offline_users={b}),
        deployment.round_spec(payloads={c: b"r3-c", d: b"r3-d"}),
        deployment.round_spec(offline_users={d}),
        deployment.round_spec(payloads={a: b"r5-a"}),
        deployment.round_spec(),
    ]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprints(reports):
    return [digest(report.canonical_bytes()) for report in reports]


def blame_fingerprint(deployment, staggered=False):
    """``tamper_and_recover()`` on ``deployment`` (closed after), digested."""
    from repro.faults.runner import ScenarioRunner
    from repro.faults.scenarios import tamper_and_recover

    try:
        report = ScenarioRunner(deployment, tamper_and_recover(), staggered=staggered).run()
    finally:
        deployment.close()
    return digest(report.canonical_bytes())


class TestGoldenDigests:
    """The pinned reference, on both groups and both kernel tiers."""

    @pytest.mark.parametrize("group_kind", sorted(GOLDEN))
    def test_honest_rounds(self, group_kind, tier):
        deployment = build(group_kind=group_kind)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == GOLDEN[group_kind]["honest"]

    @pytest.mark.parametrize("group_kind", sorted(GOLDEN))
    def test_blame_scenario(self, group_kind, tier):
        assert blame_fingerprint(build(group_kind=group_kind)) == GOLDEN[group_kind]["blame"]

    @pytest.mark.parametrize("group_kind", sorted(GOLDEN))
    def test_user_oracle_reproduces_the_pins(self, group_kind):
        """The digests are the per-user path's: the oracle, run through the
        engine user by user, lands on every one of them."""
        deployment = build(group_kind=group_kind)
        user_oracle.install(deployment)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == GOLDEN[group_kind]["honest"]
        oracle = build(group_kind=group_kind)
        user_oracle.install(oracle)
        assert blame_fingerprint(oracle) == GOLDEN[group_kind]["blame"]


class TestTransportBackendMatrix:
    """The full transports × backends parity matrix on the six-round script.

    For the instrumented cells every delivered submission crossed the wire
    inside a framed ``SUBMISSION_BATCH`` / ``MAILBOX_FETCH_BATCH`` envelope
    and was re-decoded from those bytes, so equality here also proves the
    batch codecs lossless.
    """

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matrix_cell_matches_reference(self, transport, backend):
        deployment = build(backend, transport=transport)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == REFERENCE

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matrix_cell_matches_reference_staggered(self, transport, backend):
        deployment = build(backend, transport=transport)
        actual = fingerprints(
            deployment.run_rounds(conversation_script(deployment), staggered=True)
        )
        deployment.close()
        assert actual == REFERENCE

    def test_instrumented_ledgers_agree_across_backends(self):
        """Per-round byte totals are backend-independent."""
        totals = []
        for backend in BACKENDS:
            deployment = build(backend, transport="instrumented")
            deployment.run_rounds(conversation_script(deployment))
            ledger = deployment.traffic_ledger
            totals.append([ledger.bytes_by_kind(r) for r in range(1, 7)])
            deployment.close()
        assert totals[0] == totals[1]

    @pytest.mark.parametrize("transport", TRANSPORTS + ("tcp",))
    def test_deferred_users_build_through_the_population(self, transport, monkeypatch):
        """The users a staggered run defers (offline-notice targets, built
        after the previous round's fetch) take the population's batched
        build like everyone else — a build of exactly the deferred users."""
        deployment = build(transport=transport)
        population = deployment.population
        calls = []
        batch_build = population.build_round_submissions_batch

        def recording_build(round_number, views, users, **kwargs):
            calls.append([user.name for user in users])
            return batch_build(round_number, views, users, **kwargs)

        monkeypatch.setattr(population, "build_round_submissions_batch", recording_build)
        deferred_builds = []
        finalize = deployment.engine.finalize_collect

        def recording_finalize(ctx):
            deferred, start = list(ctx.deferred_users), len(calls)
            finalize(ctx)
            if deferred:
                deferred_builds.append((deferred, calls[start:]))

        monkeypatch.setattr(deployment.engine, "finalize_collect", recording_finalize)
        actual = fingerprints(
            deployment.run_rounds(conversation_script(deployment), staggered=True)
        )
        deployment.close()
        assert actual == REFERENCE
        assert deferred_builds  # the script did defer someone
        for deferred, built in deferred_builds:
            assert built and all(names == deferred for names in built)

    def test_matches_oracle_without_cover_messages(self):
        oracle = build(use_cover_messages=False)
        user_oracle.install(oracle)
        production = build(use_cover_messages=False)
        expected = fingerprints(oracle.run_rounds(conversation_script(oracle)))
        actual = fingerprints(production.run_rounds(conversation_script(production)))
        assert actual == expected

    def test_matches_oracle_with_extra_submissions(self):
        """Injected adversarial submissions ride the per-submission path
        unchanged while honest traffic is batched."""

        def run(oracle):
            deployment = build(seed=9)
            if oracle:
                user_oracle.install(deployment)
            chain = deployment.chains[0]
            deployment.engine.announce(1)
            forged = make_submission(
                deployment.group,
                chain,
                1,
                "mallory",
                deployment.users[0].public_bytes,
                b"\x07" * 32,
            )
            bad = type(forged)(
                chain_id=forged.chain_id,
                sender="mallory",
                dh_public=forged.dh_public,
                ciphertext=forged.ciphertext,
                proof=type(forged.proof)(commitment=forged.proof.commitment, response=1),
            )
            reports = deployment.run_rounds(
                [deployment.round_spec(extra_submissions=[bad]), deployment.round_spec()]
            )
            deployment.close()
            return reports

        expected = run(oracle=True)
        actual = run(oracle=False)
        assert expected[0].rejected_senders == ["mallory"]
        assert fingerprints(actual) == fingerprints(expected)

    def test_ledger_uses_batch_frames(self):
        from repro.transport import MAILBOX_FETCH_BATCH, SUBMISSION_BATCH

        deployment = build(transport="instrumented")
        deployment.run_round()
        kinds = set(deployment.traffic_ledger.bytes_by_kind(1))
        assert SUBMISSION_BATCH in kinds
        assert MAILBOX_FETCH_BATCH in kinds
        # One framed upload per chain, not one per (user, chain).
        submission_records = [
            record
            for record in deployment.traffic_ledger.records
            if record.kind == SUBMISSION_BATCH
        ]
        assert len(submission_records) == deployment.num_chains
        deployment.close()


#: The streaming-pipeline axis of the parity matrix (ISSUE 6): the
#: monolithic whole-population pass and chunked builds.  With 6 users, chunk
#: size 2 streams three equal chunks a round and chunk size 4 a full chunk
#: followed by a short one.
CHUNKINGS = (
    pytest.param({}, id="monolithic"),
    pytest.param({"population_chunk_size": 2}, id="chunked-serial"),
    pytest.param({"population_chunk_size": 4}, id="chunked-ragged"),
)


class TestStreamingParity:
    """The streaming population pipeline matches the pinned reference across
    {monolithic, chunked} × {backend} × {transport} × {scheduler} (ISSUE 6).

    The chunked cells stream every flow: per-(chain, chunk) submission
    uploads, per-(chain, chunk) mailbox deliveries, and per-(shard, chunk)
    fetch downloads.
    """

    @pytest.mark.parametrize("staggered", (False, True))
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_streaming_matrix_cell(self, chunking, backend, transport, staggered):
        deployment = build(backend, transport=transport, **chunking)
        actual = fingerprints(
            deployment.run_rounds(conversation_script(deployment), staggered=staggered)
        )
        deployment.close()
        assert actual == REFERENCE

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_streaming_blame_recovery_cell(self, chunking):
        """Blame, eviction, and chain re-formation under streamed builds."""
        for backend, staggered in (("serial", False), ("parallel", True)):
            assert (
                blame_fingerprint(build(backend, **chunking), staggered)
                == GOLDEN["modp"]["blame"]
            )

    def test_chunk_sizes_beyond_population_match(self):
        """chunk=1 (one user per frame) and chunk≫users (single chunk)."""
        for chunk_size in (1, 100):
            deployment = build(population_chunk_size=chunk_size)
            actual = fingerprints(
                deployment.run_rounds(conversation_script(deployment))
            )
            deployment.close()
            assert actual == REFERENCE

    def test_streaming_ledger_frames_per_chunk(self):
        """The instrumented ledger sees one framed upload per (chain, chunk)."""
        from repro.transport import SUBMISSION_BATCH

        deployment = build(transport="instrumented", population_chunk_size=2)
        deployment.run_round()
        submission_records = [
            record
            for record in deployment.traffic_ledger.records
            if record.kind == SUBMISSION_BATCH
        ]
        # One framed upload per (chain, chunk) the chunk's users touch — 6
        # users in chunks of 2 → 3 chunks — instead of one per chain.
        assignments = deployment.population.chain_assignments
        users = deployment.users
        expected = sum(
            len({chain for user in users[start:start + 2] for chain in assignments[user.name]})
            for start in range(0, len(users), 2)
        )
        assert expected > deployment.num_chains
        assert len(submission_records) == expected
        deployment.close()


class TestPrecomputeParity:
    """The AHS precompute phase is bit-identical to the online path (ISSUE 5).

    The chains' public-key work runs in the engine's precompute stage —
    overlapped with the previous round's mixing under the staggered
    scheduler — and the online mix phase serves blinded keys and layer keys
    from the cached tables (every cell of :class:`TestTransportBackendMatrix`
    runs so).  With the two precompute stages switched off on one engine
    (:func:`~benchmarks.conftest.online_only`) the members derive every key
    inline while mixing; that online-only path must equal the same pinned
    reference in every cell of {serial, parallel} × {inproc, instrumented}
    × {sequential, staggered}, including rounds after a blame conviction and
    chain re-formation.
    """

    @pytest.mark.parametrize("staggered", (False, True))
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_online_only_path_matches_reference(self, backend, transport, staggered):
        deployment = online_only(build(backend, transport=transport))
        reports = deployment.run_rounds(conversation_script(deployment), staggered=staggered)
        deployment.close()
        assert fingerprints(reports) == REFERENCE
        assert not any("precompute" in report.stage_seconds for report in reports)

    def test_precompute_stage_recorded_in_process_absent_under_remote_mix(self):
        deployment = build()
        report = deployment.run_round()
        assert "precompute" in report.stage_seconds and "mix" in report.stage_seconds
        # Under the distributed runtime the owning mix roles precompute
        # inside the MIX RPC; the coordinator's replica never does.
        deployment.remote_mix = object()
        engine = deployment.engine
        ctx = engine.prepare(deployment.round_spec())
        for stage in (engine.collect, engine.precompute_collected,
                      engine.finalize_collect, engine.precompute):
            stage(ctx)
        assert "precompute" not in ctx.report.stage_seconds
        for chain in deployment.chains:
            for member in chain.members:
                assert member.round_record(ctx.round_number).precomputed is None
        deployment.close()

    def test_precompute_survives_blame_recovery(self):
        """Post-``recover()`` rounds stay bit-identical, precomputed or not.

        The tamper scenario convicts a server at round 2, evicts it, and
        re-forms the chain; rounds 3+ run on fresh members whose precompute
        tables are rebuilt for the new ceremony.
        """
        for deployment, staggered in (
            (online_only(build()), False), (build(), False), (build("parallel"), True),
        ):
            assert blame_fingerprint(deployment, staggered) == GOLDEN["modp"]["blame"]

    def test_reform_invalidates_old_chain_precompute(self):
        """A halted round keeps its records until ``recover()``, where the
        tables die with the re-formed chain's retired members; the chains
        that delivered the same round released it at deliver."""
        from repro.coordinator.adversary import (
            MODE_TAMPER_CIPHERTEXT,
            install_tampering_server,
        )

        deployment = build()
        install_tampering_server(deployment, 0, 0, MODE_TAMPER_CIPHERTEXT)
        report = deployment.run_round()
        old_chain = deployment.chains[0]
        assert not report.chain_results[old_chain.chain_id].delivered
        assert old_chain.submissions_for_round(1) and 1 in old_chain._entries
        for member in old_chain.members:
            record = member.round_record(1)
            assert record.precomputed and record.inputs is not None
        for chain in deployment.chains[1:]:
            assert 1 not in chain._entries and 1 not in chain._aggregate_inner
            assert all(1 not in member._rounds for member in chain.members)
        deployment.recover()
        for member in old_chain.members:
            assert member.round_record(1).precomputed is None
        # The re-formed chain (fresh members, fresh ceremony) still delivers.
        assert deployment.chains[0] is not old_chain
        report = deployment.run_round()
        assert report.all_chains_delivered()
        assert "precompute" in report.stage_seconds
        deployment.close()


class TestRoundStateLifetime:
    """A round's state lives until it is over: delivered for the chains,
    fetched for the mailbox tier.  After twelve rounds of conversations and
    churn, nothing is left but what the next rounds already announced and
    what offline users have not fetched."""

    @staticmethod
    def _script(deployment):
        # Users b and d each miss a round and come back; in the last round
        # b and c are offline, so the run ends with unfetched mail.
        specs = conversation_script(deployment) + conversation_script(deployment)
        b, c = deployment.users[1].name, deployment.users[2].name
        specs[-1] = deployment.round_spec(offline_users={b, c})
        return specs

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("covers", (True, False), ids=("covers", "no-covers"))
    @pytest.mark.parametrize("staggered", (False, True), ids=("sequential", "staggered"))
    def test_only_undelivered_and_unfetched_rounds_remain(self, staggered, covers, backend):
        deployment = build(backend, use_cover_messages=covers)
        specs = self._script(deployment)
        reports = deployment.run_rounds(specs, staggered=staggered)
        deployment.close()
        assert len(reports) == 12
        assert all(report.all_chains_delivered() for report in reports)
        announced = {deployment.next_round, deployment.next_round + 1}
        for chain in deployment.chains:
            assert not chain._entries and not chain._submissions
            assert set(chain._aggregate_inner) == set(chain._inner_publics) <= announced
            for member in chain.members:
                assert set(member._rounds) <= announced
                assert all(record.inputs is None for record in member._rounds.values())
        names = {user.public_bytes: user.name for user in deployment.users}
        held = {
            (names[owner], round_number)
            for server in deployment.mailboxes.servers
            for owner, mailbox in server._mailboxes.items()
            for round_number, messages in mailbox._rounds.items()
            if messages
        }
        last_round = reports[-1].round_number
        still_offline = {(name, last_round) for name in reports[-1].offline_users}
        # Only the rounds of users offline since their last fetch wait in
        # the hub — and they do wait; a returning user's fetch dropped the
        # rounds she missed, so churn leaves nothing behind.
        assert held and held <= still_offline


class TestPrecomputePropertyParity:
    """Hypothesis: member-level precompute + slim online == plain online.

    For arbitrary entry batches — valid submissions, tampered ciphertexts
    (the blame/failed-open path), or a mix — ``precompute_round`` followed
    by ``process_round`` must produce exactly the ``MixStepResult`` that
    ``process_round`` alone produces on an identically-seeded twin member.
    """

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_precompute_then_online_equals_process_round(self, data):
        from repro.crypto.keys import KeyPair
        from repro.mixnet.messages import BatchEntry, EncodedBatch
        from tests.test_ahs_protocol import build_chain

        group = _property_group()
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=0, max_value=4), label="entries")
        corrupt = data.draw(
            st.lists(st.booleans(), min_size=count, max_size=count), label="corrupt"
        )
        online = build_chain(group, length=2, seed=seed)
        precomputed = build_chain(group, length=2, seed=seed)
        online.begin_round(1)
        precomputed.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(
                group, online, 1, f"user-{index}", recipient.public_bytes,
                bytes([index + 1]) * 32,
            )
            for index in range(count)
        ]

        def entries_for(chain):
            accepted, rejected = chain.accept_submissions(1, submissions)
            assert rejected == []
            entries = list(accepted)
            for index, flag in enumerate(corrupt):
                if flag:  # tampered ciphertext → failed open → blame path
                    entries[index] = BatchEntry(
                        dh_public=entries[index].dh_public,
                        ciphertext=bytes([entries[index].ciphertext[0] ^ 0xFF])
                        + entries[index].ciphertext[1:],
                    )
            return EncodedBatch.from_entries(group, entries)

        entries = entries_for(online)
        twin_entries = entries_for(precomputed)
        member_online = online.members[0]
        member_pre = precomputed.members[0]
        blinded = member_pre.precompute_round(1, entries.decode_publics())
        assert blinded == [
            group.scalar_mult(entry.dh_public, member_pre.blinding_secret)
            for entry in entries
        ]
        result_pre = member_pre.process_round(1, twin_entries)
        result_online = member_online.process_round(1, entries)
        assert result_pre.position == result_online.position
        assert result_pre.entries.blob == result_online.entries.blob
        assert result_pre.proof == result_online.proof
        assert result_pre.failed_indices == result_online.failed_indices
        # The slim online phase really did consult the table.
        table = member_pre.round_record(1).precomputed
        assert table is not None and len(table) == len(
            {group.encode(entry.dh_public) for entry in entries}
        )
        assert member_online.round_record(1).precomputed is None

    @settings(max_examples=6, deadline=None)
    @given(st.data())
    def test_chain_level_precompute_parity_with_blame(self, data):
        """Whole-chain cascade parity, including halted/blamed rounds."""
        from repro.crypto.keys import KeyPair
        from repro.mixnet.messages import BatchEntry, EncodedBatch
        from tests.test_ahs_protocol import build_chain

        group = _property_group()
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=1, max_value=4), label="entries")
        corrupt_index = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=count - 1)),
            label="corrupt_index",
        )
        online = build_chain(group, length=2, seed=seed)
        precomputed = build_chain(group, length=2, seed=seed)
        online.begin_round(1)
        precomputed.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(
                group, online, 1, f"user-{index}", recipient.public_bytes,
                bytes([index + 1]) * 32,
            )
            for index in range(count)
        ]

        def run(chain, with_precompute):
            chain.accept_submissions(1, submissions)
            if corrupt_index is not None:
                entries = list(chain._entries[1])
                entry = entries[corrupt_index]
                entries[corrupt_index] = BatchEntry(
                    dh_public=entry.dh_public,
                    ciphertext=bytes([entry.ciphertext[0] ^ 0xFF]) + entry.ciphertext[1:],
                )
                chain._entries[1] = EncodedBatch.from_entries(group, entries)
            if with_precompute:
                chain.precompute_round(1, chain._entries[1].decode_publics())
            return chain.run_round(1)

        result_online = run(online, with_precompute=False)
        result_pre = run(precomputed, with_precompute=True)
        assert result_pre.status == result_online.status
        assert [m.to_bytes() for m in result_pre.mailbox_messages] == [
            m.to_bytes() for m in result_online.mailbox_messages
        ]
        assert result_pre.rejected_senders == result_online.rejected_senders
        assert result_pre.invalid_inner_count == result_online.invalid_inner_count
        if result_online.blame_verdict is not None:
            assert result_pre.blame_verdict.to_bytes() == result_online.blame_verdict.to_bytes()


class TestBackendParity:
    def test_parallel_backend_matches_serial(self):
        serial = build("serial")
        parallel = build("parallel")
        expected = fingerprints(serial.run_rounds(conversation_script(serial)))
        actual = fingerprints(parallel.run_rounds(conversation_script(parallel)))
        parallel.close()
        assert actual == expected

    def test_staggered_matches_serial(self):
        serial = build()
        staggered = build()
        expected = fingerprints(serial.run_rounds(conversation_script(serial)))
        actual = fingerprints(
            staggered.run_rounds(conversation_script(staggered), staggered=True)
        )
        assert actual == expected

    def test_staggered_parallel_matches_serial(self):
        serial = build()
        combined = build("parallel")
        expected = fingerprints(serial.run_rounds(conversation_script(serial)))
        actual = fingerprints(
            combined.run_rounds(conversation_script(combined), staggered=True)
        )
        combined.close()
        assert actual == expected

    def test_parity_without_cover_messages(self):
        expected = None
        for staggered in (False, True):
            deployment = build("parallel", use_cover_messages=False)
            a, b = deployment.users[0].name, deployment.users[1].name
            deployment.start_conversation(a, b)
            specs = [
                deployment.round_spec(payloads={a: b"one"}),
                deployment.round_spec(payloads={b: b"two"}),
                deployment.round_spec(),
            ]
            actual = fingerprints(deployment.run_rounds(specs, staggered=staggered))
            deployment.close()
            if expected is None:
                expected = actual
            else:
                assert actual == expected

    def test_parity_with_rejected_extra_submissions(self):
        """An adversarial submission with a bogus proof is rejected identically."""

        def run(backend, staggered, transport="inproc"):
            deployment = build(backend, seed=9, transport=transport)
            chain = deployment.chains[0]
            deployment.engine.announce(1)
            forged = make_submission(
                deployment.group,
                chain,
                1,
                "mallory",
                deployment.users[0].public_bytes,
                b"\x07" * 32,
            )
            bad = type(forged)(
                chain_id=forged.chain_id,
                sender="mallory",
                dh_public=forged.dh_public,
                ciphertext=forged.ciphertext,
                proof=type(forged.proof)(commitment=forged.proof.commitment, response=1),
            )
            specs = [
                deployment.round_spec(extra_submissions=[bad]),
                deployment.round_spec(),
            ]
            reports = deployment.run_rounds(specs, staggered=staggered)
            deployment.close()
            return reports

        expected = run("serial", False)
        assert expected[0].rejected_senders == ["mallory"]
        for backend, staggered, transport in (
            ("parallel", False, "inproc"),
            ("serial", True, "inproc"),
            ("parallel", True, "inproc"),
            ("serial", False, "instrumented"),
            ("parallel", True, "instrumented"),
        ):
            reports = run(backend, staggered, transport)
            assert fingerprints(reports) == fingerprints(expected)

    def test_staggered_defers_notice_targets_only(self):
        """The overlapped collect builds everyone except pending notice recipients."""
        deployment = build()
        a, b = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(a, b)
        engine = deployment.engine
        ctx1 = engine.prepare(deployment.round_spec(payloads={a: b"x"}))
        engine.collect(ctx1)
        engine.finalize_collect(ctx1)
        assert ctx1.notice_targets == set()
        engine.mix(ctx1)
        engine.deliver(ctx1)
        engine.fetch(ctx1)

        ctx2 = engine.prepare(deployment.round_spec(offline_users={b}))
        engine.collect(ctx2)
        assert ctx2.notice_targets == {a}
        engine.finalize_collect(ctx2)
        engine.mix(ctx2)
        engine.deliver(ctx2)
        engine.fetch(ctx2)

        ctx3 = engine.prepare(deployment.round_spec())
        engine.collect(ctx3, defer=frozenset(ctx2.notice_targets))
        assert ctx3.deferred_users == [a]
        assert a not in ctx3.user_submissions
        engine.finalize_collect(ctx3)
        # Built after the fetch, folded into the chain batches, index dropped.
        assert any(sub.sender == a for batch in ctx3.per_chain.values() for sub in batch)
        assert ctx3.deferred_users == [] and ctx3.user_submissions == {}


class TestBlameParity:
    """The blame protocol is execution-strategy-invariant (ISSUE 3).

    The same :class:`~repro.faults.plan.FaultPlan` must yield the identical
    verdict — same convicted server, byte-identical wire encoding — under
    serial and parallel execution, sequential or staggered.
    """

    def test_tampering_verdict_identical_across_backends(self):
        from repro.faults.scenarios import tamper_and_recover
        from tests.test_faults import run_scenario

        verdict_blobs = set()
        scenario_fingerprints = set()
        for backend in BACKENDS:
            for staggered in (False, True):
                report = run_scenario(tamper_and_recover(), backend, staggered)
                (verdict,) = report.outcome_for(2).verdicts.values()
                assert verdict.malicious_servers == ["server-0"]
                assert verdict.malicious_users == []
                verdict_blobs.add(verdict.to_bytes())
                scenario_fingerprints.add(report.canonical_bytes())
        assert len(verdict_blobs) == 1
        assert len(scenario_fingerprints) == 1

    def test_user_walkback_verdict_identical_across_backends(self):
        from repro.faults.scenarios import misauthenticating_user
        from tests.test_faults import run_scenario

        verdict_blobs = set()
        for backend in BACKENDS:
            report = run_scenario(misauthenticating_user(), backend)
            (verdict,) = report.outcome_for(2).verdicts.values()
            assert verdict.malicious_users == ["mallory"]
            verdict_blobs.add(verdict.to_bytes())
        assert len(verdict_blobs) == 1


class TestBackendConfiguration:
    def test_use_backend_swaps_engine_backend(self):
        deployment = build()
        assert isinstance(deployment.engine.backend, ParallelBackend)
        deployment.use_backend(SerialBackend())
        assert isinstance(deployment.engine.backend, SerialBackend)
        report = deployment.run_round()
        deployment.close()
        assert report.all_chains_delivered()

    def test_round_engine_usable_standalone(self):
        """The engine API works without going through Deployment.run_round."""
        deployment = build()
        engine = RoundEngine(deployment, backend=SerialBackend())
        report = engine.execute_round(deployment.round_spec())
        assert report.round_number == 1
        assert report.all_chains_delivered()

    def test_staggered_scheduler_for_deployment(self):
        deployment = build()
        scheduler = StaggeredScheduler.for_deployment(deployment)
        reports = scheduler.run_rounds([deployment.round_spec(), deployment.round_spec()])
        assert [report.round_number for report in reports] == [1, 2]


@pytest.mark.distributed
class TestDistributedParity:
    """The localhost-tcp cell of the parity matrix (DESIGN.md §10.5).

    A real process-per-role deployment — coordinator, two mix roles, one
    mailbox role, four OS processes — runs the acceptance scenario
    (tamper at round 2, blame, recovery) and its RoundReports must be
    bit-identical to the ordinary in-process reference.  This is the one
    test where "the network is unobservable" means actual sockets between
    actual processes, not an in-process stand-in.
    """

    @pytest.mark.parametrize("env_tier", (None, "native"), ids=("inherited", "native"))
    def test_localhost_tcp_matches_inproc_reference(self, env_tier, monkeypatch):
        """The native cell pins the role processes' tier through the
        environment they inherit (the tier is process-global, not config):
        the kernel axis survives real process separation too."""
        from repro.faults.runner import ScenarioRunner
        from repro.faults.scenarios import tamper_and_recover
        from repro.runner import protocol
        from repro.runner.harness import run_localhost

        config = DeploymentConfig(
            num_servers=4,
            num_users=6,
            num_chains=3,
            chain_length=2,
            seed=42,
            group_kind="modp",
        )
        plan = tamper_and_recover()

        reference_deployment = Deployment.create(config)
        try:
            reference = ScenarioRunner(reference_deployment, plan).run()
        finally:
            reference_deployment.close()
        expected = protocol.scenario_summary(reference)

        if env_tier is not None:
            monkeypatch.setenv("XRD_CRYPTO_KERNEL", env_tier)
        summary = run_localhost(config, plan, num_mix=2, timeout=240.0)

        assert summary == expected
        assert summary["canonical"] == reference.canonical_bytes().hex()
        statuses = {entry["round"]: entry["statuses"] for entry in summary["rounds"]}
        assert statuses[2]["0"] == "halted-blame"
        assert summary["evicted_servers"] == ["server-0"]
        assert summary["recoveries"], "the scenario must include a recovery round"


class TestCryptoKernelParity:
    """Kernel tiers are unobservable (DESIGN.md §11).

    {python, native} crypto kernels × {inproc, instrumented}, over
    the six-round conversation script, against the pinned reference.
    ``canonical_bytes`` equality means the tier is invisible in every
    observable byte — delivered messages, rejections, statuses, mailbox
    contents.
    """

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kernel_cell(self, tier, transport):
        deployment = build(transport=transport)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == REFERENCE

    def test_kernel_blame_recovery(self, tier):
        """Blame, eviction, and chain re-formation on every tier.

        The chain retains only sender stubs and the wire blob; this proves
        that is enough state for the whole blame arc — the accusation, the
        history replay, the re-formed chain's rounds — byte for byte.
        """
        for backend, staggered in (("serial", False), ("parallel", True)):
            assert blame_fingerprint(build(backend), staggered) == GOLDEN["modp"]["blame"]


class TestBatchRepresentation:
    """One batch shape in the chain (DESIGN.md §11.3), however it travelled.

    Over every transport, honest or tampered or link-faulted, what each hop
    received over the wire and what each member recorded while the round
    was held is an ``EncodedBatch`` — the wire transports, a tampering
    server and a faulty link used to hand the next hop a decoded list — and
    the round is byte-identical to the same case run in process.
    """

    CASES = ("honest", "tamper", "duplicate", "reorder", "drop")

    @staticmethod
    def _run(transport, case, inspect=lambda deployment, ctx: None):
        """One round, stage by stage, calling ``inspect`` between mix and
        deliver (deliver releases the round); returns the report and the
        recording of every envelope."""
        from repro.coordinator.adversary import (
            MODE_TAMPER_CIPHERTEXT,
            install_tampering_server,
        )
        from repro.transport import BATCH
        from repro.transport.faulty import FaultyTransport, LinkFault

        deployment = Deployment.create(DeploymentConfig(
            num_servers=4, num_users=6, num_chains=2, chain_length=3, seed=42,
            group_kind="modp", transport=transport,
        ))
        try:
            if case == "tamper":
                install_tampering_server(deployment, 0, 0, MODE_TAMPER_CIPHERTEXT)
            elif case != "honest":
                fault = LinkFault(behaviour=case, kind=BATCH, chain_id=0, index=1, seed=5)
                deployment.use_transport(
                    FaultyTransport(deployment.transport, [fault]), close_previous=False
                )
            recorder = RecordingTransport(deployment.transport)
            deployment.use_transport(recorder, close_previous=False)
            engine = deployment.engine
            ctx = engine.prepare(deployment.round_spec())
            for stage in (engine.collect, engine.finalize_collect, engine.precompute, engine.mix):
                stage(ctx)
            inspect(deployment, ctx)
            engine.deliver(ctx)
            engine.fetch(ctx)
            return ctx.report, recorder
        finally:
            deployment.close()

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("transport", ("inproc", "instrumented", "tcp"))
    def test_every_hop_holds_an_encoded_batch(self, transport, case):
        from repro.mixnet.messages import EncodedBatch

        def held_records(deployment, ctx):
            for chain in deployment.chains:
                delivered = ctx.chain_outcomes[chain.chain_id].result.delivered
                # The hop behind the tampering server / the faulted link ran.
                assert type(chain.members[1].round_record(1).inputs) is EncodedBatch
                for member in chain.members:
                    record = member.round_record(1)
                    for batch in (record.inputs, record.outputs):
                        assert batch is None or type(batch) is EncodedBatch
                    if delivered:
                        assert record.inputs is not None and record.outputs is not None
                # What the chain keeps of the submissions is who sent them.
                for accepted in chain.submissions_for_round(1):
                    assert not hasattr(accepted, "ciphertext")
                    assert isinstance(accepted.sender, str)

        report, recorder = self._run(transport, case, held_records)
        reference, _ = self._run("inproc", case)
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert report.chain_results[0].delivered == (case != "tamper")
        for chain_id, result in report.chain_results.items():
            hops = recorder.batches(chain_id)
            assert hops and all(type(batch) is EncodedBatch for batch in hops)
            if result.delivered:
                assert len(hops) == 2  # chain_length − 1 server→server links


class TestKernelTierParity:
    """The native kernels are unobservable (DESIGN.md §11), in either group.

    On the real group the native tier replaces every ladder, comb,
    accumulation and point codec call of ``Ed25519Group``; in both groups
    it replaces the DH → KDF → AEAD key pipeline of client build, precompute
    and mix.  ``RoundReport`` canonical bytes must not move: honest rounds
    (payloads, an offline user's cover, an idle round) and the tamper →
    blame → evict → re-form arc.
    """

    GROUPS = {"ed25519": "Ed25519Group", "modp": "ModPGroup"}

    @pytest.fixture(scope="class", params=sorted(GROUPS))
    def group_kind(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def python_reference(self, group_kind):
        """Both arcs on the python tier, once per group (class-scoped, so it
        runs before the ``tier`` fixture selects the tier under test)."""
        kernels.set_active_kernel("python")
        try:
            return self._honest(group_kind), self._blame(group_kind)
        finally:
            kernels.reset_kernel_for_tests()

    def _config(self, group_kind):
        deployment = Deployment.create(DeploymentConfig(
            num_servers=3, num_users=4, num_chains=2, chain_length=2, seed=7,
            group_kind=group_kind,
        ))
        assert type(deployment.group).__name__ == self.GROUPS[group_kind]
        return deployment

    def _honest(self, group_kind):
        deployment = self._config(group_kind)
        try:
            return fingerprints(deployment.run_rounds(conversation_script(deployment)[:3]))
        finally:
            deployment.close()

    def _blame(self, group_kind):
        from repro.faults.runner import ScenarioRunner
        from repro.faults.scenarios import tamper_and_recover

        deployment = self._config(group_kind)
        try:
            report = ScenarioRunner(deployment, tamper_and_recover(num_rounds=3)).run()
        finally:
            deployment.close()
        fault = report.outcome_for(2)
        assert fault.statuses[0] == "halted-blame"
        assert report.evicted_servers == ["server-0"]
        assert report.outcome_for(3).all_delivered
        return report.canonical_bytes()

    def test_honest_rounds_identical_across_tiers(self, group_kind, tier, python_reference):
        assert self._honest(group_kind) == python_reference[0]

    def test_blame_round_identical_across_tiers(self, group_kind, tier, python_reference):
        assert self._blame(group_kind) == python_reference[1]
