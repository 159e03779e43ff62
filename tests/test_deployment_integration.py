"""Integration tests: full deployments running complete rounds."""

from array import array

import pytest

from repro.client.chain_selection import intersection_chain
from repro.client.user import ReceivedMessage
from repro.errors import ConfigurationError
from repro.coordinator.network import DeploymentConfig
from repro.crypto.group import Ed25519Group, Point

from tests.conftest import BACKENDS, make_deployment
from tests.test_engine_parity import build, conversation_script


class TestDeploymentConstruction:
    def test_defaults_follow_paper(self):
        config = DeploymentConfig(num_servers=10, num_users=5, malicious_fraction=0.2, security_bits=8)
        assert config.resolved_num_chains() == 10  # n = N (§5.2.1)
        assert config.resolved_chain_length() >= 3

    def test_chain_length_capped_by_servers(self):
        config = DeploymentConfig(num_servers=3, num_users=2, malicious_fraction=0.2, security_bits=60)
        assert config.resolved_chain_length() == 3

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            DeploymentConfig(num_servers=0).validate()
        with pytest.raises(ConfigurationError):
            DeploymentConfig(num_users=-1).validate()
        with pytest.raises(ConfigurationError):
            DeploymentConfig(malicious_fraction=1.5).validate()
        with pytest.raises(ConfigurationError):
            DeploymentConfig(group_kind="rsa").validate()

    def test_create_builds_everything(self, deployment):
        assert len(deployment.chains) == 3
        assert len(deployment.users) == 6
        assert len(deployment.server_nodes) == 4
        assert all(chain.public_keys is not None for chain in deployment.chains)
        assert deployment.ell() == 2

    def test_deterministic_with_seed(self):
        one = make_deployment(seed=5)
        two = make_deployment(seed=5)
        assert [u.public_bytes for u in one.users] == [u.public_bytes for u in two.users]
        assert [t.servers for t in one.topologies] == [t.servers for t in two.topologies]

    def test_partners_agree_on_one_chain(self, deployment):
        """Agreeing to talk fixes one chain for both partners: their
        intersection among the deployment's chains (§5.3.2)."""
        alice, bob = deployment.users[0], deployment.users[1]
        deployment.start_conversation(alice.name, bob.name)
        chain_id = alice.conversation.chain_id
        assert bob.conversation.chain_id == chain_id
        assert chain_id == intersection_chain(
            alice.public_bytes, bob.public_bytes, deployment.num_chains
        )
        assert chain_id in {chain.chain_id for chain in deployment.chains}

    def test_unknown_lookups(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.user("nobody")
        with pytest.raises(ConfigurationError):
            deployment.chain(99)


class TestRounds:
    def test_conversation_round_trip(self, deployment):
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        report = deployment.run_round(payloads={alice: b"hello bob", bob: b"hello alice"})
        assert report.conversation_payloads(bob) == [b"hello bob"]
        assert report.conversation_payloads(alice) == [b"hello alice"]
        assert report.all_chains_delivered()

    def test_uniform_mailbox_counts(self, deployment):
        """Every user receives exactly ℓ messages whether or not they converse (§4.1)."""
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        report = deployment.run_round(payloads={alice: b"x", bob: b"y"})
        ell = deployment.ell()
        assert set(report.mailbox_counts.values()) == {ell}

    def test_idle_users_receive_only_loopbacks(self, deployment):
        report = deployment.run_round()
        for user in deployment.users:
            kinds = {message.kind for message in report.delivered[user.name]}
            assert kinds == {ReceivedMessage.KIND_LOOPBACK}

    def test_round_numbers_advance(self, deployment):
        first = deployment.run_round()
        second = deployment.run_round()
        assert first.round_number == 1
        assert second.round_number == 2

    def test_multiple_conversations(self):
        deployment = make_deployment(num_users=8, seed=3)
        a, b = deployment.users[0].name, deployment.users[1].name
        c, d = deployment.users[2].name, deployment.users[3].name
        deployment.start_conversation(a, b)
        deployment.start_conversation(c, d)
        report = deployment.run_round(payloads={a: b"1", b: b"2", c: b"3", d: b"4"})
        assert report.conversation_payloads(b) == [b"1"]
        assert report.conversation_payloads(a) == [b"2"]
        assert report.conversation_payloads(d) == [b"3"]
        assert report.conversation_payloads(c) == [b"4"]

    def test_end_conversation_reverts_to_loopbacks(self, deployment):
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        deployment.run_round(payloads={alice: b"hi", bob: b"hi"})
        deployment.end_conversation(alice, bob)
        report = deployment.run_round()
        assert report.conversation_payloads(alice) == []
        assert report.conversation_payloads(bob) == []
        assert set(report.mailbox_counts.values()) == {deployment.ell()}

    def test_empty_payload_defaults(self, deployment):
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        report = deployment.run_round()
        assert report.conversation_payloads(bob) == [b""]

    def test_total_submission_count(self, deployment):
        report = deployment.run_round()
        assert report.total_submissions == len(deployment.users) * deployment.ell()

    def test_report_structure(self, deployment):
        report = deployment.run_round()
        assert set(report.delivered) == {user.name for user in deployment.users}
        assert report.rejected_senders == []
        assert report.dropped_unknown_recipients == 0

    def test_without_cover_messages(self):
        deployment = make_deployment(use_cover_messages=False)
        report = deployment.run_round()
        assert deployment._cover_store == {}
        assert report.all_chains_delivered()


class TestEd25519Integration:
    """One full round on the real curve to cover the production configuration."""

    def test_round_on_ed25519(self):
        deployment = make_deployment(
            num_servers=3, num_users=3, num_chains=1, chain_length=2, seed=1,
            group_kind="ed25519", use_cover_messages=False,
        )
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        report = deployment.run_round(payloads={alice: b"over the curve", bob: b"indeed"})
        assert report.conversation_payloads(bob) == [b"over the curve"]
        assert report.conversation_payloads(alice) == [b"indeed"]
        assert set(report.mailbox_counts.values()) == {deployment.ell()}


def _points_in(value) -> int:
    """How many edwards25519 ``Point`` objects ``value``'s containers hold."""
    if isinstance(value, Point):
        return 1
    if isinstance(value, dict):
        return sum(_points_in(key) + _points_in(item) for key, item in value.items())
    if isinstance(value, (list, tuple, set)):
        return sum(map(_points_in, value))
    return 0


class TestDecodeCensus:
    """A chain round decodes each DH key k + 3 times (DESIGN.md §8.1): once
    at precompute, once at intake, once per hop output as the verifier
    receives it, plus the inner envelope's own ``g^y`` — whether the
    stagger's top-up pass ran or not.  And a member's round record holds
    bytes: no curve point outlives the call that made it."""

    @pytest.mark.parametrize("staggered", (False, True), ids=("sequential", "staggered"))
    @pytest.mark.parametrize("length", (3, 16))
    def test_each_key_is_decoded_k_plus_3_times(self, monkeypatch, length, staggered):
        deployment = make_deployment(
            num_servers=length, num_users=12, num_chains=1, chain_length=length, seed=3,
            group_kind="ed25519",
        )
        decoded = []
        decode_batch = Ed25519Group.decode_batch
        monkeypatch.setattr(Ed25519Group, "decode_batch", lambda group, encodings: (
            decoded.append(len(encodings)) or decode_batch(group, encodings)
        ))
        records = []

        def census(stage):
            def run(ctx):
                stage(ctx)
                records.extend(
                    member.round_record(ctx.round_number)
                    for chain in deployment.chains for member in chain.members
                )
            return run

        engine = deployment.engine
        for stage in ("precompute_collected", "precompute", "mix"):
            monkeypatch.setattr(engine, stage, census(getattr(engine, stage)))
        alice, bob = deployment.users[0].name, deployment.users[1].name
        deployment.start_conversation(alice, bob)
        specs = [deployment.round_spec()]
        if staggered:
            # Alice goes offline: Bob gets the notice and is deferred, so
            # the stagger's top-up precompute runs for his submission.
            specs += [deployment.round_spec(offline_users={alice})] * 2
        reports = deployment.run_rounds(specs, staggered=staggered)
        assert all(report.all_chains_delivered() for report in reports)
        submissions = sum(report.total_submissions for report in reports)
        assert sum(decoded) == (length + 3) * submissions
        assert records and not any(_points_in(vars(record)) for record in records)
        assert all(type(record.permutation) is array for record in records)


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
            assert not chain._entries and not chain._senders and not chain._input_aggregate
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

    def test_a_halted_round_is_held_until_recover_without_its_inner_keys(self):
        """A halted round keeps what blame and ``recover()`` read, but not its
        inner keys (§6.4); the chains that delivered the same round released
        it at deliver, and ``recover()`` retires the old chain's members."""
        from repro.coordinator.adversary import (
            MODE_TAMPER_CIPHERTEXT,
            install_tampering_server,
        )

        deployment = build()
        install_tampering_server(deployment, 0, 0, MODE_TAMPER_CIPHERTEXT)
        report = deployment.run_round()
        old_chain = deployment.chains[0]
        assert report.chain_results[old_chain.chain_id].status == "halted-blame"
        assert old_chain.senders_for_round(1) and 1 in old_chain._entries
        for member in old_chain.members:
            record = member.round_record(1)
            assert record.precomputed and record.inputs is not None
            assert record.inner_secret is None
        for chain in deployment.chains[1:]:
            assert 1 not in chain._entries and 1 not in chain._aggregate_inner
            assert all(1 not in member._rounds for member in chain.members)
        deployment.recover()
        # Fresh members, fresh ceremony: no server still holds a retired one.
        assert deployment.chains[0] is not old_chain
        for member in old_chain.members:
            node = deployment._nodes_by_name[member.server_name]
            assert node.chain_members.get(old_chain.chain_id) is not member
        report = deployment.run_round()
        assert report.all_chains_delivered()
        assert "precompute" in report.trace.stages()
        deployment.close()


class TestStaggeredDeferral:
    """The staggered scheduler builds a round before the previous round's
    fetch, except for the users that fetch may change: offline-notice
    targets are deferred until after it."""

    @pytest.mark.parametrize("transport", ("inproc", "tcp"))
    def test_deferred_users_build_through_the_population(self, transport, monkeypatch):
        """The deferred users take the population's batched build like
        everyone else — a build of exactly the deferred users."""
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
        reports = deployment.run_rounds(conversation_script(deployment), staggered=True)
        deployment.close()
        assert all(report.all_chains_delivered() for report in reports)
        assert deferred_builds  # the script did defer someone
        for deferred, built in deferred_builds:
            assert built and all(names == deferred for names in built)

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
