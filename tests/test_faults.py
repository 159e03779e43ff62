"""Fault-injection scenario engine: adversarial rounds end to end.

The acceptance property of the faults subsystem (ISSUE 3): a scenario
injecting ``MODE_TAMPER_CIPHERTEXT`` at round *r* is detected and blamed,
the convicted server is evicted, the chain is re-formed from the remaining
pool, and rounds *r+1…* deliver correctly — with the whole scenario
bit-identical across {serial, parallel} × {sequential, staggered} ×
{inproc, tcp}.
"""

import hashlib

import pytest

from repro.analysis.measured import round_latency_seconds
from repro.crypto.group import ModPGroup
from repro.errors import ConfigurationError
from repro.faults import (
    CANNED_SCENARIOS,
    FaultPlan,
    LinkFault,
    ScenarioRunner,
    ServerFault,
    UserFault,
)
from repro.faults.plan import USER_INVALID_PROOF
from repro.faults.scenarios import (
    aggregate_attack_and_recover,
    delayed_chain_batch,
    duplicated_chain_batch,
    flaky_uplink,
    lossy_mailbox_fetch,
    misauthenticating_user,
    reordered_mailbox_delivery,
    tamper_and_recover,
)
from repro.mixnet.ahs import ChainRoundResult
from repro.mixnet.blame import BlameVerdict
from repro.mixnet.messages import (
    FetchBatch,
    MailboxBatch,
    SubmissionBatch,
    submission_record,
)
from repro.simulation.costmodel import CostModel
from repro.transport import envelope as ev
from repro.transport.faulty import DELAY, DROP, DUPLICATE, REORDER, FaultyTransport
from repro.transport.inproc import InProcTransport

from tests.conftest import BACKENDS, install_backend, make_deployment

def build(backend="production", transport="inproc", seed=42, chain_length=3, **kwargs):
    deployment = make_deployment(chain_length=chain_length, seed=seed, transport=transport, **kwargs)
    return install_backend(deployment, backend)


def run_scenario(plan, backend="production", staggered=False, transport="inproc", **kwargs):
    deployment = build(backend, transport, **kwargs)
    report = ScenarioRunner(deployment, plan, staggered=staggered).run()
    deployment.close()
    return report


class TestTamperAndRecoverAcceptance:
    """The ISSUE 3 acceptance scenario, across the full execution matrix."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run_scenario(tamper_and_recover())

    def test_detect_blame_evict_reform_resume(self, reference):
        fault = reference.outcome_for(2)
        assert fault.statuses[0] == ChainRoundResult.STATUS_HALTED_BLAME
        assert fault.verdicts[0].malicious_servers == ["server-0"]
        assert fault.verdicts[0].malicious_users == []
        # Other chains kept serving traffic through the fault round.
        assert fault.statuses[1] == fault.statuses[2] == "delivered"
        # Eviction and re-formation happened, excluding the convicted server.
        assert reference.evicted_servers == ["server-0"]
        primary = reference.recoveries[0]
        assert primary.chain_id == 0 and primary.evicted == ["server-0"]
        # §6.4 removes the server from the *system*: every re-formed chain
        # (the convicting one plus any other it sat in) excludes it.
        for action in reference.recoveries:
            assert "server-0" not in action.new_servers
        # Rounds r+1..r+2 complete with correct delivery on the new chains.
        for round_number in (3, 4):
            assert reference.outcome_for(round_number).all_delivered

    def test_conversation_rides_the_reformed_chain(self, reference):
        """The chatters' payloads flow again in rounds r+1.. after recovery."""
        third = reference.outcome_for(3).report
        pair = [name for name in third.delivered if third.conversation_payloads(name)]
        assert len(pair) == 2
        for name in pair:
            (payload,) = third.conversation_payloads(name)
            partner = [other for other in pair if other != name][0]
            assert payload == f"r3-{partner}".encode()

    @pytest.mark.parametrize("staggered", (False, True))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_across_backends_and_schedulers(self, reference, backend, staggered):
        report = run_scenario(tamper_and_recover(), backend, staggered)
        assert report.canonical_bytes() == reference.canonical_bytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_on_tcp_transport(self, reference, backend):
        report = run_scenario(tamper_and_recover(), backend, staggered=True, transport="tcp")
        assert report.canonical_bytes() == reference.canonical_bytes()

    def test_deployment_state_after_recovery(self):
        deployment = build()
        ScenarioRunner(deployment, tamper_and_recover()).run()
        chain = deployment.chain(0)
        names = [member.server_name for member in chain.members]
        assert "server-0" not in names
        assert deployment.entry_servers[0] == names[0]
        assert deployment.topologies[0].servers == names
        # The evicted server is out of the whole system, not just chain 0:
        # no chain lists it, and its node holds no member state at all.
        for other in deployment.chains:
            assert "server-0" not in [member.server_name for member in other.members]
        evicted_node = deployment._nodes_by_name["server-0"]
        assert evicted_node.chain_members == {}
        # Nothing is left pending once recovery has been applied.
        assert deployment.pending_recoveries == []
        deployment.close()


class TestRecoveryMechanics:
    def test_aggregate_attack_convicts_via_proof_failure(self):
        report = run_scenario(aggregate_attack_and_recover())
        fault = report.outcome_for(2)
        assert fault.statuses[0] == ChainRoundResult.STATUS_HALTED_SERVER
        assert fault.report.chain_results[0].misbehaving_server == "server-0"
        assert report.evicted_servers == ["server-0"]
        assert report.outcome_for(3).all_delivered

    def test_recover_without_convictions_is_a_noop(self):
        deployment = build()
        deployment.run_round()
        assert deployment.pending_recoveries == []
        assert deployment.recover() == []
        deployment.close()

    def test_reform_unknown_chain_rejected(self):
        deployment = build()
        with pytest.raises(ConfigurationError):
            deployment.reform_chain(99)
        deployment.close()

    def test_eviction_shrinks_chain_when_pool_is_short(self):
        """With pool < chain length, the re-formed chain uses what is left —
        loudly: shrinking weakens the anytrust bound, so it warns."""
        deployment = build()
        deployment.evicted_servers.update({"server-0", "server-1"})
        with pytest.warns(RuntimeWarning, match="anytrust"):
            topology = deployment.reform_chain(0)
        assert set(topology.servers) <= {"server-2", "server-3"}
        assert len(topology.servers) == 2
        report = deployment.run_round()
        assert report.all_chains_delivered()
        deployment.close()

    def test_empty_pool_raises(self):
        deployment = build()
        deployment.evicted_servers.update(
            node.name for node in deployment.server_nodes
        )
        with pytest.raises(ConfigurationError):
            deployment.reform_chain(0)
        deployment.close()

    def test_reform_drops_stale_covers_for_that_chain_only(self):
        deployment = build()
        deployment.run_round()
        assert deployment._cover_store  # covers banked for round 2
        affected = {
            name
            for name, covers in deployment._cover_store.items()
            if any(SubmissionBatch.record_chain_id(record) == 0 for record in covers)
        }
        unaffected = set(deployment._cover_store) - affected
        deployment.reform_chain(0)
        assert affected.isdisjoint(deployment._cover_store)
        assert unaffected <= set(deployment._cover_store)
        deployment.close()

    def test_simultaneous_convictions_purge_every_culprit(self):
        """Two chains convict in one batch: evictions apply before re-forms.

        A chain re-formed early in the batch must not re-sample a server a
        later pending conviction evicts.
        """
        from repro.coordinator.adversary import MODE_TAMPER_CIPHERTEXT

        deployment = build(seed=0, num_servers=5)
        culprits = {
            deployment.chain(chain_id).members[0].server_name for chain_id in (0, 1)
        }
        plan = FaultPlan(
            name="double-tamper",
            num_rounds=3,
            server_faults=(
                ServerFault(round_number=2, chain_id=0, position=0,
                            mode=MODE_TAMPER_CIPHERTEXT),
                ServerFault(round_number=2, chain_id=1, position=0,
                            mode=MODE_TAMPER_CIPHERTEXT),
            ),
        )
        report = ScenarioRunner(deployment, plan).run()
        assert set(report.evicted_servers) == culprits
        for chain in deployment.chains:
            members = {member.server_name for member in chain.members}
            assert members.isdisjoint(culprits)
        assert report.outcome_for(3).all_delivered
        deployment.close()

    def test_recover_purges_evicted_server_from_every_chain(self):
        """A conviction on one chain removes the server from all its chains."""
        deployment = build()
        # server-0 sits in more than one chain in this topology.
        host_chains = [
            chain.chain_id
            for chain in deployment.chains
            if "server-0" in [member.server_name for member in chain.members]
        ]
        assert len(host_chains) > 1
        deployment.note_convictions(1, host_chains[0], ["server-0"])
        actions = deployment.recover()
        assert {action.chain_id for action in actions} == set(host_chains)
        for chain in deployment.chains:
            assert "server-0" not in [member.server_name for member in chain.members]
        report = deployment.run_round()
        assert report.all_chains_delivered()
        deployment.close()

    def test_multi_round_conviction_reports_latest_round(self):
        """A chain convicted in several rounds reports the *latest* one.

        Regression (ISSUE 5): the primary recovery action used to pin the
        *first* convicting round while the secondary re-formations of other
        chains used the last — so a two-round conviction produced an
        internally inconsistent action sequence.
        """
        deployment = build(num_servers=6)
        chain = deployment.chains[0]
        first, second = (member.server_name for member in chain.members[:2])
        deployment.note_convictions(2, chain.chain_id, [first])
        deployment.note_convictions(5, chain.chain_id, [second])
        actions = deployment.recover()
        primary = next(action for action in actions if action.chain_id == chain.chain_id)
        assert primary.round_number == 5
        assert primary.evicted == [first, second]
        # Secondary re-formations (other chains hosting the evicted servers)
        # already used the latest round; the whole sequence now agrees.
        assert {action.round_number for action in actions} == {5}
        report = deployment.run_round()
        assert report.all_chains_delivered()
        deployment.close()


class TestBlameVerdictWire:
    def test_verdict_round_trips(self):
        verdict = BlameVerdict(
            chain_id=3,
            round_number=7,
            malicious_users=["mallory", "trudy"],
            malicious_servers=["server-9"],
            false_accusations=1,
            examined_ciphertexts=4,
        )
        assert BlameVerdict.from_bytes(verdict.to_bytes()) == verdict

    def test_chain_outcome_with_verdict_round_trips(self):
        from repro.transport.codec import decode_chain_outcome, encode_chain_outcome

        verdict = BlameVerdict(chain_id=0, round_number=2, malicious_servers=["server-0"])
        result = ChainRoundResult(
            chain_id=0,
            round_number=2,
            status=ChainRoundResult.STATUS_HALTED_BLAME,
            blame_verdict=verdict,
            input_digest=b"\x01" * 32,
        )
        chain_id, rejected, decoded = decode_chain_outcome(
            encode_chain_outcome(0, ["bob"], result)
        )
        assert (chain_id, rejected) == (0, ["bob"])
        assert decoded.blame_verdict == verdict
        assert decoded.status == result.status

    def test_verdict_summary_mentions_convictions(self):
        verdict = BlameVerdict(chain_id=0, round_number=2, malicious_servers=["server-0"])
        assert "server-0" in verdict.summary()
        empty = BlameVerdict(chain_id=0, round_number=2)
        assert "nobody convicted" in empty.summary()


class TestUserFaultScenarios:
    def test_misauthenticating_user_convicted_and_traffic_unaffected(self):
        report = run_scenario(misauthenticating_user())
        assert report.convicted_users() == ["mallory"]
        assert report.evicted_servers == []
        # The round still delivered after removing her ciphertext (§6.4).
        assert report.outcome_for(2).all_delivered
        assert "mallory" in report.outcome_for(2).rejected_senders

    def test_misauth_verdict_identical_across_backends(self):
        """Blame-protocol parity for the user walk-back (all three backends)."""
        blobs = set()
        for backend in BACKENDS:
            report = run_scenario(misauthenticating_user(), backend)
            (verdict,) = report.outcome_for(2).verdicts.values()
            blobs.add(verdict.to_bytes())
        assert len(blobs) == 1

    def test_invalid_proof_rejected_without_blame(self):
        report = run_scenario(
            FaultPlan(
                name="intake",
                num_rounds=1,
                user_faults=(
                    UserFault(round_number=1, chain_id=0, sender="mallory",
                              kind=USER_INVALID_PROOF),
                ),
            )
        )
        outcome = report.outcome_for(1)
        assert "mallory" in outcome.rejected_senders
        assert outcome.verdicts == {}
        assert outcome.all_delivered


class TestLinkFaultScenarios:
    def test_flaky_uplink_loses_one_users_round(self):
        clean = run_scenario(FaultPlan(name="clean", num_rounds=3))
        faulty = run_scenario(flaky_uplink(user_name="user-0", fault_round=2))
        # user-0's submissions never arrived: nothing addressed to her and
        # her loopbacks are gone, but everyone else is untouched.
        assert faulty.outcome_for(2).report.mailbox_counts["user-0"] == 0
        assert clean.outcome_for(2).report.mailbox_counts["user-0"] > 0
        for user, count in clean.outcome_for(2).report.mailbox_counts.items():
            if user != "user-0":
                assert faulty.outcome_for(2).report.mailbox_counts[user] == count
        # The loss is round-scoped: round 3 is back to normal.
        assert (
            faulty.outcome_for(3).report.mailbox_counts
            == clean.outcome_for(3).report.mailbox_counts
        )

    def test_lossy_mailbox_fetch_empties_one_download(self):
        report = run_scenario(lossy_mailbox_fetch(user_name="user-1", fault_round=1))
        assert report.outcome_for(1).report.mailbox_counts["user-1"] == 0

    def test_duplicated_batch_delivers_extra_copies(self):
        clean = run_scenario(FaultPlan(name="clean", num_rounds=2))
        faulty = run_scenario(duplicated_chain_batch(chain_id=0, fault_round=1))
        # The fault matches every transported hop of the chain (length 3 →
        # two server→server links), so one entry is replayed per hop.
        assert (
            faulty.outcome_for(1).delivered_messages
            == clean.outcome_for(1).delivered_messages + 2
        )
        assert faulty.outcome_for(2).delivered_messages == clean.outcome_for(2).delivered_messages

    def test_reordered_delivery_preserves_the_message_set(self):
        clean = run_scenario(FaultPlan(name="clean", num_rounds=2))
        faulty = run_scenario(reordered_mailbox_delivery(chain_id=0, fault_round=1))
        assert (
            faulty.outcome_for(1).report.mailbox_counts
            == clean.outcome_for(1).report.mailbox_counts
        )

    def test_delayed_batch_charges_the_measured_critical_path(self):
        def links(plan):
            deployment = build(transport="tcp")
            report = ScenarioRunner(deployment, plan).run().outcome_for(1).report
            deployment.close()
            return report.trace.links

        clean = links(FaultPlan(name="clean", num_rounds=1))
        delayed = links(delayed_chain_batch(chain_id=0, num_rounds=1, delay_seconds=2.0))
        model = CostModel.paper_testbed()
        assert round_latency_seconds(delayed, model) >= round_latency_seconds(clean, model) + 2.0
        # The stall rides each batch link it delayed, not an extra record.
        assert len(delayed) == len(clean)
        assert {(link.kind, link.chain_id) for link in delayed if link.delay_seconds} == {
            (ev.BATCH, 0)
        }

    def test_link_fault_rounds_are_scenario_relative(self):
        """Link faults fire even when the deployment has already run rounds."""
        deployment = build()
        deployment.run_round()  # absolute round 1 happens before the scenario
        plan = lossy_mailbox_fetch(user_name="user-1", fault_round=1, num_rounds=1)
        report = ScenarioRunner(deployment, plan).run()
        # Scenario round 1 is absolute round 2; the drop must still apply.
        assert report.outcome_for(2).report.mailbox_counts["user-1"] == 0
        deployment.close()

    def test_second_scenario_replaces_previous_link_faults(self):
        deployment = build()
        ScenarioRunner(
            deployment, flaky_uplink(user_name="user-0", fault_round=1, num_rounds=1)
        ).run()
        plan = lossy_mailbox_fetch(user_name="user-1", fault_round=1, num_rounds=1)
        report = ScenarioRunner(deployment, plan).run()
        # The new plan's fault fires and the old plan's drop no longer does.
        assert report.outcome_for(2).report.mailbox_counts["user-1"] == 0
        assert report.outcome_for(2).report.mailbox_counts["user-0"] > 0
        deployment.close()

    def test_link_faults_are_cleared_when_the_scenario_ends(self):
        """An always-on (rounds=None) fault must not outlive its scenario."""
        deployment = build()
        plan = FaultPlan(
            name="always-drop",
            num_rounds=1,
            link_faults=(
                LinkFault(behaviour=DROP, kind=ev.SUBMISSION_BATCH, source="user-0"),
            ),
        )
        report = ScenarioRunner(deployment, plan).run()
        assert report.outcome_for(1).report.mailbox_counts["user-0"] == 0
        # Plain rounds after the scenario run fault-free.
        follow_up = deployment.run_round()
        assert follow_up.mailbox_counts["user-0"] > 0
        deployment.close()

    def test_faulty_transport_logs_applied_faults(self):
        deployment = build()
        plan = flaky_uplink(user_name="user-0", fault_round=1, num_rounds=1)
        ScenarioRunner(deployment, plan).run()
        transport = deployment.transport
        assert isinstance(transport, FaultyTransport)
        # One entry per upload frame that carried one of her submissions.
        chains = deployment.population.chain_assignments["user-0"]
        assert sorted(entry.chain_id for entry in transport.applied) == sorted(set(chains))
        assert all(entry.behaviour == DROP for entry in transport.applied)
        assert {entry.kind for entry in transport.applied} == {ev.SUBMISSION_BATCH}
        deployment.close()

    #: sha256[:16] of each scenario's ``canonical_bytes()`` on :func:`build`.
    #: First pinned from the per-user client path when it sent per-user
    #: ``SUBMISSION`` and ``MAILBOX_FETCH`` envelopes; re-pinned with
    #: ``GOLDEN`` when the keyed draw stream replaced the per-user RNGs, and
    #: ``user_oracle.install`` lands on the same digests on both transports.
    PER_USER_DIGESTS = {
        "flaky-uplink": (flaky_uplink(user_name="user-0", fault_round=2), "4dbb29da77233c75"),
        "lossy-mailbox-fetch": (
            lossy_mailbox_fetch(user_name="user-1", fault_round=1), "4c8345bc1007b79c"
        ),
    }

    @pytest.mark.parametrize("transport", ("inproc", "tcp"))
    @pytest.mark.parametrize("scenario", sorted(PER_USER_DIGESTS))
    def test_per_user_faults_act_on_population_frames(self, scenario, transport):
        """A drop naming one user removes her elements from the population's
        frames — and the scenario reads exactly as it did when each user
        had envelopes of her own."""
        plan, expected = self.PER_USER_DIGESTS[scenario]
        deployment = build(transport=transport)
        report = ScenarioRunner(deployment, plan).run()
        applied = deployment.transport.applied
        deployment.close()
        assert applied
        assert hashlib.sha256(report.canonical_bytes()).hexdigest()[:16] == expected


class TestLinkFaultValidation:
    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFault(behaviour="corrupt")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFault(behaviour=DROP, kind="telepathy")

    def test_duplicate_requires_list_payload_kind(self):
        with pytest.raises(ConfigurationError):
            LinkFault(behaviour=DUPLICATE)
        with pytest.raises(ConfigurationError):
            LinkFault(behaviour=REORDER)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFault(behaviour=DELAY, delay_seconds=-1.0)


MODP = ModPGroup(bits=64)


def uploads(*senders):
    """An upload frame's batch: one record per sender, numbered by its last
    ciphertext byte (the other fields are never read by a link fault)."""
    return SubmissionBatch.from_records(MODP, [
        submission_record(0, sender, b"\x02" * MODP.element_size, b"\x03" * MODP.element_size,
                          0, bytes([index]))
        for index, sender in enumerate(senders)
    ])


class TestLinkFaultSelection:
    """Which envelopes a fault matches, and which elements of a population
    frame survive a ``drop`` aimed at one user inside it."""

    @staticmethod
    def frame(kind, source="population", destination="server-0", payload=(), **fields):
        return ev.Envelope(kind=kind, source=source, destination=destination,
                           round_number=1, payload=payload, **fields)

    def test_a_user_drop_keeps_the_rest_of_an_upload_frame(self):
        upload = uploads("ann", "bob", "ann", "cy")
        envelope = self.frame(ev.SUBMISSION_BATCH, payload=upload)
        fault = LinkFault(behaviour=DROP, source="ann")
        assert fault.matches(envelope)
        assert fault.surviving_elements(envelope) == [1, 3]

    def test_a_user_drop_keeps_the_rest_of_a_download_frame(self):
        owners = [(bytes([index]) * 4, []) for index in range(3)]
        envelope = self.frame(ev.MAILBOX_FETCH_BATCH, source="server-0",
                              destination="population", payload=FetchBatch.from_inboxes(owners))
        fault = LinkFault(behaviour=DROP, destination=owners[1][0].hex())
        assert fault.matches(envelope)
        assert fault.surviving_elements(envelope) == [0, 2]

    def test_an_endpoint_drop_loses_the_whole_envelope(self):
        upload = self.frame(ev.SUBMISSION_BATCH, payload=uploads("ann"))
        assert LinkFault(behaviour=DROP, source="population").surviving_elements(upload) is None
        injected = self.frame(ev.SUBMISSION_BATCH, source=ev.INJECTED, payload=uploads("ann"))
        assert LinkFault(behaviour=DROP, source=ev.INJECTED).surviving_elements(injected) is None
        fault = LinkFault(behaviour=DROP, source="ann")
        assert fault.matches(injected) and fault.surviving_elements(injected) == []
        assert not fault.matches(self.frame(ev.MAILBOX_DELIVERY, source="bob"))

    def test_round_and_chain_selectors_narrow_the_match(self):
        fault = LinkFault(behaviour=DELAY, kind=ev.BATCH, rounds=[2, 3], chain_id=1)
        batch = dict(kind=ev.BATCH, source="server-0", destination="server-1", payload=[])
        assert fault.matches(ev.Envelope(round_number=2, chain_id=1, **batch))
        assert not fault.matches(ev.Envelope(round_number=1, chain_id=1, **batch))
        assert not fault.matches(ev.Envelope(round_number=3, chain_id=0, **batch))
        assert not fault.matches(ev.Envelope(round_number=3, chain_id=1,
                                             **dict(batch, kind=ev.MAILBOX_DELIVERY)))


class TestReorderPermutation:
    """A reorder's permutation is keyed by the fault's seed and the
    envelope's whole identity: kind, round, chain, part, source and
    destination."""

    @staticmethod
    def reordered(kind, size=16, **fields):
        """The order a reorder delivers ``size`` numbered batch elements in."""
        transport = FaultyTransport(
            InProcTransport(), [LinkFault(behaviour=REORDER, kind=kind, seed=3)]
        )
        if kind == ev.MAILBOX_DELIVERY:
            payload = MailboxBatch.from_records(
                bytes([index]) * 32 + bytes(16) for index in range(size)
            )
        else:
            payload = uploads(*(f"user-{index}" for index in range(size)))
        envelope = ev.Envelope(kind=kind, source="population", destination="server-0",
                               round_number=1, payload=payload, **fields)
        delivered = transport.deliver(envelope)
        number = 0 if kind == ev.MAILBOX_DELIVERY else -1  # recipient / ciphertext byte
        order = [delivered.record(index)[number] for index in range(len(delivered))]
        assert len(transport.applied) == 1 and sorted(order) == list(range(size))
        return order

    def test_a_reorder_is_a_pure_function_of_the_envelope(self):
        first = self.reordered(ev.MAILBOX_DELIVERY, chain_id=2)
        assert first == self.reordered(ev.MAILBOX_DELIVERY, chain_id=2) != list(range(16))

    def test_two_chunks_of_one_round_and_chain_draw_different_permutations(self):
        first = self.reordered(ev.SUBMISSION_BATCH, chain_id=0, part=0)
        assert first != self.reordered(ev.SUBMISSION_BATCH, chain_id=0, part=1)

    def test_an_upload_frame_and_a_mailbox_delivery_draw_different_permutations(self):
        upload = self.reordered(ev.SUBMISSION_BATCH, chain_id=0)
        assert upload != self.reordered(ev.MAILBOX_DELIVERY, chain_id=0)


class TestFaultPlanValidation:
    def test_fault_past_the_last_round_rejected(self):
        plan = FaultPlan(
            name="late",
            num_rounds=2,
            server_faults=(
                ServerFault(round_number=3, chain_id=0, position=0,
                            mode="tamper-ciphertext"),
            ),
        )
        with pytest.raises(ConfigurationError):
            plan.validate()

    def test_segments_split_at_blame_rounds(self):
        plan = tamper_and_recover(fault_round=2, num_rounds=4)
        assert plan.segments() == ((1, 2), (3, 4))
        quiet = FaultPlan(name="quiet", num_rounds=3)
        assert quiet.segments() == ((1, 3),)
        final = tamper_and_recover(fault_round=4, num_rounds=4)
        assert final.segments() == ((1, 4),)

    def test_blame_rounds_are_the_sorted_server_and_user_fault_rounds(self):
        plan = FaultPlan(
            name="mixed",
            num_rounds=5,
            server_faults=(
                ServerFault(round_number=4, chain_id=0, position=0,
                            mode="tamper-ciphertext"),
            ),
            user_faults=(UserFault(round_number=2, chain_id=0, sender="user-0",
                                   kind=USER_INVALID_PROOF),),
            link_faults=(LinkFault(behaviour=DROP, rounds=frozenset({3})),),
        )
        assert plan.blame_rounds() == (2, 4)
        assert plan.segments() == ((1, 2), (3, 4), (5, 5))
        assert FaultPlan(name="quiet", num_rounds=3).blame_rounds() == ()

    def test_link_fault_round_past_the_plan_rejected(self):
        plan = FaultPlan(
            name="never-fires",
            num_rounds=2,
            link_faults=(
                LinkFault(behaviour=DROP, kind=ev.SUBMISSION_BATCH,
                          rounds=frozenset({5})),
            ),
        )
        with pytest.raises(ConfigurationError):
            plan.validate()

    def test_unknown_server_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerFault(round_number=1, chain_id=0, position=0, mode="lie")

    def test_unknown_user_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            UserFault(round_number=1, chain_id=0, sender="m", kind="gossip")


class TestScenarioReproducibility:
    def test_same_plan_same_seeded_deployment_is_bit_identical(self):
        first = run_scenario(misauthenticating_user(seed=5))
        second = run_scenario(misauthenticating_user(seed=5))
        assert first.canonical_bytes() == second.canonical_bytes()

    def test_canned_scenarios_all_execute(self):
        for factory in CANNED_SCENARIOS.values():
            report = run_scenario(factory())
            assert report.plan_name == factory().name
            assert len(report.rounds) == factory().num_rounds
