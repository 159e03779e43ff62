"""Tests for adversarial behaviours at the deployment level."""

import pytest

from repro.coordinator.adversary import (
    MODE_BREAK_AGGREGATE,
    MODE_DROP_MESSAGE,
    MODE_PRESERVE_AGGREGATE,
    MODE_TAMPER_CIPHERTEXT,
    TamperingMember,
    forge_invalid_proof_submission,
    forge_misauthenticated_submission,
    install_tampering_server,
)
from repro.crypto.stream import stream_key
from repro.errors import ConfigurationError
from repro.mixnet.ahs import ChainRoundResult

from tests.conftest import make_deployment


class TestTamperingServerAtDeploymentLevel:
    @pytest.mark.parametrize(
        "mode,expected_status",
        [
            (MODE_TAMPER_CIPHERTEXT, ChainRoundResult.STATUS_HALTED_BLAME),
            (MODE_PRESERVE_AGGREGATE, ChainRoundResult.STATUS_HALTED_BLAME),
            (MODE_BREAK_AGGREGATE, ChainRoundResult.STATUS_HALTED_SERVER),
            (MODE_DROP_MESSAGE, ChainRoundResult.STATUS_HALTED_SERVER),
        ],
    )
    def test_every_tampering_mode_is_detected(self, mode, expected_status):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=7
        )
        install_tampering_server(deployment, chain_id=0, position=0, mode=mode)
        report = deployment.run_round()
        result = report.chain_results[0]
        assert result.status == expected_status
        # The affected chain released nothing; other chains were unaffected.
        assert result.mailbox_messages == []
        assert report.chain_results[1].delivered
        assert report.chain_results[2].delivered

    def test_tampering_identifies_correct_server(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=7
        )
        chain = deployment.chain(0)
        guilty_name = chain.members[0].server_name
        install_tampering_server(deployment, chain_id=0, position=0, mode=MODE_TAMPER_CIPHERTEXT)
        report = deployment.run_round()
        verdict = report.chain_results[0].blame_verdict
        assert verdict.malicious_servers == [guilty_name]
        assert verdict.malicious_users == []

    def test_other_chains_unaffected_conversations_succeed(self):
        from repro.client.chain_selection import intersection_chain

        deployment = make_deployment(
            num_servers=4, num_users=12, num_chains=3, chain_length=3, seed=11
        )
        # Find a conversation whose intersection chain is NOT the tampered one.
        alice, bob = None, None
        for first in deployment.users:
            for second in deployment.users:
                if first is second:
                    continue
                chain_id = intersection_chain(
                    first.public_bytes, second.public_bytes, deployment.num_chains
                )
                if chain_id != 0:
                    alice, bob = first, second
                    break
            if alice:
                break
        assert alice is not None, "test setup: no pair avoids chain 0"
        deployment.start_conversation(alice.name, bob.name)
        install_tampering_server(deployment, chain_id=0, position=0, mode=MODE_TAMPER_CIPHERTEXT)
        report = deployment.run_round(payloads={alice.name: b"safe?", bob.name: b"yes"})
        assert report.conversation_payloads(bob.name) == [b"safe?"]

    def test_invalid_mode_rejected(self, deployment):
        with pytest.raises(ConfigurationError):
            TamperingMember(deployment.chain(0).members[0], "unknown-mode")

    def test_install_position_out_of_range(self, deployment):
        with pytest.raises(ConfigurationError):
            install_tampering_server(deployment, 0, 99, MODE_TAMPER_CIPHERTEXT)

    def test_wrapper_delegates_attributes(self, deployment):
        member = deployment.chain(0).members[0]
        wrapper = TamperingMember(member, MODE_TAMPER_CIPHERTEXT)
        assert wrapper.server_name == member.server_name
        assert wrapper.position == member.position
        assert wrapper.blinding_public == member.blinding_public


class TestAdversarialReproducibility:
    """Keyed adversaries are exactly as reproducible as honest members.

    The wrapper draws from its stream key by (round, draw counter), as a
    chain member does, so adversarial rounds are bit-identical under every
    backend and scheduler.
    """

    def test_preserve_aggregate_tampering_reproducible(self):
        def tampered_batch():
            deployment = make_deployment(
                num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=7
            )
            install_tampering_server(
                deployment, 0, 0, MODE_PRESERVE_AGGREGATE, stream_key=stream_key(99)
            )
            deployment.run_round()
            # What the (honest) second member received is the tampered output.
            record = deployment.chain(0).members[1].round_record(1)
            return record.inputs.blob

        assert tampered_batch() == tampered_batch()

    def test_round_draws_do_not_depend_on_round_order(self):
        deployment = make_deployment()
        member = deployment.chain(0).members[0]
        first = TamperingMember(member, MODE_BREAK_AGGREGATE, stream_key=stream_key(5))
        second = TamperingMember(member, MODE_BREAK_AGGREGATE, stream_key=stream_key(5))
        # Same draws per round regardless of the order rounds are touched.
        in_order = [first._draw_scalar(2), first._draw_scalar(9), first._draw_scalar(9)]
        reversed_order = [second._draw_scalar(9), second._draw_scalar(9), second._draw_scalar(2)]
        assert in_order == [reversed_order[2], reversed_order[0], reversed_order[1]]
        # A round's second draw (a blame rerun's) is a fresh block.
        assert in_order[1] != in_order[2]

    def test_round_scoped_tampering_fires_only_in_its_rounds(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=7
        )
        install_tampering_server(
            deployment, 0, 0, MODE_TAMPER_CIPHERTEXT, rounds={2}
        )
        assert deployment.run_round().chain_results[0].delivered
        second = deployment.run_round()
        assert second.chain_results[0].status == ChainRoundResult.STATUS_HALTED_BLAME
        assert deployment.run_round().chain_results[0].delivered

    def test_forged_submissions_reproducible_with_a_stream_key(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=8
        )
        views = deployment.chain_keys_view(1)

        def forge(kind, seed=17):
            key = stream_key(seed)
            if kind == "misauth":
                return forge_misauthenticated_submission(
                    deployment.group, views[0], 1, "mallory", stream_key=key
                ).to_bytes()
            return forge_invalid_proof_submission(
                deployment.group, views[0], 1, "mallory", stream_key=key
            ).to_bytes()

        assert forge("misauth") == forge("misauth") != forge("misauth", seed=18)
        assert forge("proof") == forge("proof") != forge("proof", seed=18)


class TestDerivedAdversarialDeterminism:
    """Adversaries given no stream key derive one from the call context.

    Regression for the xrdlint determinism findings: the forge helpers used
    to fall back to OS entropy when given no randomness, so an adversarial
    round on a fully seeded deployment still produced different bytes on
    every run — breaking the "adversarial rounds are exactly as reproducible
    as honest ones" contract the parity matrix and blame rely on.
    """

    @staticmethod
    def _adversarial_round_bytes() -> bytes:
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=7
        )
        # No key anywhere: every adversarial draw must be derived, not fresh.
        install_tampering_server(
            deployment, chain_id=0, position=1, mode=MODE_PRESERVE_AGGREGATE
        )
        views = deployment.chain_keys_view(1)
        bad = [
            forge_misauthenticated_submission(deployment.group, views[1], 1, "mallory"),
            forge_invalid_proof_submission(deployment.group, views[2], 1, "eve"),
        ]
        return deployment.run_round(extra_submissions=bad).canonical_bytes()

    def test_unseeded_adversarial_round_bit_identical_across_runs(self):
        assert self._adversarial_round_bytes() == self._adversarial_round_bytes()

    def test_forged_submissions_without_a_key_are_deterministic(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=8
        )
        views = deployment.chain_keys_view(1)
        def forge():
            return forge_misauthenticated_submission(
                deployment.group, views[0], 1, "mallory"
            )

        def proof():
            return forge_invalid_proof_submission(deployment.group, views[0], 1, "eve")

        assert forge().to_bytes() == forge().to_bytes()
        assert proof().to_bytes() == proof().to_bytes()

    def test_unseeded_tampering_wrapper_draws_are_deterministic(self):
        deployment = make_deployment()
        member = deployment.chain(0).members[0]
        first = TamperingMember(member, MODE_BREAK_AGGREGATE)
        second = TamperingMember(member, MODE_BREAK_AGGREGATE)
        assert first._draw_scalar(3) == second._draw_scalar(3)


class TestMaliciousUsers:
    def test_misauthenticated_submission_convicted_and_removed(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=8
        )
        views = deployment.chain_keys_view(1)
        bad = forge_misauthenticated_submission(deployment.group, views[0], 1, "mallory")
        report = deployment.run_round(extra_submissions=[bad])
        assert "mallory" in report.rejected_senders
        assert report.chain_results[0].delivered
        # Honest users' messages were unaffected.
        assert set(report.mailbox_counts.values()) == {deployment.ell()}

    def test_invalid_proof_rejected_at_intake(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=9
        )
        views = deployment.chain_keys_view(1)
        bad = forge_invalid_proof_submission(deployment.group, views[0], 1, "mallory")
        report = deployment.run_round(extra_submissions=[bad])
        assert "mallory" in report.rejected_senders
        assert report.chain_results[0].delivered
        # Intake rejection means no blame protocol was needed.
        assert report.chain_results[0].blame_verdict is None

    def test_forge_fail_position_out_of_range(self, deployment):
        views = deployment.chain_keys_view(1)
        with pytest.raises(ConfigurationError):
            forge_misauthenticated_submission(
                deployment.group, views[0], 1, "mallory", fail_at_position=99
            )

    def test_multiple_malicious_users_different_chains(self):
        deployment = make_deployment(
            num_servers=4, num_users=4, num_chains=3, chain_length=3, seed=10
        )
        views = deployment.chain_keys_view(1)
        bad = [
            forge_misauthenticated_submission(deployment.group, views[chain_id], 1, f"mallory-{chain_id}")
            for chain_id in range(3)
        ]
        report = deployment.run_round(extra_submissions=bad)
        assert sorted(report.rejected_senders) == ["mallory-0", "mallory-1", "mallory-2"]
        assert report.all_chains_delivered()
