"""Tests for the blame protocol (§6.4): convict the guilty, never the honest."""

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import BlameError
from repro.mixnet.ahs import ChainRoundResult
from repro.mixnet.blame import BlameVerdict, run_blame_protocol
from repro.mixnet.messages import EncodedBatch
from repro.coordinator.adversary import (
    MODE_PRESERVE_AGGREGATE,
    MODE_TAMPER_CIPHERTEXT,
    TamperingMember,
    forge_misauthenticated_submission,
)
from repro.client.user import ChainKeysView

from tests.test_ahs_protocol import build_chain, make_submission


def keys_view(chain, round_number):
    return ChainKeysView(
        chain_id=chain.chain_id,
        mixing_publics=chain.public_keys.mixing_publics,
        aggregate_inner_public=chain.aggregate_inner_public(round_number),
    )


class TestMaliciousUserConviction:
    def test_user_failing_at_last_server_is_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x01" * 32)
            for index in range(3)
        ]
        bad = forge_misauthenticated_submission(group, keys_view(chain, 1), 1, "mallory")
        chain.accept_submissions(1, honest + [bad])
        result = chain.run_round(1, retry_after_blame=True)
        assert result.delivered
        assert "mallory" in result.rejected_senders
        assert result.blame_verdict is not None
        assert result.blame_verdict.malicious_users == ["mallory"]
        assert result.blame_verdict.malicious_servers == []
        # Honest traffic still goes through after the retry.
        assert len(result.mailbox_messages) == 3

    def test_user_failing_mid_chain_is_convicted(self, group):
        chain = build_chain(group, length=4)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x02" * 32)
        bad = forge_misauthenticated_submission(
            group, keys_view(chain, 1), 1, "mallory", fail_at_position=2
        )
        chain.accept_submissions(1, [honest, bad])
        result = chain.run_round(1)
        assert result.delivered
        assert result.blame_verdict.malicious_users == ["mallory"]

    def test_user_failing_at_first_server_is_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x03" * 32)
        bad = forge_misauthenticated_submission(
            group, keys_view(chain, 1), 1, "mallory", fail_at_position=0
        )
        chain.accept_submissions(1, [honest, bad])
        result = chain.run_round(1)
        assert result.delivered
        assert result.blame_verdict.malicious_users == ["mallory"]

    def test_multiple_malicious_users_all_convicted(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        honest = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x04" * 32)
            for index in range(2)
        ]
        bad = [
            forge_misauthenticated_submission(group, keys_view(chain, 1), 1, f"mallory-{index}")
            for index in range(3)
        ]
        chain.accept_submissions(1, honest + bad)
        result = chain.run_round(1)
        assert result.delivered
        assert sorted(result.blame_verdict.malicious_users) == [
            "mallory-0",
            "mallory-1",
            "mallory-2",
        ]
        assert len(result.mailbox_messages) == 2

    def test_no_retry_halts_round(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        bad = forge_misauthenticated_submission(group, keys_view(chain, 1), 1, "mallory")
        chain.accept_submissions(1, [bad])
        result = chain.run_round(1, retry_after_blame=False)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_users == ["mallory"]


class TestMaliciousServerConviction:
    def _tampered_chain(self, group, mode, position=0, length=3, seed=21):
        chain = build_chain(group, length=length, seed=seed)
        chain.members[position] = TamperingMember(chain.members[position], mode)
        return chain

    def test_ciphertext_tampering_convicts_server(self, group):
        chain = self._tampered_chain(group, MODE_TAMPER_CIPHERTEXT, position=0)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x05" * 32)
            for index in range(3)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-0"]
        assert result.blame_verdict.malicious_users == []

    def test_aggregate_preserving_tampering_convicts_server(self, group):
        """Fixing the aggregate does not help: per-message DLEQs in blame catch it."""
        chain = self._tampered_chain(group, MODE_PRESERVE_AGGREGATE, position=0)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x06" * 32)
            for index in range(4)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-0"]
        assert result.blame_verdict.malicious_users == []

    def test_middle_server_tampering_convicted(self, group):
        chain = self._tampered_chain(group, MODE_TAMPER_CIPHERTEXT, position=1, length=4)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x07" * 32)
            for index in range(3)
        ]
        chain.accept_submissions(1, submissions)
        result = chain.run_round(1)
        assert result.status == ChainRoundResult.STATUS_HALTED_BLAME
        assert result.blame_verdict.malicious_servers == ["server-1"]

    def test_honest_users_never_convicted_by_tampering_server(self, group):
        """Whatever a tampering server does, no honest user ends up convicted."""
        for mode in (MODE_TAMPER_CIPHERTEXT, MODE_PRESERVE_AGGREGATE):
            chain = self._tampered_chain(group, mode, position=0)
            chain.begin_round(1)
            recipient = KeyPair.generate(group)
            submissions = [
                make_submission(group, chain, 1, f"user-{index}", recipient.public_bytes, b"\x08" * 32)
                for index in range(3)
            ]
            chain.accept_submissions(1, submissions)
            result = chain.run_round(1)
            assert result.blame_verdict is not None
            assert result.blame_verdict.malicious_users == []


class TestBlameProtocolDirect:
    def test_invalid_accusing_position(self, group):
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        chain.accept_submissions(1, [])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, accusing_position=5, flagged_input_indices=[0], history=[EncodedBatch.from_entries(group, [])])

    def test_history_must_cover_accuser(self, group):
        chain = build_chain(group, length=3)
        chain.begin_round(1)
        chain.accept_submissions(1, [])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, accusing_position=2, flagged_input_indices=[0], history=[EncodedBatch.from_entries(group, [])])

    def test_flagged_index_out_of_range(self, group):
        chain = build_chain(group, length=1)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        with pytest.raises(BlameError):
            run_blame_protocol(chain, 1, 0, [5], [entries])

    def test_false_accusation_convicts_accuser_not_user(self, group):
        """An honest user's ciphertext decrypts fine, so accusing her backfires (§6.4)."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        # Server 0 processes the batch normally, then falsely accuses Alice's
        # (perfectly valid) submission anyway.
        chain.members[0].process_round(1, entries)
        verdict = run_blame_protocol(
            chain, 1, accusing_position=0, flagged_input_indices=[0], history=[entries]
        )
        assert verdict.malicious_users == []
        assert verdict.malicious_servers == ["server-0"]
        assert verdict.false_accusations == 1

    def test_accusation_without_processing_also_backfires(self, group):
        """A server that accuses without even revealing a consistent key is convicted."""
        chain = build_chain(group, length=2)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submission = make_submission(group, chain, 1, "alice", recipient.public_bytes, b"\x01" * 32)
        entries, _ = chain.accept_submissions(1, [submission])
        verdict = run_blame_protocol(
            chain, 1, accusing_position=0, flagged_input_indices=[0], history=[entries]
        )
        assert verdict.malicious_users == []
        assert verdict.malicious_servers == ["server-0"]

    def test_verdict_dataclass(self):
        verdict = BlameVerdict(chain_id=0, round_number=1)
        assert not verdict.identified
        verdict.malicious_users.append("mallory")
        assert verdict.identified
