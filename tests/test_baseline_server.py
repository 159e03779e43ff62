"""Tests for the baseline (non-AHS) mix chain of §5 / Algorithm 1."""

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.stream import stream_key
from repro.crypto.onion import encrypt_onion_baseline
from repro.errors import ProtocolError
from repro.mixnet.messages import MailboxMessage, MessageBody
from repro.mixnet.server import BaselineMixChain, BaselineMixServer


def build_baseline_chain(group, length=3, seed=5):
    servers = [
        BaselineMixServer(f"server-{index}", group, stream_key(seed + index))
        for index in range(length)
    ]
    return BaselineMixChain(chain_id=0, servers=servers, group=group)


def make_onion(group, chain, round_number, recipient, key, content=b"hi"):
    mailbox_message = MailboxMessage.seal(recipient, key, round_number, MessageBody.data(content))
    return encrypt_onion_baseline(
        group, chain.mixing_public_keys(), round_number, mailbox_message.to_bytes()
    )


class TestBaselineChain:
    def test_round_delivers_all_messages(self, group):
        chain = build_baseline_chain(group)
        recipients = [KeyPair.generate(group) for _ in range(4)]
        onions = [
            make_onion(group, chain, 1, keypair.public_bytes, b"\x01" * 32, f"msg-{i}".encode())
            for i, keypair in enumerate(recipients)
        ]
        result = chain.run_round(1, onions)
        assert len(result.mailbox_messages) == 4
        assert result.dropped == 0
        assert {m.recipient for m in result.mailbox_messages} == {
            k.public_bytes for k in recipients
        }

    def test_messages_decrypt_correctly(self, group):
        chain = build_baseline_chain(group, length=2)
        recipient = KeyPair.generate(group)
        onion = make_onion(group, chain, 2, recipient.public_bytes, b"\x02" * 32, b"secret")
        result = chain.run_round(2, [onion])
        body = result.mailbox_messages[0].open(b"\x02" * 32, 2)
        assert body is not None and body.content == b"secret"

    def test_shuffling_changes_order(self, group):
        chain = build_baseline_chain(group, length=2, seed=9)
        recipients = [KeyPair.generate(group) for _ in range(10)]
        onions = [
            make_onion(group, chain, 1, keypair.public_bytes, b"\x03" * 32)
            for keypair in recipients
        ]
        result = chain.run_round(1, onions)
        delivered = [m.recipient for m in result.mailbox_messages]
        submitted = [k.public_bytes for k in recipients]
        assert sorted(delivered) == sorted(submitted)
        assert delivered != submitted

    def test_garbage_input_dropped_silently(self, group):
        """The baseline design just drops bad inputs — no detection, no blame."""
        chain = build_baseline_chain(group)
        recipient = KeyPair.generate(group)
        good = make_onion(group, chain, 1, recipient.public_bytes, b"\x04" * 32)
        result = chain.run_round(1, [good, b"\xff" * 200])
        assert len(result.mailbox_messages) == 1
        assert result.dropped == 1

    def test_wrong_round_dropped(self, group):
        chain = build_baseline_chain(group)
        recipient = KeyPair.generate(group)
        onion = make_onion(group, chain, 1, recipient.public_bytes, b"\x05" * 32)
        result = chain.run_round(2, [onion])
        assert result.dropped >= 1
        assert result.mailbox_messages == []

    def test_empty_chain_rejected(self, group):
        with pytest.raises(ProtocolError):
            BaselineMixChain(0, [], group)

    def test_single_server_process(self, group):
        server = BaselineMixServer("s", group, stream_key(0))
        chain = BaselineMixChain(0, [server], group)
        recipient = KeyPair.generate(group)
        onion = make_onion(group, chain, 1, recipient.public_bytes, b"\x06" * 32)
        outputs, failed = server.process(1, [onion])
        assert failed == []
        assert len(outputs) == 1

    def test_len(self, group):
        assert len(build_baseline_chain(group, length=4)) == 4
