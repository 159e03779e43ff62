"""Tests for key pairs and the key directory (PKI stand-in)."""

import pytest

from repro.crypto import stream
from repro.crypto.keys import KeyDirectory, KeyPair
from repro.errors import ConfigurationError


class TestKeyPair:
    def test_generate_consistency(self, group):
        keypair = KeyPair.generate(group)
        assert keypair.public == group.base_mult(keypair.secret)
        assert keypair.public_bytes == group.encode(keypair.public)

    def test_from_secret_roundtrip(self, group):
        keypair = KeyPair.generate(group)
        rebuilt = KeyPair.from_secret(keypair.secret, group)
        assert rebuilt.public_bytes == keypair.public_bytes

    def test_from_secret_reduces_modulo_order(self, group):
        keypair = KeyPair.from_secret(group.order + 5, group)
        assert keypair.secret == 5

    def test_from_secret_rejects_zero(self, group):
        with pytest.raises(ConfigurationError):
            KeyPair.from_secret(group.order, group)

    def test_a_stream_key_determines_the_pair(self, group):
        """The pair of a stream key is its identity draw: the key pair a
        deployment gives the user holding that key."""
        key = stream.stream_key(9)
        first = KeyPair.generate(group, key)
        assert first.public_bytes == KeyPair.generate(group, key).public_bytes
        assert first.secret == stream.draw_scalars(group, key, stream.IDENTITY, 0, 0, 1)[0]
        assert first.public_bytes != KeyPair.generate(group, stream.stream_key(10)).public_bytes

    def test_distinct_keypairs(self, group):
        assert KeyPair.generate(group).public_bytes != KeyPair.generate(group).public_bytes

    def test_identity_secret_bytes(self, group):
        assert len(KeyPair.generate(group).identity_secret_bytes()) == 32

    def test_a_keypair_defaults_to_ed25519(self):
        keypair = KeyPair.generate()
        assert len(keypair.public_bytes) == 32


class TestKeyDirectory:
    def test_register_and_lookup(self, group):
        directory = KeyDirectory(group=group)
        directory.register_user("alice", b"\x01" * 32)
        directory.register_server("server-0", b"\x02" * 32)
        assert directory.user_public_key("alice") == b"\x01" * 32
        assert directory.server_public_key("server-0") == b"\x02" * 32
        assert "alice" in directory
        assert "server-0" in directory
        assert len(directory) == 2

    def test_unknown_lookups_raise(self, group):
        directory = KeyDirectory(group=group)
        with pytest.raises(ConfigurationError):
            directory.user_public_key("nobody")
        with pytest.raises(ConfigurationError):
            directory.server_public_key("nobody")

    def test_registration_order_preserved(self, group):
        directory = KeyDirectory(group=group)
        for index in range(5):
            directory.register_user(f"user-{index}", bytes([index]) * 32)
        assert directory.users() == [f"user-{index}" for index in range(5)]

    def test_reregistration_overwrites(self, group):
        directory = KeyDirectory(group=group)
        directory.register_user("alice", b"\x01" * 32)
        directory.register_user("alice", b"\x03" * 32)
        assert directory.user_public_key("alice") == b"\x03" * 32
        assert len(directory.users()) == 1
