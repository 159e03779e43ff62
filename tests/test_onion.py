"""Tests for padding, inner envelopes, and both onion flavours."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import AEAD_TAG_SIZE, GROUP_ELEMENT_SIZE, PAYLOAD_SIZE
from repro.crypto import onion
from repro.errors import CryptoError


class TestPadding:
    def test_roundtrip(self):
        padded = onion.pad_payload(b"hello")
        assert len(padded) == PAYLOAD_SIZE
        assert onion.unpad_payload(padded) == b"hello"

    def test_empty_payload(self):
        assert onion.unpad_payload(onion.pad_payload(b"")) == b""

    def test_maximum_payload(self):
        data = b"x" * (PAYLOAD_SIZE - 2)
        assert onion.unpad_payload(onion.pad_payload(data)) == data

    def test_oversized_payload_rejected(self):
        with pytest.raises(CryptoError):
            onion.pad_payload(b"x" * (PAYLOAD_SIZE - 1))

    def test_malformed_length_prefix_rejected(self):
        with pytest.raises(CryptoError):
            onion.unpad_payload(b"\xff\xff" + b"\x00" * 10)

    def test_too_short_rejected(self):
        with pytest.raises(CryptoError):
            onion.unpad_payload(b"\x00")

    @given(st.binary(min_size=0, max_size=PAYLOAD_SIZE - 2))
    @settings(max_examples=40)
    def test_roundtrip_property(self, data):
        assert onion.unpad_payload(onion.pad_payload(data)) == data


class TestInnerEnvelope:
    def test_roundtrip_with_all_secrets(self, group):
        inner_secrets = [group.random_scalar() for _ in range(3)]
        aggregate = group.sum(group.base_mult(secret) for secret in inner_secrets)
        envelope = onion.encrypt_inner(group, aggregate, 5, b"mailbox message")
        ok, plaintext = onion.decrypt_inner(group, inner_secrets, 5, envelope)
        assert ok and plaintext == b"mailbox message"

    def test_missing_secret_fails(self, group):
        inner_secrets = [group.random_scalar() for _ in range(3)]
        aggregate = group.sum(group.base_mult(secret) for secret in inner_secrets)
        envelope = onion.encrypt_inner(group, aggregate, 5, b"secret")
        ok, _ = onion.decrypt_inner(group, inner_secrets[:2], 5, envelope)
        assert not ok

    def test_wrong_round_fails(self, group):
        inner_secrets = [group.random_scalar()]
        aggregate = group.base_mult(inner_secrets[0])
        envelope = onion.encrypt_inner(group, aggregate, 5, b"secret")
        ok, _ = onion.decrypt_inner(group, inner_secrets, 6, envelope)
        assert not ok

    def test_serialisation_roundtrip(self, group):
        aggregate = group.base_mult(group.random_scalar())
        envelope = onion.encrypt_inner(group, aggregate, 1, b"data")
        restored = onion.InnerEnvelope.from_bytes(envelope.to_bytes())
        assert restored == envelope
        assert len(envelope) == len(envelope.to_bytes())

    def test_equal_plaintexts_encrypt_apart(self, group):
        """An omitted ``y`` is fresh, never a function of the (public) key and
        plaintext the last server reveals: two equal envelopes do not share it."""
        aggregate = group.base_mult(group.random_scalar())
        first, second = (onion.encrypt_inner(group, aggregate, 3, b"m") for _ in range(2))
        assert first.ephemeral_public != second.ephemeral_public
        drawn = [onion.encrypt_inner(group, aggregate, 3, b"m", ephemeral_secret=7)
                 for _ in range(2)]
        assert drawn[0] == drawn[1]

    def test_from_bytes_too_short(self):
        with pytest.raises(CryptoError):
            onion.InnerEnvelope.from_bytes(b"short")

    def test_single_server_chain(self, group):
        secret = group.random_scalar()
        envelope = onion.encrypt_inner(group, group.base_mult(secret), 2, b"x")
        assert onion.decrypt_inner(group, [secret], 2, envelope) == (True, b"x")


class TestAHSOuterLayers:
    def _chain(self, group, length):
        """Chain keys in the AHS style: mpk_i = msk_i · bpk_{i-1}."""
        base = group.base()
        mixing_secrets, mixing_publics, blinding_secrets = [], [], []
        for _ in range(length):
            blinding_secret = group.random_scalar()
            mixing_secret = group.random_scalar()
            mixing_publics.append(group.scalar_mult(base, mixing_secret))
            mixing_secrets.append(mixing_secret)
            blinding_secrets.append(blinding_secret)
            base = group.scalar_mult(base, blinding_secret)
        return mixing_secrets, mixing_publics, blinding_secrets

    def test_layers_peel_in_order_with_blinding(self, group):
        mixing_secrets, mixing_publics, blinding_secrets = self._chain(group, 4)
        ephemeral = group.random_scalar()
        ciphertext = onion.encrypt_outer_layers(group, mixing_publics, 9, b"inner", ephemeral)
        dh_public = group.base_mult(ephemeral)
        current = ciphertext
        for position in range(4):
            ok, current = onion.decrypt_outer_layer(
                group, mixing_secrets[position], 9, dh_public, current
            )
            assert ok, f"layer {position} failed to authenticate"
            dh_public = group.scalar_mult(dh_public, blinding_secrets[position])
        assert current == b"inner"

    def test_wrong_server_order_fails(self, group):
        mixing_secrets, mixing_publics, _ = self._chain(group, 2)
        ephemeral = group.random_scalar()
        ciphertext = onion.encrypt_outer_layers(group, mixing_publics, 1, b"x", ephemeral)
        ok, _ = onion.decrypt_outer_layer(
            group, mixing_secrets[1], 1, group.base_mult(ephemeral), ciphertext
        )
        assert not ok

    def test_wrong_round_fails(self, group):
        mixing_secrets, mixing_publics, _ = self._chain(group, 1)
        ephemeral = group.random_scalar()
        ciphertext = onion.encrypt_outer_layers(group, mixing_publics, 1, b"x", ephemeral)
        ok, _ = onion.decrypt_outer_layer(
            group, mixing_secrets[0], 2, group.base_mult(ephemeral), ciphertext
        )
        assert not ok

    def test_tampered_ciphertext_fails(self, group):
        mixing_secrets, mixing_publics, _ = self._chain(group, 1)
        ephemeral = group.random_scalar()
        ciphertext = bytearray(onion.encrypt_outer_layers(group, mixing_publics, 1, b"x", ephemeral))
        ciphertext[0] ^= 1
        ok, _ = onion.decrypt_outer_layer(
            group, mixing_secrets[0], 1, group.base_mult(ephemeral), bytes(ciphertext)
        )
        assert not ok

    def test_empty_chain_is_identity(self, group):
        assert onion.encrypt_outer_layers(group, [], 1, b"payload", 5) == b"payload"


class TestBaselineOnion:
    def test_roundtrip(self, group):
        mixing_secrets = [group.random_scalar() for _ in range(3)]
        mixing_publics = [group.base_mult(secret) for secret in mixing_secrets]
        ciphertext = onion.encrypt_onion_baseline(group, mixing_publics, 4, b"payload")
        current = ciphertext
        for secret in mixing_secrets:
            ok, current = onion.decrypt_baseline_layer(group, secret, 4, current)
            assert ok
        assert current == b"payload"

    def test_equal_payloads_encrypt_apart(self, group):
        """Without a stream key each onion's layer secrets are fresh: the payload
        leaves the last server in the clear, so secrets derived from it (and the
        public keys) would let anyone rebuild g^{x_1} and link output to sender."""
        mixing_publics = [group.base_mult(group.random_scalar()) for _ in range(2)]
        first, second = (
            onion.encrypt_onion_baseline(group, mixing_publics, 1, b"same") for _ in range(2)
        )
        assert first[:GROUP_ELEMENT_SIZE] != second[:GROUP_ELEMENT_SIZE]
        key = b"\x05" * 32
        assert onion.encrypt_onion_baseline(group, mixing_publics, 1, b"same", key) == (
            onion.encrypt_onion_baseline(group, mixing_publics, 1, b"same", key)
        )

    def test_wrong_key_fails(self, group):
        mixing_publics = [group.base_mult(group.random_scalar())]
        ciphertext = onion.encrypt_onion_baseline(group, mixing_publics, 1, b"p")
        ok, _ = onion.decrypt_baseline_layer(group, group.random_scalar(), 1, ciphertext)
        assert not ok

    def test_too_short_input(self, group):
        ok, _ = onion.decrypt_baseline_layer(group, 1, 1, b"tiny")
        assert not ok

    def test_garbage_key_encoding(self, group):
        ok, _ = onion.decrypt_baseline_layer(group, 1, 1, b"\xff" * 80)
        assert not ok


class TestSizeAccounting:
    def test_ahs_size_matches_construction(self, group):
        """onion_size() must match the byte length the real construction produces."""
        chain_length = 3
        mixing_secrets = [group.random_scalar() for _ in range(chain_length)]
        mixing_publics = [group.base_mult(s) for s in mixing_secrets]
        aggregate = group.base_mult(group.random_scalar())
        mailbox_plaintext = b"\x00" * (GROUP_ELEMENT_SIZE + PAYLOAD_SIZE + AEAD_TAG_SIZE)
        envelope = onion.encrypt_inner(group, aggregate, 1, mailbox_plaintext)
        ephemeral = group.random_scalar()
        ciphertext = onion.encrypt_outer_layers(group, mixing_publics, 1, envelope.to_bytes(), ephemeral)
        produced = GROUP_ELEMENT_SIZE + len(ciphertext)
        assert produced == onion.onion_size(chain_length)

    def test_baseline_size_matches_construction(self, group):
        chain_length = 2
        mixing_publics = [group.base_mult(group.random_scalar()) for _ in range(chain_length)]
        mailbox_plaintext = b"\x00" * (GROUP_ELEMENT_SIZE + PAYLOAD_SIZE + AEAD_TAG_SIZE)
        ciphertext = onion.encrypt_onion_baseline(group, mixing_publics, 1, mailbox_plaintext)
        assert len(ciphertext) == onion.onion_size(chain_length, ahs=False)

    def test_size_monotone_in_chain_length(self):
        sizes = [onion.onion_size(k) for k in range(1, 40)]
        assert sizes == sorted(sizes)

    def test_layer_sizes(self):
        sizes = onion.onion_layers_sizes(4)
        assert len(sizes) == 4
        assert sizes[0] > sizes[-1]
