"""Tests for the AEAD construction (AEnc / ADec of §3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import AEAD_TAG_SIZE
from repro.crypto import kernels
from repro.crypto.aead import (
    AuthenticatedCiphertext,
    adec,
    adec_batch,
    aenc,
    aenc_batch,
    ciphertext_overhead,
)
from repro.errors import CryptoError

KEY = b"\x11" * 32
OTHER_KEY = b"\x22" * 32


class TestRFC8439:
    """Section 2.8.2's AEAD vector; the single calls are a batch of one on
    whichever tier is active, so the vector pins both tiers to the RFC."""

    KEY = bytes(range(0x80, 0xA0))
    NONCE = bytes.fromhex("070000004041424344454647")
    AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    PLAINTEXT = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    CIPHERTEXT = bytes.fromhex(
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b6116"
    )
    TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

    def test_seal_and_open_the_vector(self, tier):
        sealed = aenc(self.KEY, self.NONCE, self.PLAINTEXT, self.AAD)
        assert sealed == self.CIPHERTEXT + self.TAG
        assert adec(self.KEY, self.NONCE, sealed, self.AAD) == (True, self.PLAINTEXT)

    @given(st.binary(min_size=32, max_size=32), st.integers(0, 2**40),
           st.binary(max_size=300), st.binary(max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_single_call_is_a_batch_of_one(self, key, round_number, plaintext, aad):
        try:
            for name in ["python"] + ["native"] * kernels.native_available():
                kernels.set_active_kernel(name)
                sealed = aenc(key, round_number, plaintext, aad)
                assert [sealed] == aenc_batch([key], round_number, [plaintext], aad)
                assert [adec(key, round_number, sealed, aad)] == adec_batch(
                    [key], round_number, [sealed], aad
                ) == [(True, plaintext)]
        finally:
            kernels.reset_kernel_for_tests()


class TestRoundtrip:
    def test_basic_roundtrip(self):
        ciphertext = aenc(KEY, 7, b"hello bob")
        ok, plaintext = adec(KEY, 7, ciphertext)
        assert ok and plaintext == b"hello bob"

    def test_round_number_as_nonce(self):
        ciphertext = aenc(KEY, 3, b"payload")
        assert adec(KEY, 4, ciphertext) == (False, None)

    def test_explicit_nonce_bytes(self):
        nonce = b"\x00" * 11 + b"\x09"
        ciphertext = aenc(KEY, nonce, b"data")
        ok, plaintext = adec(KEY, nonce, ciphertext)
        assert ok and plaintext == b"data"
        # An integer round number encoding to the same 12 bytes is equivalent.
        assert adec(KEY, 9, ciphertext) == (True, b"data")

    def test_associated_data_is_bound(self):
        ciphertext = aenc(KEY, 1, b"data", aad=b"chain-3")
        assert adec(KEY, 1, ciphertext, aad=b"chain-3") == (True, b"data")
        assert adec(KEY, 1, ciphertext, aad=b"chain-4") == (False, None)

    def test_overhead_is_one_tag(self):
        ciphertext = aenc(KEY, 1, b"x" * 100)
        assert len(ciphertext) == 100 + AEAD_TAG_SIZE

    def test_empty_plaintext(self):
        ciphertext = aenc(KEY, 1, b"")
        assert adec(KEY, 1, ciphertext) == (True, b"")

    @given(st.binary(min_size=0, max_size=400), st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=40)
    def test_roundtrip_property(self, plaintext, round_number):
        ciphertext = aenc(KEY, round_number, plaintext)
        assert adec(KEY, round_number, ciphertext) == (True, plaintext)


class TestAuthenticationFailures:
    """The two properties §3.1 requires of authenticated encryption."""

    def test_wrong_key_rejected(self):
        ciphertext = aenc(KEY, 1, b"secret")
        assert adec(OTHER_KEY, 1, ciphertext) == (False, None)

    def test_cannot_forge_without_key(self):
        # A random blob of the right shape does not authenticate.
        assert adec(KEY, 1, b"\x00" * 48) == (False, None)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40)
    def test_single_byte_tampering_detected(self, position):
        plaintext = b"m" * 185
        ciphertext = bytearray(aenc(KEY, 1, plaintext))
        position %= len(ciphertext)
        ciphertext[position] ^= 0x01
        assert adec(KEY, 1, bytes(ciphertext)) == (False, None)

    def test_truncated_ciphertext_rejected(self):
        ciphertext = aenc(KEY, 1, b"hello")
        assert adec(KEY, 1, ciphertext[: AEAD_TAG_SIZE - 1]) == (False, None)

    def test_same_ciphertext_does_not_authenticate_under_two_keys(self):
        # Empirical check of §3.1 property (2) over many keys.
        ciphertext = aenc(KEY, 1, b"message")
        for index in range(50):
            other = bytes([index + 1]) * 32
            if other == KEY:
                continue
            assert adec(other, 1, ciphertext) == (False, None)


class TestInputValidation:
    def test_key_length_enforced_on_encrypt(self):
        with pytest.raises(CryptoError):
            aenc(b"short", 1, b"data")

    def test_key_length_enforced_on_decrypt(self):
        with pytest.raises(CryptoError):
            adec(b"short", 1, b"data" * 10)

    def test_negative_round_rejected(self):
        with pytest.raises(CryptoError):
            aenc(KEY, -1, b"data")

    def test_bad_nonce_type_on_decrypt_fails_closed(self):
        ciphertext = aenc(KEY, 1, b"data")
        assert adec(KEY, b"wrong-length-nonce", ciphertext) == (False, None)

    def test_overhead_helper(self):
        assert ciphertext_overhead(3) == 3 * AEAD_TAG_SIZE


class TestAuthenticatedCiphertextContainer:
    def test_roundtrip(self):
        container = AuthenticatedCiphertext.from_bytes(aenc(KEY, 1, b"abc"))
        assert len(container.tag) == AEAD_TAG_SIZE
        restored = AuthenticatedCiphertext.from_bytes(container.to_bytes())
        assert restored == container
        assert len(container) == len(container.to_bytes())

    def test_too_short_rejected(self):
        with pytest.raises(CryptoError):
            AuthenticatedCiphertext.from_bytes(b"short")
