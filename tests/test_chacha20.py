"""RFC 8439 test vectors and behaviour tests for the ChaCha20 implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import chacha20
from repro.errors import CryptoError

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK_1 = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)

SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
SUNSCREEN_KEY = bytes(range(32))
SUNSCREEN_NONCE = bytes.fromhex("000000000000004a00000000")
SUNSCREEN_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)


class TestBlockFunction:
    def test_rfc8439_block_vector(self):
        block = chacha20.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        assert block == RFC_BLOCK_1

    def test_block_is_64_bytes(self):
        assert len(chacha20.chacha20_block(b"\x00" * 32, 0, b"\x00" * 12)) == 64

    def test_counter_changes_block(self):
        one = chacha20.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        two = chacha20.chacha20_block(RFC_KEY, 2, RFC_NONCE)
        assert one != two

    def test_invalid_key_length(self):
        with pytest.raises(CryptoError):
            chacha20.chacha20_block(b"short", 0, RFC_NONCE)

    def test_invalid_nonce_length(self):
        with pytest.raises(CryptoError):
            chacha20.chacha20_block(RFC_KEY, 0, b"short")

    def test_invalid_counter(self):
        with pytest.raises(CryptoError):
            chacha20.chacha20_block(RFC_KEY, 2**32, RFC_NONCE)


class TestEncryption:
    def test_rfc8439_sunscreen_vector(self):
        ciphertext = chacha20.chacha20_encrypt(
            SUNSCREEN_KEY, SUNSCREEN_NONCE, SUNSCREEN, initial_counter=1
        )
        assert ciphertext == SUNSCREEN_CIPHERTEXT

    def test_encrypt_decrypt_roundtrip(self):
        data = b"attack at dawn" * 10
        ciphertext = chacha20.chacha20_encrypt(RFC_KEY, RFC_NONCE, data)
        assert chacha20.chacha20_decrypt(RFC_KEY, RFC_NONCE, ciphertext) == data

    def test_empty_plaintext(self):
        assert chacha20.chacha20_encrypt(RFC_KEY, RFC_NONCE, b"") == b""

    @settings(max_examples=50, deadline=None)
    @given(left=st.binary(max_size=80), extra=st.binary(max_size=16), data=st.data())
    def test_xor_bytes_matches_the_bytewise_xor(self, left, extra, data):
        right = data.draw(st.binary(min_size=len(left), max_size=len(left))) + extra
        expected = bytes(a ^ b for a, b in zip(left, right))
        assert chacha20.xor_bytes(left, right) == expected

    def test_keystream_prefix_property(self):
        long = chacha20.chacha20_keystream(RFC_KEY, RFC_NONCE, 200)
        short = chacha20.chacha20_keystream(RFC_KEY, RFC_NONCE, 64)
        assert long[:64] == short

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=30)
    def test_roundtrip_property(self, data):
        ciphertext = chacha20.chacha20_encrypt(RFC_KEY, RFC_NONCE, data)
        assert len(ciphertext) == len(data)
        assert chacha20.chacha20_decrypt(RFC_KEY, RFC_NONCE, ciphertext) == data
