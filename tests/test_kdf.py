"""Tests for HKDF and the XRD key schedules."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import kdf, kernels
from repro.errors import CryptoError

#: RFC 5869 appendix A, the SHA-256 cases: (IKM, salt, info, L, PRK, OKM).
RFC5869 = {
    "A.1": (
        b"\x0b" * 22,
        bytes(range(13)),
        bytes(range(0xF0, 0xFA)),
        42,
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865",
    ),
    # Everything longer than a SHA-256 block: 80-byte IKM, salt and info.
    "A.2": (
        bytes(range(0x00, 0x50)),
        bytes(range(0x60, 0xB0)),
        bytes(range(0xB0, 0x100)),
        82,
        "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87",
    ),
    # Zero-length salt and info.
    "A.3": (
        b"\x0b" * 22,
        b"",
        b"",
        42,
        "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8",
    ),
}

class TestRFC5869:
    @pytest.mark.parametrize("case", sorted(RFC5869))
    def test_extract_then_expand(self, tier, case):
        ikm, salt, info, length, prk, okm = RFC5869[case]
        assert kdf.hkdf_extract(salt, ikm).hex() == prk
        assert kdf.hkdf_expand(bytes.fromhex(prk), info, length).hex() == okm

    @pytest.mark.parametrize("case", sorted(RFC5869))
    def test_derive_key_is_extract_then_expand(self, tier, case):
        # derive_key(secret, label, context) is HKDF(IKM, salt, info).
        ikm, salt, info, length, _prk, okm = RFC5869[case]
        assert kdf.derive_key(ikm, salt, info, length).hex() == okm

    @pytest.mark.parametrize("case", sorted(RFC5869))
    def test_batch_kernel_on_the_vectors_salt_and_info(self, tier, case):
        """The batch kernel takes 32-byte secrets only, which no RFC vector
        has: run each vector's salt and info over 32-byte secrets cut from its
        IKM, and expect the first expand block of extract-then-expand."""
        ikm, salt, info, _length, _prk, _okm = RFC5869[case]
        secrets = (ikm * 3)[:64]
        keys = kernels.hkdf_derive_batch(secrets, salt, info)
        if tier == "python":
            assert keys is None  # no kernel: callers run derive_key per element
        else:
            assert keys == b"".join(
                kdf.hkdf_expand(kdf.hkdf_extract(salt, secret), info, 32)
                for secret in (secrets[:32], secrets[32:])
            )


class TestDeriveKeyBatch:
    @given(st.lists(st.binary(min_size=32, max_size=32), max_size=5),
           st.binary(max_size=40), st.binary(max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_is_derive_key_per_secret(self, secrets, label, context):
        expected = b"".join(kdf.derive_key(secret, label, context) for secret in secrets)
        try:
            for name in ["python"] + ["native"] * kernels.native_available():
                kernels.set_active_kernel(name)
                assert kdf.derive_key_batch(b"".join(secrets), label, context) == expected
        finally:
            kernels.reset_kernel_for_tests()

    def test_ragged_blob_is_rejected(self, tier):
        with pytest.raises(CryptoError):
            kdf.derive_key_batch(b"\x07" * 33, b"label")


class TestHKDF:
    def test_extract_with_empty_salt(self):
        prk = kdf.hkdf_extract(b"", b"input")
        expected = hmac.new(b"\x00" * 32, b"input", hashlib.sha256).digest()
        assert prk == expected

    def test_expand_lengths(self):
        prk = kdf.hkdf_extract(b"salt", b"secret")
        for length in (1, 16, 32, 33, 64, 100):
            assert len(kdf.hkdf_expand(prk, b"info", length)) == length

    def test_expand_too_long_rejected(self):
        with pytest.raises(CryptoError):
            kdf.hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)

    def test_expand_prefix_property(self):
        prk = kdf.hkdf_extract(b"salt", b"secret")
        assert kdf.hkdf_expand(prk, b"info", 64)[:32] == kdf.hkdf_expand(prk, b"info", 32)

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
    @settings(max_examples=30)
    def test_deterministic(self, salt, ikm):
        assert kdf.hkdf_extract(salt, ikm) == kdf.hkdf_extract(salt, ikm)


class TestDeriveKey:
    def test_label_separation(self):
        secret = b"shared secret"
        assert kdf.derive_key(secret, b"label-a") != kdf.derive_key(secret, b"label-b")

    def test_context_separation(self):
        secret = b"shared secret"
        assert kdf.derive_key(secret, b"l", b"ctx1") != kdf.derive_key(secret, b"l", b"ctx2")

    def test_default_length(self):
        assert len(kdf.derive_key(b"s", b"l")) == 32

    def test_shared_key_from_element(self):
        key = kdf.shared_key_from_element(b"\x01" * 32, b"label")
        assert len(key) == 32


class TestXRDKeySchedules:
    def test_loopback_key_per_chain(self):
        secret = b"\x42" * 32
        assert kdf.loopback_key(secret, 1) != kdf.loopback_key(secret, 2)
        assert kdf.loopback_key(secret, 1) == kdf.loopback_key(secret, 1)

    def test_loopback_key_per_user(self):
        assert kdf.loopback_key(b"\x01" * 32, 1) != kdf.loopback_key(b"\x02" * 32, 1)

    def test_conversation_key_directional(self):
        shared = b"\x07" * 32
        to_alice = kdf.conversation_key(shared, b"alice-pk")
        to_bob = kdf.conversation_key(shared, b"bob-pk")
        assert to_alice != to_bob
        assert len(to_alice) == 32

    def test_nonce_from_round(self):
        assert kdf.nonce_from_round(0) == b"\x00" * 12
        assert kdf.nonce_from_round(1)[-1] == 1
        assert len(kdf.nonce_from_round(2**32)) == 12

    def test_nonce_rejects_negative(self):
        with pytest.raises(CryptoError):
            kdf.nonce_from_round(-1)
