"""Robustness tests: malformed and adversarial inputs fail closed.

Every decoding path that touches attacker-controlled bytes must either return
a well-typed failure (``(False, None)`` / ``None``) or raise an exception
from the library's own hierarchy — never deliver garbage and never crash with
an unrelated exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import adec
from repro.crypto.group import Ed25519Group, ModPGroup
from repro.crypto.onion import InnerEnvelope, decrypt_baseline_layer, unpad_payload
from repro.errors import XRDError
from repro.mixnet.messages import MailboxMessage, MessageBody

ED = Ed25519Group()
MODP = ModPGroup(bits=96)


class TestGroupDecodingFailsClosed:
    @given(st.binary(min_size=32, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_ed25519_decode_returns_point_or_xrd_error(self, data):
        try:
            point = ED.decode(data)
        except XRDError:
            return
        # If the decode succeeded the point must round-trip consistently.
        assert ED.decode(ED.encode(point)) == point

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=40)
    def test_modp_decode_never_crashes_unexpectedly(self, data):
        try:
            element = MODP.decode(data)
        except XRDError:
            return
        assert 1 <= element < MODP.prime

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=40)
    def test_scalar_decoding(self, data):
        try:
            scalar = ED.decode_scalar(data)
        except XRDError:
            return
        assert 0 <= scalar < ED.order


class TestCiphertextParsingFailsClosed:
    @given(st.binary(min_size=0, max_size=400), st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=40)
    def test_adec_garbage(self, data, round_number):
        assert adec(b"\x01" * 32, round_number, data) in ((False, None),) or adec(
            b"\x01" * 32, round_number, data
        )[0] is False

    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=40)
    def test_mailbox_message_parsing(self, data):
        try:
            message = MailboxMessage.from_bytes(data)
        except XRDError:
            return
        # Parsing may succeed structurally, but opening with any key fails.
        assert message.open(b"\x02" * 32, 1) is None

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=40)
    def test_inner_envelope_parsing(self, data):
        try:
            envelope = InnerEnvelope.from_bytes(data)
        except XRDError:
            return
        assert len(envelope.ephemeral_public) == 32

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=40)
    def test_baseline_layer_decryption_garbage(self, data):
        ok, plaintext = decrypt_baseline_layer(MODP, MODP.random_scalar(), 1, data)
        assert ok is False and plaintext is None

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=40)
    def test_unpad_garbage(self, data):
        try:
            payload = unpad_payload(data)
        except XRDError:
            return
        assert len(payload) <= len(data)

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=40)
    def test_message_body_decode_garbage(self, data):
        try:
            body = MessageBody.decode(data)
        except XRDError:
            return
        assert isinstance(body.kind, int)


class TestErrorHierarchy:
    def test_all_library_errors_share_base(self):
        from repro import errors

        subclasses = [
            errors.CryptoError,
            errors.DecodingError,
            errors.ProofError,
            errors.ProtocolError,
            errors.ConfigurationError,
            errors.ChainSelectionError,
            errors.BlameError,
            errors.MailboxError,
            errors.TransportError,
            errors.SimulationError,
        ]
        for subclass in subclasses:
            assert issubclass(subclass, errors.XRDError)

    def test_catching_base_class_is_sufficient(self, group):
        with pytest.raises(XRDError):
            group.decode(b"\x00")
