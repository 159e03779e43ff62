"""Key derivation: HKDF-SHA256 and the XRD-specific key schedules.

The paper writes ``KDF(s, pk)`` for deriving per-direction symmetric keys
from a Diffie-Hellman shared secret (§5.3.2) and uses per-chain loopback keys
known only to the mailbox owner (Algorithm 2 step 1a).  Those derivations are
implemented here on top of a standard HKDF.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.constants import AEAD_NONCE_SIZE
from repro.crypto import kernels as _kernels
from repro.errors import CryptoError

__all__ = [
    "hkdf_extract",
    "hkdf_expand",
    "derive_key",
    "derive_key_batch",
    "nonce_from_round",
    "loopback_key",
    "conversation_key",
    "shared_key_from_element",
]

_HASH_LEN = 32


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract (RFC 5869): return a pseudorandom key."""
    if not salt:
        salt = b"\x00" * _HASH_LEN
    return hmac.digest(salt, input_key_material, hashlib.sha256)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869): derive ``length`` bytes of output key material."""
    if length > 255 * _HASH_LEN:
        raise CryptoError("HKDF-Expand output too long")
    blocks = []
    previous = b""
    counter = 1
    produced = 0
    while produced < length:
        previous = hmac.digest(
            pseudo_random_key, previous + info + bytes([counter]), hashlib.sha256
        )
        blocks.append(previous)
        produced += _HASH_LEN
        counter += 1
    return b"".join(blocks)[:length]


def derive_key(secret: bytes, label: bytes, context: bytes = b"", length: int = 32) -> bytes:
    """Derive a symmetric key from ``secret`` with domain separation ``label``.

    This is the reference the native batch kernel
    (:func:`repro.crypto.kernels.hkdf_derive_batch`) is held to.
    """
    pseudo_random_key = hkdf_extract(label, secret)
    return hkdf_expand(pseudo_random_key, context, length)


def derive_key_batch(secrets: bytes, label: bytes, context: bytes = b"") -> bytes:
    """:func:`derive_key` of every 32-byte secret in ``secrets``, as one key blob.

    Key ``i`` (bytes ``32·i`` onwards) belongs to secret ``i`` — the layout
    the AEAD batches take.  One native call, else the reference per secret.
    """
    if len(secrets) % _HASH_LEN:
        raise CryptoError("a secret blob must hold whole 32-byte secrets")
    keys = _kernels.hkdf_derive_batch(secrets, label, context)
    if keys is not None:
        return keys
    return b"".join(
        derive_key(secrets[offset:offset + _HASH_LEN], label, context)
        for offset in range(0, len(secrets), _HASH_LEN)
    )


def shared_key_from_element(encoded_element: bytes, label: bytes, context: bytes = b"") -> bytes:
    """Derive an AEAD key from an encoded Diffie-Hellman shared group element."""
    return derive_key(encoded_element, label, context, length=32)


def loopback_key(identity_secret: bytes, chain_id: int) -> bytes:
    """Per-chain loopback key ``s_xA`` known only to the mailbox owner."""
    return derive_key(identity_secret, b"xrd/loopback", chain_id.to_bytes(8, "big"))


def conversation_key(shared_secret: bytes, recipient_public_key: bytes) -> bytes:
    """The paper's ``KDF(s_AB, pk_B)``: per-direction conversation key."""
    return derive_key(shared_secret, b"xrd/conversation", recipient_public_key)


def nonce_from_round(round_number: int) -> bytes:
    """Encode a round number as a 12-byte AEAD nonce."""
    if round_number < 0:
        raise CryptoError("round number must be non-negative")
    return round_number.to_bytes(AEAD_NONCE_SIZE, "big")
