"""Authenticated encryption: ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

The paper abstracts this as ``AEnc(s, nonce, m)`` / ``ADec(s, nonce, c)``
(§3.1) with two properties that XRD relies on: a ciphertext that
authenticates under a key cannot be produced without that key, and the same
ciphertext does not authenticate under two different keys (except with
negligible probability).  The encrypt-then-MAC style construction here has
both properties.

``ADec`` follows the paper's convention of returning a ``(ok, plaintext)``
pair instead of raising, because the mix servers must treat authentication
failure as a signal to start the blame protocol rather than as an exception.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.constants import AEAD_NONCE_SIZE, AEAD_TAG_SIZE
from repro.crypto import kernels as _kernels
from repro.crypto.chacha20 import (
    BLOCK_SIZE,
    chacha20_blocks_batch,
    chacha20_keystreams,
    xor_bytes,
)
from repro.crypto.poly1305 import poly1305_mac, poly1305_verify
from repro.errors import CryptoError

__all__ = [
    "AuthenticatedCiphertext",
    "aenc",
    "adec",
    "aenc_batch",
    "adec_batch",
    "ciphertext_overhead",
]


@dataclass(frozen=True, slots=True)
class AuthenticatedCiphertext:
    """A ciphertext together with its Poly1305 tag."""

    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialise as ``ciphertext || tag``."""
        return self.ciphertext + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthenticatedCiphertext":
        """Parse ``ciphertext || tag``; the tag is the trailing 16 bytes."""
        if len(data) < AEAD_TAG_SIZE:
            raise CryptoError("authenticated ciphertext too short")
        return cls(ciphertext=data[:-AEAD_TAG_SIZE], tag=data[-AEAD_TAG_SIZE:])

    def __len__(self) -> int:
        return len(self.ciphertext) + len(self.tag)


def _normalise_nonce(nonce) -> bytes:
    """Accept either a 12-byte nonce or a round number and normalise it."""
    if isinstance(nonce, int):
        if nonce < 0:
            raise CryptoError("round number nonce must be non-negative")
        return nonce.to_bytes(AEAD_NONCE_SIZE, "big")
    if isinstance(nonce, (bytes, bytearray)):
        if len(nonce) != AEAD_NONCE_SIZE:
            raise CryptoError(f"nonce must be {AEAD_NONCE_SIZE} bytes")
        return bytes(nonce)
    raise CryptoError("nonce must be an int round number or 12 bytes")


def _mac_data(aad: bytes, ciphertext: bytes) -> bytes:
    def pad16(data: bytes) -> bytes:
        remainder = len(data) % 16
        return data + (b"\x00" * (16 - remainder) if remainder else b"")

    return (
        pad16(aad)
        + pad16(ciphertext)
        + struct.pack("<Q", len(aad))
        + struct.pack("<Q", len(ciphertext))
    )


def aenc(key: bytes, nonce, plaintext: bytes, aad: bytes = b"") -> bytes:
    """``AEnc(s, nonce, m)``: encrypt and authenticate ``plaintext``.

    ``nonce`` is typically the XRD round number; ``aad`` carries any
    additional data bound to the ciphertext (e.g., a protocol label).
    Returns ``ciphertext || tag``.  A batch of one: the active kernel tier
    seals it, and on the python tier that is the RFC 8439 construction
    below, block function and MAC in pure Python.
    """
    return aenc_batch([key], nonce, [plaintext], aad)[0]


def adec(key: bytes, nonce, data: bytes, aad: bytes = b"") -> Tuple[bool, Optional[bytes]]:
    """``ADec(s, nonce, c)``: verify and decrypt ``ciphertext || tag``.

    Returns ``(True, plaintext)`` on success and ``(False, None)`` when the
    key is wrong, the ciphertext was tampered with, or the encoding is
    malformed — mirroring the paper's ``(b, m)`` return convention.  A batch
    of one, like :func:`aenc`.
    """
    return adec_batch([key], nonce, [data], aad)[0]


def ciphertext_overhead(layers: int = 1) -> int:
    """Bytes of overhead added by ``layers`` nested authenticated encryptions."""
    return layers * AEAD_TAG_SIZE


# ---------------------------------------------------------------------------
# Batched AEAD: many independent (key, message) pairs in one keystream pass
# ---------------------------------------------------------------------------
#
# The population layer seals whole chains' worth of messages per call (every
# online user of a chain shares the round nonce but owns her own key), and
# the mix servers strip one outer layer from a whole batch at once.  Each
# message needs the Poly1305 one-time-key block (counter 0) plus its payload
# blocks (counters 1…), all under its own key — so the batch flattens to one
# :func:`~repro.crypto.chacha20.chacha20_blocks_batch` call.  A single
# :func:`aenc` / :func:`adec` is a batch of one message.


def _batch_keystreams(keys: Sequence[bytes], nonces: Sequence[bytes],
                      lengths: Sequence[int]):
    """Per-message ``(poly1305 one-time key, payload keystream)`` pairs."""
    block_keys: List[bytes] = []
    block_nonces: List[bytes] = []
    block_counters: List[int] = []
    block_counts: List[int] = []
    for key, nonce, length in zip(keys, nonces, lengths):
        blocks = 1 + (length + BLOCK_SIZE - 1) // BLOCK_SIZE
        block_counts.append(blocks)
        block_keys.extend([key] * blocks)
        block_nonces.extend([nonce] * blocks)
        block_counters.extend(range(blocks))
    flat = chacha20_blocks_batch(block_keys, block_nonces, block_counters)
    pairs = []
    offset = 0
    for blocks, length in zip(block_counts, lengths):
        otk = flat[offset:offset + 32]
        payload_stream = flat[offset + BLOCK_SIZE:offset + BLOCK_SIZE + length]
        pairs.append((otk, payload_stream))
        offset += blocks * BLOCK_SIZE
    return pairs


def _keys_for(keys: _kernels.KeyBatch, messages: Sequence[bytes], noun: str) -> bytes:
    """One 32-byte key per message, as the contiguous blob the kernels take.

    ``keys`` is that blob already (what the KDF batch returns) or a
    sequence of keys.
    """
    if isinstance(keys, bytes):
        blob, count, whole = keys, len(keys) // 32, len(keys) % 32 == 0
    else:
        blob, count, whole = b"".join(keys), len(keys), all(len(key) == 32 for key in keys)
    if count != len(messages):
        raise CryptoError(
            f"one key per {noun} required "
            f"(got {count} keys, {len(messages)} {noun}s)"
        )
    if not whole:
        raise CryptoError("AEAD key must be 32 bytes")
    return blob


def _split_keys(blob: bytes) -> List[bytes]:
    return [blob[offset:offset + 32] for offset in range(0, len(blob), 32)]


def _normalise_nonces(nonce, count: int) -> List[bytes]:
    if isinstance(nonce, (list, tuple)):
        if len(nonce) != count:
            raise CryptoError("one nonce per message required")
        return [_normalise_nonce(item) for item in nonce]
    return [_normalise_nonce(nonce)] * count


def aenc_batch(keys: _kernels.KeyBatch, nonce, plaintexts: Sequence[bytes],
               aad: bytes = b"") -> List[bytes]:
    """Batched :func:`aenc`: ``[aenc(k, nonce, m) for k, m in zip(...)]``.

    ``keys`` is a sequence of 32-byte keys or one blob of them (the KDF
    batch's output).  ``nonce`` is shared (a round number or 12-byte nonce)
    or a per-message sequence.  All messages share ``aad``.
    """
    key_blob = _keys_for(keys, plaintexts, "plaintext")
    nonces = _normalise_nonces(nonce, len(plaintexts))
    native = _kernels.aead_seal_batch(key_blob, nonces, plaintexts, aad)
    if native is not None:
        return native
    keys = _split_keys(key_blob)
    lengths = [len(plaintext) for plaintext in plaintexts]
    out: List[bytes] = []
    for (otk, stream), plaintext in zip(_batch_keystreams(keys, nonces, lengths), plaintexts):
        ciphertext = xor_bytes(plaintext, stream)
        tag = poly1305_mac(_mac_data(aad, ciphertext), otk)
        out.append(ciphertext + tag)
    return out


def adec_batch(keys: _kernels.KeyBatch, nonce, datas: Sequence[bytes],
               aad: bytes = b"") -> List[Tuple[bool, Optional[bytes]]]:
    """Batched :func:`adec`: per-message ``(ok, plaintext)`` pairs.

    ``keys`` is a sequence of 32-byte keys or one blob of them; a message
    may be any bytes-like view (the fetch passes record views).  Messages
    shorter than a tag fail without consuming keystream, exactly like the
    scalar path.
    """
    key_blob = _keys_for(keys, datas, "ciphertext")
    try:
        nonces = _normalise_nonces(nonce, len(datas))
    except CryptoError:
        return [(False, None)] * len(datas)
    native = _kernels.aead_open_batch(key_blob, nonces, datas, aad)
    if native is not None:
        return native
    keys = _split_keys(key_blob)
    # Pass 1: one counter-0 block per message yields every Poly1305 one-time
    # key.  Verify-before-decrypt matters here more than in scalar adec:
    # the fetch cascade's trials fail by design (every message authenticates
    # under exactly one of its candidate keys), so payload keystream must
    # only be spent on the messages whose tag verifies.
    otk_flat = chacha20_blocks_batch(keys, nonces, [0] * len(keys))
    results: List[Tuple[bool, Optional[bytes]]] = [(False, None)] * len(keys)
    survivors: List[Tuple[int, bytes]] = []
    for index, data in enumerate(datas):
        if len(data) < AEAD_TAG_SIZE:
            continue
        ciphertext, tag = bytes(data[:-AEAD_TAG_SIZE]), data[-AEAD_TAG_SIZE:]
        otk = otk_flat[index * BLOCK_SIZE:index * BLOCK_SIZE + 32]
        if poly1305_verify(_mac_data(aad, ciphertext), otk, tag):
            survivors.append((index, ciphertext))
    if survivors:
        # Pass 2: payload keystream (counters 1…) for the survivors only.
        streams = chacha20_keystreams(
            [keys[index] for index, _ in survivors],
            [nonces[index] for index, _ in survivors],
            [len(ciphertext) for _, ciphertext in survivors],
        )
        for (index, ciphertext), stream in zip(survivors, streams):
            results[index] = (True, xor_bytes(ciphertext, stream))
    return results
