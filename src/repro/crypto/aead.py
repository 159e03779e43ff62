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

Every open in the system is one :func:`open_spans` call: spans of a buffer
the caller already holds (a hop's batch blob, a fetch envelope), each
opened under the first of its candidate keys whose tag verifies, the
plaintexts written into one output buffer in span order.
:func:`adec_batch` and :func:`adec` are its one-candidate, contiguous case.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.constants import AEAD_NONCE_SIZE, AEAD_TAG_SIZE
from repro.crypto import kernels as _kernels
from repro.crypto.kernels import OpenedSpans
from repro.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.crypto.poly1305 import poly1305_mac, poly1305_verify
from repro.errors import CryptoError

__all__ = [
    "AuthenticatedCiphertext",
    "aenc",
    "adec",
    "aenc_batch",
    "adec_batch",
    "open_spans",
    "OpenedSpans",
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
# Batched AEAD: many independent (key, message) pairs under one nonce
# ---------------------------------------------------------------------------
#
# The population layer seals whole chains' worth of messages per call (every
# online user of a chain shares the round nonce but owns her own key), and
# every open in the system is one :func:`open_spans` call.  On the python
# tier both are the RFC 8439 construction below, message by message.


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


def _one_time_key(key: bytes, nonce: bytes) -> bytes:
    """The Poly1305 key of one message: the first half of its counter-0 block."""
    return chacha20_block(key, 0, nonce)[:32]


def aenc_batch(keys: _kernels.KeyBatch, nonce, plaintexts: Sequence[bytes],
               aad: bytes = b"") -> List[bytes]:
    """Batched :func:`aenc`: ``[aenc(k, nonce, m) for k, m in zip(...)]``.

    ``keys`` is a sequence of 32-byte keys or one blob of them (the KDF
    batch's output); ``nonce`` (a round number or 12 bytes) and ``aad`` are
    the batch's.
    """
    key_blob = _keys_for(keys, plaintexts, "plaintext")
    nonce = _normalise_nonce(nonce)
    native = _kernels.aead_seal_batch(key_blob, [nonce] * len(plaintexts), plaintexts, aad)
    if native is not None:
        return native
    out: List[bytes] = []
    for index, plaintext in enumerate(plaintexts):
        key = key_blob[32 * index:32 * index + 32]
        ciphertext = chacha20_encrypt(key, nonce, plaintext)
        out.append(ciphertext + poly1305_mac(_mac_data(aad, ciphertext), _one_time_key(key, nonce)))
    return out


def adec_batch(keys: _kernels.KeyBatch, nonce, datas: Sequence[bytes],
               aad: bytes = b"") -> List[Tuple[bool, Optional[bytes]]]:
    """Batched :func:`adec`: per-message ``(ok, plaintext)`` pairs.

    The one-candidate, contiguous case of :func:`open_spans`: the messages
    are joined into one buffer and message ``i`` is opened under key ``i``.
    ``keys`` is a sequence of 32-byte keys or one blob of them.  ``nonce``
    is the batch's one nonce; one that is malformed opens nothing.
    """
    key_blob = _keys_for(keys, datas, "ciphertext")
    try:
        nonce = _normalise_nonce(nonce)
    except CryptoError:
        return [(False, None)] * len(datas)
    bounds = list(accumulate(map(len, datas), initial=0))
    plain, offsets, opened = open_spans(b"".join(datas), bounds[:-1], bounds[1:], key_blob, nonce,
                                        aad=aad)
    return [
        (True, plain[offsets[index] + 4:offsets[index + 1]]) if opened[index] else (False, None)
        for index in range(len(datas))
    ]


def open_spans(buf: bytes, starts: Sequence[int], ends: Sequence[int],
               keys: _kernels.KeyBatch, nonce, *, first_keys: Optional[Sequence[int]] = None,
               key_counts: Optional[Sequence[int]] = None, heads: bytes = b"",
               aad: bytes = b"") -> OpenedSpans:
    """Open spans of ``buf`` in place: one kernel call, whatever the batch.

    Span ``i`` (``ciphertext || tag``) is ``buf[starts[i]:ends[i]]``; its
    candidates are keys ``first_keys[i]`` … ``first_keys[i] + key_counts[i]
    - 1`` of ``keys`` (a blob or a sequence; at most
    :data:`~repro.crypto.kernels.MAX_CANDIDATES`; by default key ``i``
    alone), tried in order under the one ``nonce``; the first whose tag
    verifies — checked in constant time, before anything is decrypted —
    opens it.  Output slot ``i`` holds span ``i``'s plaintext headed by its
    ``len(heads) // len(starts)`` bytes of ``heads``: see
    :class:`~repro.crypto.kernels.OpenedSpans`.  A span or key range
    outside its buffer raises :class:`CryptoError` on every tier, before
    anything is read.
    """
    count = len(starts)
    key_blob = keys if isinstance(keys, bytes) else b"".join(keys)
    first_keys = array("Q", range(count)) if first_keys is None else first_keys
    key_counts = array("Q", [1]) * count if key_counts is None else key_counts
    columns = (buf, starts, ends, key_blob, first_keys, key_counts, _normalise_nonce(nonce), aad,
               heads)
    native = _kernels.aead_open_spans(*columns)
    return native if native is not None else _open_spans_reference(*columns)


def _open_spans_reference(buf: bytes, starts, ends, keys: bytes, first_keys, key_counts,
                          nonce: bytes, aad: bytes, heads: bytes) -> OpenedSpans:
    """The python tier of :func:`open_spans`, and the oracle the kernel is held to."""
    count = len(starts)
    head_len = len(heads) // count if count else 0
    if (any(len(column) != count for column in (ends, first_keys, key_counts))
            or len(heads) != head_len * count or len(keys) % 32):
        raise CryptoError("span columns, heads and keys must describe the same spans")
    for start, end, first, candidates in zip(starts, ends, first_keys, key_counts):
        if not (0 <= start <= end <= len(buf) and 0 <= candidates <= _kernels.MAX_CANDIDATES
                and 0 <= first <= len(keys) // 32 - candidates):
            raise CryptoError("span or key range outside its buffer")
    out, offsets, opened = bytearray(), array("Q"), bytearray(count)
    for span in range(count):
        offsets.append(len(out))
        data = bytes(buf[starts[span]:ends[span]])
        ciphertext, tag = data[:-AEAD_TAG_SIZE], data[-AEAD_TAG_SIZE:]
        for trial in range(key_counts[span] if len(data) >= AEAD_TAG_SIZE else 0):
            key = keys[32 * (first_keys[span] + trial):][:32]
            if poly1305_verify(_mac_data(aad, ciphertext), _one_time_key(key, nonce), tag):
                plaintext = chacha20_encrypt(key, nonce, ciphertext)
                out += heads[head_len * span:head_len * (span + 1)]
                out += len(plaintext).to_bytes(4, "big") + plaintext
                opened[span] = trial + 1
                break
    offsets.append(len(out))
    return OpenedSpans(bytes(out), offsets, bytes(opened))
