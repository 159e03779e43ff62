"""ChaCha20 stream cipher (RFC 8439) implemented from scratch.

The paper's prototype uses NaCl secretbox for authenticated encryption, whose
modern IETF equivalent is ChaCha20-Poly1305.  This module provides the keyed
permutation and block/stream functions; :mod:`repro.crypto.poly1305` and
:mod:`repro.crypto.aead` build the AEAD construction on top.

Two implementations share one block function contract:

* the scalar reference path (:func:`chacha20_block`), used for single
  messages; and
* a batched path (:func:`chacha20_blocks_batch`) that evaluates many
  independent blocks in one call: one native kernel call on the native tier
  (DESIGN.md §11), the scalar block in a loop on the python tier.  Both are
  bit-identical (the batched output is compared against the scalar
  reference in the test suite), so callers may batch opportunistically
  without observable change.
"""

from __future__ import annotations

import struct
from typing import Sequence, Tuple

from repro.crypto import kernels as _kernels
from repro.errors import CryptoError

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64


def _quarter_round(a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int]:
    """RFC 8439 §2.1 on four words, returned rather than written back."""
    a = (a + b) & _MASK32
    d ^= a
    d = ((d << 16) | (d >> 16)) & _MASK32
    c = (c + d) & _MASK32
    b ^= c
    b = ((b << 12) | (b >> 20)) & _MASK32
    a = (a + b) & _MASK32
    d ^= a
    d = ((d << 8) | (d >> 24)) & _MASK32
    c = (c + d) & _MASK32
    b ^= c
    b = ((b << 7) | (b >> 25)) & _MASK32
    return a, b, c, d


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Return one 64-byte keystream block (RFC 8439 §2.3).

    The state lives in sixteen locals rather than a list: per-word list
    indexing was a third of the python tier's cost per block.
    """
    if len(key) != KEY_SIZE:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter < 2**32:
        raise CryptoError("ChaCha20 block counter out of range")
    state = _CONSTANTS + struct.unpack("<8L", key) + (counter,) + struct.unpack("<3L", nonce)
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = state
    for _ in range(10):
        x0, x4, x8, x12 = _quarter_round(x0, x4, x8, x12)
        x1, x5, x9, x13 = _quarter_round(x1, x5, x9, x13)
        x2, x6, x10, x14 = _quarter_round(x2, x6, x10, x14)
        x3, x7, x11, x15 = _quarter_round(x3, x7, x11, x15)
        x0, x5, x10, x15 = _quarter_round(x0, x5, x10, x15)
        x1, x6, x11, x12 = _quarter_round(x1, x6, x11, x12)
        x2, x7, x8, x13 = _quarter_round(x2, x7, x8, x13)
        x3, x4, x9, x14 = _quarter_round(x3, x4, x9, x14)
    working = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    return struct.pack(
        "<16L", *((word + initial) & _MASK32 for word, initial in zip(working, state))
    )


def chacha20_keystream(key: bytes, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
    """Return ``length`` bytes of keystream starting at ``initial_counter``."""
    blocks = []
    produced = 0
    counter = initial_counter
    while produced < length:
        blocks.append(chacha20_block(key, counter, nonce))
        produced += BLOCK_SIZE
        counter += 1
    return b"".join(blocks)[:length]


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR ``left`` against the prefix of ``right`` (``len(left)`` bytes).

    One big-integer XOR instead of a per-byte Python loop — ~20× faster for
    the 300-byte payloads that dominate this codebase.
    """
    length = len(left)
    return (
        int.from_bytes(left, "little") ^ int.from_bytes(right[:length], "little")
    ).to_bytes(length, "little")


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, initial_counter: int = 1) -> bytes:
    """Encrypt (or decrypt) ``plaintext`` with the ChaCha20 stream cipher.

    The default initial counter of 1 matches the AEAD construction, which
    reserves counter 0 for the Poly1305 one-time key.
    """
    keystream = chacha20_keystream(key, nonce, len(plaintext), initial_counter)
    return xor_bytes(plaintext, keystream)


chacha20_decrypt = chacha20_encrypt


# ---------------------------------------------------------------------------
# Batched keystream generation
# ---------------------------------------------------------------------------


def chacha20_blocks_batch(keys: Sequence[bytes], nonces: Sequence[bytes],
                          counters: Sequence[int]) -> bytes:
    """Concatenation of ``chacha20_block(keys[i], counters[i], nonces[i])``.

    Inputs are validated like the scalar block function; the output is
    bit-identical to calling it in a loop.
    """
    if not (len(keys) == len(nonces) == len(counters)):
        raise CryptoError(
            "one nonce and one counter per key required "
            f"(got {len(keys)} keys, {len(nonces)} nonces, {len(counters)} counters)"
        )
    # Whole-column checks (map/min/max run in C): the keyed draw stream
    # sends every scalar of a round through here.
    if keys and set(map(len, keys)) != {KEY_SIZE}:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if nonces and set(map(len, nonces)) != {NONCE_SIZE}:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    if counters and not (0 <= min(counters) and max(counters) < 2**32):
        raise CryptoError("ChaCha20 block counter out of range")
    if _kernels.native_enabled():
        native = _kernels.chacha20_blocks(keys, nonces, counters)
        if native is not None:
            return native
    return b"".join(
        chacha20_block(key, counter, nonce)
        for key, nonce, counter in zip(keys, nonces, counters)
    )
