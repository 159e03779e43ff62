"""The keyed draw stream: every reproducible draw in the system (DESIGN.md §2.2).

Each participant holds one 32-byte *stream key*.  A draw is one ChaCha20
block, ``block(key, nonce = label ‖ number, counter = draw index)``, reduced
wide to a nonzero scalar ``1 + v mod (q − 1)`` (``v`` is the block as a
512-bit little-endian integer, so the bias is below 2^-250 on either group).
A draw is a pure function of (key, label, number, index): there is no
generator state to advance, so draws can be made in any order, on any
thread, and batched as one ``xrd_chacha20_blocks`` call on the native tier
(the RFC 8439 block function in a loop on the python tier — bit-identical).

The 4-byte label separates every use of a key, and the 8-byte number is the
round (0 for a one-off draw); the counter is the draw's index within that
(label, number):

* a user's identity secret is ``IDENTITY`` draw 0;
* her submission for chain slot ``j`` of round ``r`` draws ``y``/``x``/``k``
  at counter ``j`` under ``LIVE`` — or ``COVER`` for the banked cover of
  round ``r``, which is built a round earlier and goes to the same entry
  server, so it must never share the live submission's layer keys;
* a chain member draws its long-term keys under ``MEMBER_KEYS`` and each
  round's inner key, shuffle and proof nonces under ``MEMBER_ROUND``, from
  a counter its round record advances (a blame rerun draws fresh blocks);
* per-participant keys are derived from their parent's key with the
  ``USER``/``SERVER``/``JOIN`` labels, indexed by the number field;
* a §5 baseline server draws its key and shuffles as a chain member does;
* everything else — an adversary's or a fault's draws, a proof nonce a
  caller did not supply — draws under ``DERIVED`` from a key that
  :func:`context_key` binds to the call's identity (a tampering member, a
  forged submission, one envelope of a reorder fault) unless the caller
  hands over a key of its own;
* an encryption's ephemeral secret a caller did not supply is a
  :func:`fresh_scalar`: derived from the call, it would be a function of
  public inputs, and anyone holding the output could link it to its input.

A seeded deployment derives its master key from the seed; an unseeded one
draws it once from the OS CSPRNG (:func:`stream_key`), the one read of OS
entropy in the package.  The public randomness beacon
(:mod:`repro.crypto.randomness`) is the one generator outside the stream:
its outputs are public and it forms every chain.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from typing import List, Optional, Sequence, Tuple

from repro.crypto.chacha20 import BLOCK_SIZE, KEY_SIZE, chacha20_blocks_batch

__all__ = [
    "BLOCK_SIZE",
    "COVER",
    "DERIVED",
    "IDENTITY",
    "JOIN",
    "KEY_SIZE",
    "LIVE",
    "MEMBER_KEYS",
    "MEMBER_ROUND",
    "SERVER",
    "USER",
    "blocks",
    "context_key",
    "context_scalar",
    "derive_keys",
    "draw_blocks",
    "draw_scalars",
    "fresh_scalar",
    "permutation",
    "scalars",
    "shuffle_blocks",
    "stream_key",
    "stream_nonce",
    "submission_scalars",
]

IDENTITY = b"iden"
#: (y, x, k) labels of a live submission and of a banked cover.
LIVE = (b"subY", b"subX", b"subK")
COVER = (b"cvrY", b"cvrX", b"cvrK")
MEMBER_KEYS = b"mkey"
MEMBER_ROUND = b"mrnd"
USER = b"user"
SERVER = b"srvr"
JOIN = b"join"
DERIVED = b"drvd"

#: Sort keys per block for :func:`permutation`: 64 bits each.
_KEYS_PER_BLOCK = BLOCK_SIZE // 8


def stream_key(seed: Optional[object] = None) -> bytes:
    """A 32-byte stream key: derived from ``seed``, else fresh OS entropy."""
    if seed is None:
        # xrdlint: disable=XRD101 - the one unseeded key draw; every scalar derives from it
        return secrets.token_bytes(KEY_SIZE)
    return hashlib.sha256(b"xrd/stream-key|" + str(seed).encode()).digest()


def context_key(*context: object) -> bytes:
    """A 32-byte stream key bound to ``context``: SHA-256 over its parts,
    each length-framed (bytes as they are, anything else as ``str``), so no
    two distinct contexts share a key."""
    hasher = hashlib.sha256(b"xrd/context-key")
    for part in context:
        data = part if isinstance(part, bytes) else str(part).encode()
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.digest()


def stream_nonce(label: bytes, number: int) -> bytes:
    """The 12-byte ChaCha20 nonce ``label ‖ number`` (4 + 8 bytes)."""
    return label + number.to_bytes(8, "big")


def blocks(keys: Sequence[bytes], nonces: Sequence[bytes], counters: Sequence[int]) -> bytes:
    """Every stream block there is: ``block(keys[i], nonces[i], counters[i])``, concatenated."""
    return chacha20_blocks_batch(keys, nonces, counters)


def scalars(group, blob: bytes) -> List[int]:
    """One nonzero scalar per 64-byte block of ``blob``: ``1 + v mod (q − 1)``."""
    modulus, from_bytes = group.order - 1, int.from_bytes
    return [
        1 + from_bytes(blob[offset:offset + BLOCK_SIZE], "little") % modulus
        for offset in range(0, len(blob), BLOCK_SIZE)
    ]


def derive_keys(parent: bytes, label: bytes, indices: Sequence[int]) -> List[bytes]:
    """Child stream keys: the first 32 bytes of ``block(parent, label ‖ i, 0)`` per index."""
    blob = blocks(
        [parent] * len(indices), [stream_nonce(label, index) for index in indices],
        [0] * len(indices),
    )
    return [blob[offset:offset + KEY_SIZE] for offset in range(0, len(blob), BLOCK_SIZE)]


def draw_blocks(key: bytes, label: bytes, number: int, start: int, count: int) -> bytes:
    """Blocks ``start … start + count − 1`` of one key's (label, number) stream."""
    nonce = stream_nonce(label, number)
    return blocks([key] * count, [nonce] * count, range(start, start + count))


def draw_scalars(group, key: bytes, label: bytes, number: int, start: int,
                 count: int) -> List[int]:
    """Draws ``start … start + count − 1`` of one key's (label, number) stream."""
    return scalars(group, draw_blocks(key, label, number, start, count))


def context_scalar(group, *context: object) -> int:
    """The one-off draw of the key :func:`context_key` gives ``context``."""
    return draw_scalars(group, context_key(*context), DERIVED, 0, 0, 1)[0]


def fresh_scalar(group) -> int:
    """The first draw of a fresh :func:`stream_key`: unpredictable, never reproducible."""
    return draw_scalars(group, stream_key(), DERIVED, 0, 0, 1)[0]


def submission_scalars(group, keys: Sequence[bytes], slots: Sequence[int],
                       round_number: int, cover: bool) -> Tuple[List[int], ...]:
    """The ``(y, x, k)`` columns of a batch of (user, chain slot) submissions.

    Row ``i`` is user key ``keys[i]``'s chain slot ``slots[i]``; all
    ``3 · len(keys)`` blocks are one batched call.
    """
    count = len(keys)
    labels = COVER if cover else LIVE
    nonces: List[bytes] = []
    for label in labels:
        nonces += [stream_nonce(label, round_number)] * count
    drawn = scalars(group, blocks(list(keys) * 3, nonces, list(slots) * 3))
    return drawn[:count], drawn[count:2 * count], drawn[2 * count:]


def shuffle_blocks(size: int) -> int:
    """How many stream blocks :func:`permutation` of ``size`` items consumes."""
    return -(-size // _KEYS_PER_BLOCK)


def permutation(blob: bytes, size: int) -> List[int]:
    """A uniformly random permutation of ``range(size)``: the indices sorted
    by one 64-bit key each, read from ``shuffle_blocks(size)`` blocks.

    Two equal keys (probability below size² / 2^65) keep index order, so
    the result is always a permutation.
    """
    keys = struct.unpack_from(f"<{size}Q", blob)
    return sorted(range(size), key=keys.__getitem__)
