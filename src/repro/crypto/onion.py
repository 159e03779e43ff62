"""Onion encryption for XRD messages.

Two flavours are implemented, matching the paper:

* **Baseline onion** (Algorithm 2): every layer carries a *fresh* ephemeral
  Diffie-Hellman key, i.e. layer ``i`` is
  ``(g^{x_i}, AEnc(DH(mpk_i, x_i), ρ, layer_{i+1}))``.  Used by the base
  design of §5 which only resists passive adversaries.
* **AHS double envelope** (§6.2): the user first builds an *inner envelope*
  encrypted under the aggregate per-round inner key ``Σ ipk_i`` in one shot,
  then wraps it in outer layers that all share a *single* ephemeral secret
  ``x``.  Because the same ``x`` is used for every layer, the servers can
  blind the accompanying public key ``X = g^x`` and prove in aggregate that
  no message was dropped or substituted (§6.3).

The servers never parse an envelope into an object: a hop opens its outer
layers, and the last server the inner envelopes (:func:`open_inner_envelopes`),
where they lie in the batch blob, one :func:`~repro.crypto.aead.open_spans`
call each; :func:`decrypt_outer_layer` and :func:`decrypt_inner` are the
per-item forms.  Padding helpers enforce the paper's fixed 256-byte payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.constants import (
    AEAD_TAG_SIZE,
    GROUP_ELEMENT_SIZE,
    KDF_LABEL_INNER,
    KDF_LABEL_OUTER,
    PAYLOAD_SIZE,
)
from repro.crypto import stream
from repro.crypto.aead import OpenedSpans, adec, aenc, open_spans
from repro.crypto.kdf import derive_key_batch, shared_key_from_element
from repro.errors import CryptoError

__all__ = [
    "InnerEnvelope",
    "pad_payload",
    "unpad_payload",
    "outer_layer_key",
    "inner_envelope_key",
    "shared_keys_batch",
    "encrypt_inner",
    "decrypt_inner",
    "open_inner_envelopes",
    "encrypt_outer_layers",
    "decrypt_outer_layer",
    "encrypt_onion_baseline",
    "decrypt_baseline_layer",
    "onion_size",
]


# --------------------------------------------------------------------------
# Padding
# --------------------------------------------------------------------------

def pad_payload(payload: bytes, size: int = PAYLOAD_SIZE) -> bytes:
    """Pad ``payload`` to a fixed ``size`` with a 2-byte length prefix.

    The paper requires every message to be exactly the same size; short
    messages are padded and long ones must be split by the caller.
    """
    if len(payload) > size - 2:
        raise CryptoError(
            f"payload of {len(payload)} bytes exceeds the {size - 2}-byte limit; split it"
        )
    return len(payload).to_bytes(2, "big") + payload + b"\x00" * (size - 2 - len(payload))


def unpad_payload(padded: bytes) -> bytes:
    """Invert :func:`pad_payload`."""
    if len(padded) < 2:
        raise CryptoError("padded payload too short")
    length = int.from_bytes(padded[:2], "big")
    if length > len(padded) - 2:
        raise CryptoError("padded payload has an invalid length prefix")
    return padded[2:2 + length]


# --------------------------------------------------------------------------
# Key derivation helpers shared by senders and servers
# --------------------------------------------------------------------------

def outer_layer_key(group, dh_element) -> bytes:
    """AEAD key for one outer layer, derived from the DH shared element."""
    return shared_key_from_element(group.encode(dh_element), KDF_LABEL_OUTER)


def inner_envelope_key(group, dh_element) -> bytes:
    """AEAD key for the inner envelope, derived from the DH shared element."""
    return shared_key_from_element(group.encode(dh_element), KDF_LABEL_INNER)


def shared_keys_batch(group, label: bytes, points, scalars: Union[int, Sequence[int]]) -> bytes:
    """The AEAD keys of a whole batch of DH shared elements, as one blob.

    ``label`` is :data:`KDF_LABEL_OUTER` or :data:`KDF_LABEL_INNER`; key
    ``i`` (bytes ``32·i`` onwards) equals :func:`outer_layer_key` or
    :func:`inner_envelope_key` of shared element ``i``.  The batch has one
    of the two shapes a round produces: a sequence of ``points`` under one
    ``scalars`` integer (a server's secret over every submission — on the
    native tier the multiplication, the encoding and the KDF run as kernel
    calls with no per-element Python in between), or one ``points`` element
    under a sequence of ``scalars`` (every user's ephemeral secret over one
    server key: the per-operation client build; the native tier fuses that
    whole build instead, :meth:`group.onion_build`).
    :func:`~repro.crypto.aead.aenc_batch` and
    :func:`~repro.crypto.aead.open_spans` take the blob as it is.
    """
    if isinstance(scalars, int):
        keys = group.scalar_mult_keys(points, scalars, label)
        if keys is not None:
            return keys
        shared = group.scalar_mult_batch(points, scalars)
    else:
        shared = group.fixed_point_mult_batch(points, scalars)
    # The unfused path: outer_layer_key / inner_envelope_key per element.
    return derive_key_batch(b"".join(map(group.encode, shared)), label)


# --------------------------------------------------------------------------
# Inner envelope (AHS)
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class InnerEnvelope:
    """The inner ciphertext ``e = (g^y, AEnc(DH(Σ ipk, y), ρ, m))`` of §6.2."""

    ephemeral_public: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return self.ephemeral_public + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "InnerEnvelope":
        if len(data) < GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE:
            raise CryptoError("inner envelope too short")
        return cls(ephemeral_public=data[:GROUP_ELEMENT_SIZE], ciphertext=data[GROUP_ELEMENT_SIZE:])

    def __len__(self) -> int:
        return len(self.ephemeral_public) + len(self.ciphertext)


def encrypt_inner(group, aggregate_inner_public, round_number: int, plaintext: bytes,
                  ephemeral_secret: Optional[int] = None) -> InnerEnvelope:
    """Encrypt ``plaintext`` under the aggregate inner public key ``Σ ipk_i``.

    The "one-shot" onion of §6.2: decryption requires knowledge of *all*
    per-round inner secrets, which the servers only reveal once the shuffle
    has been verified.  ``ephemeral_secret`` is a caller-drawn ``y``;
    without one it is a :func:`~repro.crypto.stream.fresh_scalar`.
    """
    if ephemeral_secret is None:
        ephemeral_secret = stream.fresh_scalar(group)
    ephemeral_public = group.base_mult(ephemeral_secret)
    shared = group.scalar_mult(aggregate_inner_public, ephemeral_secret)
    key = inner_envelope_key(group, shared)
    ciphertext = aenc(key, round_number, plaintext)
    return InnerEnvelope(ephemeral_public=group.encode(ephemeral_public), ciphertext=ciphertext)


def decrypt_inner(group, inner_secrets: Sequence[int], round_number: int, envelope: InnerEnvelope) -> Tuple[bool, Optional[bytes]]:
    """Decrypt an inner envelope given every server's revealed inner secret."""
    aggregate_secret = sum(inner_secrets) % group.order
    ephemeral_public = group.decode(envelope.ephemeral_public)
    shared = group.scalar_mult(ephemeral_public, aggregate_secret)
    key = inner_envelope_key(group, shared)
    return adec(key, round_number, envelope.ciphertext)


def open_inner_envelopes(group, inner_secrets: Sequence[int], round_number: int, buf: bytes,
                         starts: Sequence[int], ends: Sequence[int], minimum: int) -> OpenedSpans:
    """Batched :func:`decrypt_inner` over the envelopes at ``buf[starts[i]:ends[i]]``.

    One ``decode_batch`` of the ephemeral keys, one many-points-one-scalar
    key derivation, one :func:`~repro.crypto.aead.open_spans` call over the
    sealed parts (head-less, in envelope order).  An envelope shorter than
    :meth:`InnerEnvelope.from_bytes` accepts, one whose ephemeral key the
    group rejects, and one whose plaintext would be shorter than
    ``minimum`` bytes get no key: they do not open.
    """
    aggregate_secret = sum(inner_secrets) % group.order
    shortest = GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE + minimum
    sealed = [min(start + GROUP_ELEMENT_SIZE, end) for start, end in zip(starts, ends)]
    sized = [index for index, end in enumerate(ends) if end - starts[index] >= shortest]
    decoded = group.decode_batch([buf[starts[index]:sealed[index]] for index in sized])
    decodable = [index for index, point in zip(sized, decoded) if point is not None]
    keys = shared_keys_batch(
        group, KDF_LABEL_INNER, [point for point in decoded if point is not None], aggregate_secret
    )
    key_counts = [0] * len(starts)
    first_keys = [0] * len(starts)
    for slot, index in enumerate(decodable):
        first_keys[index], key_counts[index] = slot, 1
    return open_spans(buf, sealed, ends, keys, round_number,
                      first_keys=first_keys, key_counts=key_counts)


# --------------------------------------------------------------------------
# Outer layers (AHS): one ephemeral secret shared by every layer
# --------------------------------------------------------------------------

def encrypt_outer_layers(
    group,
    mixing_public_keys: Sequence,
    round_number: int,
    payload: bytes,
    ephemeral_secret: int,
) -> bytes:
    """Wrap ``payload`` in one authenticated layer per mixing key (innermost last key).

    ``ephemeral_secret`` is the single ``x`` of §6.2; the caller transmits
    ``X = g^x`` alongside the returned ciphertext.
    """
    ciphertext = payload
    for mixing_public in reversed(list(mixing_public_keys)):
        shared = group.scalar_mult(mixing_public, ephemeral_secret)
        key = outer_layer_key(group, shared)
        ciphertext = aenc(key, round_number, ciphertext)
    return ciphertext


def decrypt_outer_layer(group, mixing_secret: int, round_number: int, dh_public, ciphertext: bytes) -> Tuple[bool, Optional[bytes]]:
    """Remove one outer layer: ``ADec(DH(X_i, msk_i), ρ, c_i)`` (§6.3 step 1)."""
    shared = group.scalar_mult(dh_public, mixing_secret)
    key = outer_layer_key(group, shared)
    return adec(key, round_number, ciphertext)


# --------------------------------------------------------------------------
# Baseline onion (Algorithm 2): fresh DH key per layer
# --------------------------------------------------------------------------

def encrypt_onion_baseline(group, mixing_public_keys: Sequence, round_number: int,
                           payload: bytes, stream_key: Optional[bytes] = None) -> bytes:
    """Onion-encrypt ``payload`` with a fresh ephemeral key per layer.

    Layer format: ``g^{x_i} (32 bytes) || AEnc(DH(mpk_i, x_i), ρ, next_layer)``.
    The layers' secrets are the first draws of ``stream_key``, innermost
    layer first; without a key they come from a fresh
    :func:`~repro.crypto.stream.stream_key`.
    """
    mixing_public_keys = list(mixing_public_keys)
    if stream_key is None:
        stream_key = stream.stream_key()
    ephemeral_secrets = stream.draw_scalars(
        group, stream_key, stream.DERIVED, round_number, 0, len(mixing_public_keys)
    )
    ciphertext = payload
    for mixing_public, ephemeral_secret in zip(reversed(mixing_public_keys), ephemeral_secrets):
        ephemeral_public = group.base_mult(ephemeral_secret)
        shared = group.scalar_mult(mixing_public, ephemeral_secret)
        key = outer_layer_key(group, shared)
        ciphertext = group.encode(ephemeral_public) + aenc(key, round_number, ciphertext)
    return ciphertext


def decrypt_baseline_layer(group, mixing_secret: int, round_number: int, data: bytes) -> Tuple[bool, Optional[bytes]]:
    """Remove one baseline onion layer (Algorithm 1 step 1)."""
    if len(data) < GROUP_ELEMENT_SIZE + AEAD_TAG_SIZE:
        return False, None
    try:
        ephemeral_public = group.decode(data[:GROUP_ELEMENT_SIZE])
    except Exception:
        return False, None
    shared = group.scalar_mult(ephemeral_public, mixing_secret)
    key = outer_layer_key(group, shared)
    return adec(key, round_number, data[GROUP_ELEMENT_SIZE:])


# --------------------------------------------------------------------------
# Size accounting (used by the bandwidth model)
# --------------------------------------------------------------------------

def onion_size(chain_length: int, payload_size: int = PAYLOAD_SIZE, ahs: bool = True) -> int:
    """Wire size in bytes of one onion-encrypted message.

    For AHS: ``X (32) || k AEAD layers around (inner envelope = 32 + payload
    envelope)``.  The mailbox plaintext inside the inner envelope is
    ``recipient pk (32) || AEnc(payload) (payload + 16)``.
    For the baseline onion each layer additionally carries its own 32-byte
    ephemeral key.
    """
    mailbox_message = GROUP_ELEMENT_SIZE + payload_size + AEAD_TAG_SIZE
    if ahs:
        inner = GROUP_ELEMENT_SIZE + mailbox_message + AEAD_TAG_SIZE
        return GROUP_ELEMENT_SIZE + inner + chain_length * AEAD_TAG_SIZE
    size = mailbox_message
    for _ in range(chain_length):
        size = GROUP_ELEMENT_SIZE + size + AEAD_TAG_SIZE
    return size


def onion_layers_sizes(chain_length: int, payload_size: int = PAYLOAD_SIZE) -> List[int]:
    """Per-layer sizes of an AHS onion, outermost first (for debugging/tests)."""
    mailbox_message = GROUP_ELEMENT_SIZE + payload_size + AEAD_TAG_SIZE
    inner = GROUP_ELEMENT_SIZE + mailbox_message + AEAD_TAG_SIZE
    sizes = [inner + AEAD_TAG_SIZE * layer for layer in range(1, chain_length + 1)]
    return list(reversed(sizes))
