"""Whole-chain submission construction from pre-drawn randomness.

This module is the crypto half of the population layer: given one chain's
key view and a column of pending entries — sender, sealed-message inputs,
and the three scalars the per-user path would have drawn (``y`` for the
inner envelope, ``x`` for the shared outer secret, ``k`` for the Schnorr
nonce) — it produces the chain's :class:`~repro.mixnet.messages.
ClientSubmission` batch in one pass per cryptographic operation:

1. every mailbox body is sealed in one batched AEAD call;
2. the inner envelopes share one fixed-point pass over the aggregate inner
   key (``y_i · Σipk``), keyed straight into one batched AEAD call;
3. each outer layer is one fixed-point pass over that mixing key
   (``x_i · mpk_j``) plus one batched AEAD call — ℓ layers, ℓ passes,
   instead of ℓ passes *per user*.  Both DH passes come back as key blobs
   (:func:`~repro.crypto.onion.shared_keys_batch`): the shared elements
   never become Python objects;
4. the Schnorr proofs reuse the already-computed ``X_i = g^{x_i}`` and
   differ from :func:`repro.crypto.nizk.prove_dlog` only in not re-deriving
   it.

Because the scalars are inputs, every byte of the output is a deterministic
function of (scalars, keys, bodies) — identical to what
:meth:`User.build_round_submissions <repro.client.user.User.
build_round_submissions>` computes from the same draws.  The engine parity
suite holds the two paths bit-identical across the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constants import KDF_LABEL_INNER, KDF_LABEL_OUTER, NIZK_LABEL_DLOG
from repro.crypto.aead import aenc_batch
from repro.crypto.group import fixed_point_mult_batch
from repro.crypto.nizk import SchnorrProof
from repro.crypto.onion import shared_keys_batch
from repro.mixnet.ahs import submission_context
from repro.mixnet.messages import ClientSubmission

__all__ = ["PendingEntry", "build_chain_submissions"]


@dataclass(frozen=True, slots=True)
class PendingEntry:
    """One (user, chain-slot) submission awaiting its batched crypto pass.

    ``seal_key``/``recipient``/``body_plaintext`` describe the mailbox
    message (already padded: ``MessageBody.encode()`` output); the three
    scalars were drawn from the *user's own* RNG in the per-user order
    (``y``, ``x``, ``k``) so the output is bit-identical to the object path.
    """

    sender: str
    seal_key: bytes
    recipient: bytes
    body_plaintext: bytes
    inner_scalar: int   # y — inner envelope ephemeral
    outer_scalar: int   # x — shared outer ephemeral
    nonce_scalar: int   # k — Schnorr proof nonce


def build_chain_submissions(
    group,
    view,
    round_number: int,
    entries: Sequence[PendingEntry],
    cover: bool = False,
) -> List[ClientSubmission]:
    """Build one chain's submissions for a round, batched per operation.

    ``view`` is the chain's :class:`~repro.client.user.ChainKeysView`.  The
    output order is the input order (users in deployment order, each user's
    chain slots in her assignment order) — the same order the engine's
    ``finalize_collect`` produces from per-user lists.
    """
    if not entries:
        return []
    chain_id = view.chain_id
    base = group.base()

    # 1. Seal the mailbox bodies: MailboxMessage.seal for the whole chain.
    sealed = aenc_batch(
        [entry.seal_key for entry in entries],
        round_number,
        [entry.body_plaintext for entry in entries],
    )
    mailbox_bytes = [entry.recipient + body for entry, body in zip(entries, sealed)]

    # 2. Inner envelopes under the aggregate inner key (encrypt_inner).
    #    g^y runs through the fixed-point batch too: the Ed25519 comb makes
    #    it a wash there, but the modp native kernel amortises one window
    #    table over the chain.
    inner_scalars = [entry.inner_scalar for entry in entries]
    inner_publics = fixed_point_mult_batch(group, base, inner_scalars)
    inner_keys = shared_keys_batch(
        group, KDF_LABEL_INNER, view.aggregate_inner_public, inner_scalars
    )
    inner_cts = aenc_batch(inner_keys, round_number, mailbox_bytes)
    payloads = [
        group.encode(public) + ciphertext
        for public, ciphertext in zip(inner_publics, inner_cts)
    ]

    # 3. Outer layers: one fixed-point pass + one AEAD pass per mixing key
    #    (encrypt_outer_layers, innermost key last).
    outer_scalars = [entry.outer_scalar for entry in entries]
    for mixing_public in reversed(list(view.mixing_publics)):
        layer_keys = shared_keys_batch(group, KDF_LABEL_OUTER, mixing_public, outer_scalars)
        payloads = aenc_batch(layer_keys, round_number, payloads)

    # 4. DH publics and Schnorr proofs (prove_dlog with X_i precomputed).
    #    g^x and g^k are two more fixed-point passes over the base.
    base_encoded = group.encode(base)
    dh_publics = fixed_point_mult_batch(group, base, outer_scalars)
    nonce_commitments = fixed_point_mult_batch(
        group, base, [entry.nonce_scalar for entry in entries]
    )
    submissions: List[ClientSubmission] = []
    for entry, ciphertext, dh_public, nonce_public in zip(
        entries, payloads, dh_publics, nonce_commitments
    ):
        dh_encoded = group.encode(dh_public)
        commitment = group.encode(nonce_public)
        challenge = group.hash_to_scalar(
            NIZK_LABEL_DLOG,
            base_encoded,
            dh_encoded,
            commitment,
            submission_context(chain_id, round_number, entry.sender),
        )
        response = (entry.nonce_scalar + challenge * entry.outer_scalar) % group.order
        submissions.append(
            ClientSubmission(
                chain_id=chain_id,
                sender=entry.sender,
                dh_public=dh_encoded,
                ciphertext=ciphertext,
                proof=SchnorrProof(commitment=commitment, response=response),
                cover=cover,
            )
        )
    return submissions
