"""Whole-chain submission construction, from the draws to the proofs.

This module is the crypto half of the population layer: given one chain's
key view and its pending entries as columns — senders, sealed-message
inputs, and each entry's (stream key, chain slot) — it produces the chain's
:class:`~repro.mixnet.messages.SubmissionBatch`, written record by record
from the columns.  The three scalars
of every entry (``y`` for the inner envelope, ``x`` for the shared outer
secret, ``k`` for the Schnorr nonce) are drawn first, in one batched
ChaCha20 call (:func:`repro.crypto.stream.submission_scalars`); everything
between the draws and the Schnorr challenges is then one kernel call per
(chain, chunk) on the native tier (``group.onion_build``, DESIGN.md §11.4);
:func:`_build_per_operation` is the python tier's path and the oracle that
kernel is tested against.  The proofs reuse the already-computed
``X_i = g^{x_i}`` and differ from :func:`repro.crypto.nizk.prove_dlog` only
in not re-deriving it.

A draw is a pure function of (user's key, round, live-or-cover, slot), so
every byte of the output is a deterministic function of the columns and
the keys — identical to what the per-user oracle (``tests/user_oracle.py``)
computes, which ``TestOnionBuildDifferential`` holds it to, however the
entries are split into chains and chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.constants import KDF_LABEL_INNER, KDF_LABEL_OUTER, NIZK_LABEL_DLOG
from repro.crypto.aead import aenc_batch
from repro.crypto.onion import shared_keys_batch
from repro.crypto.stream import submission_scalars
from repro.mixnet.ahs import submission_contexts
from repro.mixnet.messages import SubmissionBatch, submission_record

__all__ = ["PendingColumns", "build_chain_submissions"]


@dataclass(slots=True)
class PendingColumns:
    """One chain's (user, chain-slot) submissions awaiting their crypto pass.

    Row ``i`` of every column is one entry.  ``seal_keys``/``recipients``/
    ``bodies`` describe the mailbox messages (bodies already padded:
    ``MessageBody.encode()`` output); ``stream_keys``/``slots`` name the
    entry's draws: the sender's stream key and the position of this chain
    in her assignment.
    """

    senders: List[str] = field(default_factory=list)
    seal_keys: List[bytes] = field(default_factory=list)
    recipients: List[bytes] = field(default_factory=list)
    bodies: List[bytes] = field(default_factory=list)
    stream_keys: List[bytes] = field(default_factory=list)
    slots: List[int] = field(default_factory=list)


def build_chain_submissions(
    group,
    view,
    round_number: int,
    pending: PendingColumns,
    cover: bool = False,
) -> SubmissionBatch:
    """Build one chain's submissions for a round, as wire records.

    ``view`` is the chain's :class:`~repro.client.user.ChainKeysView`.  The
    output order is the input order (users in deployment order, each user's
    chain slots in her assignment order) — the same order the engine's
    ``finalize_collect`` produces from per-user lists.  Each record is
    written straight from the columns; no per-submission object is built.
    ``cover`` picks the cover stream for the draws; on the wire a cover is
    like any other submission.
    """
    if not pending.senders:
        return SubmissionBatch.from_records(group, ())
    chain_id = view.chain_id
    # y (inner envelope ephemeral), x (shared outer ephemeral), k (proof nonce).
    scalars = submission_scalars(
        group, pending.stream_keys, pending.slots, round_number, cover
    )
    columns = (
        view.aggregate_inner_public,
        list(view.mixing_publics),
        round_number,
        pending.seal_keys,
        pending.recipients,
        pending.bodies,
        scalars,
    )
    built = group.onion_build(*columns)
    if built is None:
        built = _build_per_operation(group, *columns)

    # Schnorr proofs (prove_dlog with X_i = g^x and g^k precomputed); the
    # challenges share their transcripts' label ‖ base prefix.
    onions, dh_publics, commitments = built
    challenges = group.hash_to_scalars(
        (NIZK_LABEL_DLOG, group.encode(group.base())),
        zip(dh_publics, commitments, submission_contexts(chain_id, round_number, pending.senders)),
    )
    order = group.order
    records = [
        submission_record(
            chain_id, sender, dh_encoded, commitment,
            (nonce_scalar + challenge * outer_scalar) % order, onion,
        )
        for sender, nonce_scalar, outer_scalar, challenge, onion, dh_encoded, commitment in zip(
            pending.senders, scalars[2], scalars[1], challenges, onions, dh_publics, commitments
        )
    ]
    return SubmissionBatch.from_records(group, records)


def _build_per_operation(group, inner_public, mixing_publics, round_number: int,
                         seal_keys, recipients, bodies, scalars):
    """The build as one batched pass per cryptographic operation: ℓ + 4
    fixed-point passes and ℓ + 2 AEAD passes per chain, not per user.

    Returns what :meth:`group.onion_build` returns: ``(onions, encoded g^x,
    encoded g^k)``.
    """
    inner_scalars, outer_scalars, nonce_scalars = scalars
    base = group.base()

    # 1. Seal the mailbox bodies: MailboxMessage.seal for the whole chain.
    sealed = aenc_batch(seal_keys, round_number, bodies)
    mailbox_bytes = [recipient + body for recipient, body in zip(recipients, sealed)]

    # 2. Inner envelopes under the aggregate inner key (encrypt_inner).
    inner_publics = group.fixed_point_mult_batch(base, inner_scalars)
    inner_keys = shared_keys_batch(group, KDF_LABEL_INNER, inner_public, inner_scalars)
    inner_cts = aenc_batch(inner_keys, round_number, mailbox_bytes)
    payloads = [
        group.encode(public) + ciphertext
        for public, ciphertext in zip(inner_publics, inner_cts)
    ]

    # 3. Outer layers: one fixed-point pass + one AEAD pass per mixing key
    #    (encrypt_outer_layers, innermost key last).
    for mixing_public in reversed(mixing_publics):
        layer_keys = shared_keys_batch(group, KDF_LABEL_OUTER, mixing_public, outer_scalars)
        payloads = aenc_batch(layer_keys, round_number, payloads)

    return (
        payloads,
        [group.encode(p) for p in group.fixed_point_mult_batch(base, outer_scalars)],
        [group.encode(p) for p in group.fixed_point_mult_batch(base, nonce_scalars)],
    )
