"""Non-interactive zero-knowledge proofs used by XRD.

Two proof systems appear in the paper:

* *Knowledge of discrete log* (Schnorr, made non-interactive with
  Fiat-Shamir) — users prove they know the exponent of their outer
  Diffie-Hellman key (§6.2 step 2), and servers prove knowledge of their
  blinding/mixing keys at setup (§6.1).
* *Discrete-log equality* (Chaum-Pedersen) — servers prove that the
  aggregate of the blinded keys they output equals the aggregate of their
  inputs raised to their blinding key (§6.3 step 3), and the blame protocol
  uses the same proof to reveal per-message decryption keys verifiably
  (§6.4).

Both are standard sigma protocols; the Fiat-Shamir challenge binds the
statement, the prover-supplied context (round number, chain id, server
index), and a domain-separation label.

Each proof system has a per-item form (``prove_*`` / ``verify_*``: the
setup ceremony, the aggregate proof, and the reference the tests hold the
batches to) and a batch form (``*_batch``: the intake check and the blame
walk-back).  A batch evaluates the *same* equations, one row of
``group.accumulate_rows`` per equation — no random linear combination — so
item ``i`` of a batch gets exactly the proof bytes or the verdict the
per-item function gives it, and a forged proof is pinned to its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.constants import NIZK_LABEL_DLEQ, NIZK_LABEL_DLOG
from repro.crypto import stream
from repro.errors import ProofError

__all__ = [
    "SchnorrProof",
    "DleqProof",
    "prove_dlog",
    "verify_dlog",
    "prove_dleq",
    "verify_dleq",
    "verify_dlog_batch",
    "verify_dlog_columns",
    "prove_dleq_batch",
    "verify_dleq_batch",
]


@dataclass(frozen=True, slots=True)
class SchnorrProof:
    """Proof of knowledge of ``x`` such that ``public = x · base``."""

    commitment: bytes
    response: int

    def to_bytes(self, group) -> bytes:
        return self.commitment + group.encode_scalar(self.response)


@dataclass(frozen=True, slots=True)
class DleqProof:
    """Proof that ``log_base1(public1) = log_base2(public2)``."""

    commitment1: bytes
    commitment2: bytes
    response: int

    def to_bytes(self, group) -> bytes:
        return self.commitment1 + self.commitment2 + group.encode_scalar(self.response)


def _dlog_challenge(group, base, public, commitment, context: bytes) -> int:
    return group.hash_to_scalar(
        NIZK_LABEL_DLOG,
        group.encode(base),
        group.encode(public),
        commitment,
        context,
    )


def _same_length(*columns: Sequence) -> None:
    if len({len(column) for column in columns}) > 1:
        raise ProofError(
            "a proof batch needs one entry per item in every column "
            f"(got {[len(column) for column in columns]})"
        )


def prove_dlog(group, base, secret: int, context: bytes = b"",
               nonce: Optional[int] = None) -> SchnorrProof:
    """Prove knowledge of ``secret`` such that ``secret · base`` is known.

    The statement (``base``, ``public = secret · base``) and ``context`` are
    bound into the Fiat-Shamir challenge, so a proof cannot be replayed for a
    different statement or round.  ``nonce`` is a caller-drawn nonce scalar;
    without one it is derived from the secret and the statement (as EdDSA
    derives its nonces), so one statement always gets one proof.
    """
    public = group.scalar_mult(base, secret)
    if nonce is None:
        nonce = stream.context_scalar(
            group, "prove-dlog", group.encode(base), group.encode_scalar(secret), context
        )
    commitment = group.encode(group.scalar_mult(base, nonce))
    challenge = _dlog_challenge(group, base, public, commitment, context)
    response = (nonce + challenge * secret) % group.order
    return SchnorrProof(commitment=commitment, response=response)


def verify_dlog(group, base, public, proof: SchnorrProof, context: bytes = b"") -> bool:
    """Verify a :class:`SchnorrProof` for the statement ``public = x · base``."""
    try:
        commitment_point = group.decode(proof.commitment)
    except Exception:
        return False
    challenge = _dlog_challenge(group, base, public, proof.commitment, context)
    # s·base == R + c·public  ⟺  s·base − c·public == R; the single fused
    # accumulation shares one doubling chain between both terms.
    combined = group.multi_scalar_accumulate(
        [base, public], [proof.response, group.order - challenge]
    )
    return combined == commitment_point


def verify_dlog_batch(group, base, publics: Sequence, proofs: Sequence[SchnorrProof],
                      contexts: Sequence[bytes]) -> List[bool]:
    """Batched :func:`verify_dlog` over one base: ``[verify_dlog(group, base, P_i, π_i, ctx_i)]``."""
    return verify_dlog_columns(
        group, base, publics, [group.encode(public) for public in publics],
        [proof.commitment for proof in proofs], [proof.response for proof in proofs], contexts,
    )


def verify_dlog_columns(group, base, publics: Sequence, encoded_publics: Sequence[bytes],
                        commitments: Sequence[bytes], responses: Sequence[int],
                        contexts: Sequence[bytes]) -> List[bool]:
    """:func:`verify_dlog_batch` over proofs given as columns (wire intake).

    ``encoded_publics`` are the publics' encodings, which the intake already
    holds; the challenges share the ``label ‖ base`` prefix of their
    transcripts (``group.hash_to_scalars``).  One accumulation row
    ``s_i·base − c_i·P_i`` per proof, compared with the commitment in its
    encoding: decoding accepts canonical encodings only, so "the bytes
    decode to this point" and "these are this point's bytes" are the same
    predicate, garbage commitments included.
    """
    _same_length(publics, encoded_publics, commitments, responses, contexts)
    challenges = group.hash_to_scalars(
        (NIZK_LABEL_DLOG, group.encode(base)), zip(encoded_publics, commitments, contexts)
    )
    points: list = []
    scalars: List[int] = []
    for public, response, challenge in zip(publics, responses, challenges):
        points += (base, public)
        scalars += (response, group.order - challenge)
    combined = group.accumulate_rows(points, scalars, 2)
    return [
        group.encode(point) == commitment for point, commitment in zip(combined, commitments)
    ]


def _dleq_challenge(group, base1, public1, base2, public2, commitment1, commitment2, context: bytes) -> int:
    return _dleq_challenge_encoded(
        group,
        group.encode(base1),
        group.encode(public1),
        group.encode(base2),
        group.encode(public2),
        commitment1,
        commitment2,
        context,
    )


def _dleq_challenge_encoded(group, base1: bytes, public1: bytes, base2: bytes, public2: bytes,
                            commitment1: bytes, commitment2: bytes, context: bytes) -> int:
    return group.hash_to_scalar(
        NIZK_LABEL_DLEQ, base1, public1, base2, public2, commitment1, commitment2, context
    )


def prove_dleq(group, base1, base2, secret: int, context: bytes = b"",
               nonce: Optional[int] = None, public2=None) -> DleqProof:
    """Prove that ``log_base1(secret·base1) = log_base2(secret·base2) = secret``.

    ``nonce`` is a caller-drawn nonce scalar; without one it is derived from
    the secret and the statement, as in :func:`prove_dlog`.  ``public2`` is
    ``secret·base2`` when the prover already holds it (a mix server's
    blinding key); without it, it is computed.
    """
    public1 = group.scalar_mult(base1, secret)
    if public2 is None:
        public2 = group.scalar_mult(base2, secret)
    if nonce is None:
        nonce = stream.context_scalar(
            group, "prove-dleq", group.encode(base1), group.encode(base2),
            group.encode_scalar(secret), context,
        )
    commitment1 = group.encode(group.scalar_mult(base1, nonce))
    commitment2 = group.encode(group.scalar_mult(base2, nonce))
    challenge = _dleq_challenge(
        group, base1, public1, base2, public2, commitment1, commitment2, context
    )
    response = (nonce + challenge * secret) % group.order
    return DleqProof(commitment1=commitment1, commitment2=commitment2, response=response)


def verify_dleq(group, base1, public1, base2, public2, proof: DleqProof, context: bytes = b"") -> bool:
    """Verify a :class:`DleqProof` for ``log_base1(public1) = log_base2(public2)``."""
    try:
        commitment1_point = group.decode(proof.commitment1)
        commitment2_point = group.decode(proof.commitment2)
    except Exception:
        return False
    challenge = _dleq_challenge(
        group, base1, public1, base2, public2, proof.commitment1, proof.commitment2, context
    )
    negated = group.order - challenge
    combined1 = group.multi_scalar_accumulate([base1, public1], [proof.response, negated])
    if combined1 != commitment1_point:
        return False
    combined2 = group.multi_scalar_accumulate([base2, public2], [proof.response, negated])
    return combined2 == commitment2_point


def prove_dleq_batch(group, base1s: Sequence, encoded_public1s: Sequence[bytes], base2,
                     encoded_public2: bytes, secret: int, nonces: Sequence[int],
                     context: bytes = b"") -> List[DleqProof]:
    """Batched :func:`prove_dleq` under one secret and one second base.

    Proof ``i`` states ``log_base1s[i](public1_i) = log_base2(public2) =
    secret`` and is byte for byte what :func:`prove_dleq` returns for
    ``nonce=nonces[i]``.  The prover already holds its publics and they
    enter nothing but the transcript, so they are taken as their wire
    encodings; the nonces are drawn by the caller, in the order the per-item
    prover would have drawn them.
    """
    _same_length(base1s, encoded_public1s, nonces)
    commitments1 = group.accumulate_rows(base1s, nonces, 1)
    commitments2 = group.fixed_point_mult_batch(base2, nonces)
    encoded_base2 = group.encode(base2)
    proofs = []
    for base1, encoded_public1, point1, point2, nonce in zip(
        base1s, encoded_public1s, commitments1, commitments2, nonces
    ):
        commitment1, commitment2 = group.encode(point1), group.encode(point2)
        challenge = _dleq_challenge_encoded(
            group, group.encode(base1), encoded_public1, encoded_base2, encoded_public2,
            commitment1, commitment2, context,
        )
        proofs.append(
            DleqProof(commitment1, commitment2, (nonce + challenge * secret) % group.order)
        )
    return proofs


def verify_dleq_batch(group, base1s: Sequence, public1s: Sequence, base2s: Sequence,
                      public2s: Sequence, proofs: Sequence[DleqProof],
                      context: bytes = b"") -> List[bool]:
    """Batched :func:`verify_dleq`: item ``i`` is ``verify_dleq(group, base1s[i], …, proofs[i], context)``.

    Two accumulation rows per proof (``s·base − c·public`` against each
    commitment), all in one ``accumulate_rows`` call; commitments are
    compared encoded, as in :func:`verify_dlog_batch`.
    """
    _same_length(base1s, public1s, base2s, public2s, proofs)
    points: list = []
    scalars: List[int] = []
    for base1, public1, base2, public2, proof in zip(base1s, public1s, base2s, public2s, proofs):
        challenge = _dleq_challenge(
            group, base1, public1, base2, public2, proof.commitment1, proof.commitment2, context
        )
        points += (base1, public1, base2, public2)
        scalars += (proof.response, group.order - challenge) * 2
    combined = [group.encode(point) for point in group.accumulate_rows(points, scalars, 2)]
    return [
        combined[2 * index] == proof.commitment1 and combined[2 * index + 1] == proof.commitment2
        for index, proof in enumerate(proofs)
    ]


def require_valid_dlog(group, base, public, proof: SchnorrProof, context: bytes = b"") -> None:
    """Raise :class:`ProofError` unless the discrete-log proof verifies."""
    if not verify_dlog(group, base, public, proof, context):
        raise ProofError("knowledge-of-discrete-log proof failed to verify")


def require_valid_dleq(group, base1, public1, base2, public2, proof: DleqProof, context: bytes = b"") -> None:
    """Raise :class:`ProofError` unless the discrete-log-equality proof verifies."""
    if not verify_dleq(group, base1, public1, base2, public2, proof, context):
        raise ProofError("discrete-log-equality proof failed to verify")
