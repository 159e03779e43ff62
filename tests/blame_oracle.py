"""The per-ciphertext blame walk-back (§6.4): the reference for ``repro.mixnet.blame``.

This is the protocol as it ran before it was batched — one flagged
ciphertext at a time, every proof made by :func:`prove_dleq` (which
recomputes both publics from the secret) and checked by :func:`verify_dleq`,
every key derived by :func:`outer_layer_key`, every trial decryption a
single :func:`adec` — reading each member's secrets directly and drawing
each proof nonce as its own draw of the member's round stream.
``run_blame_protocol`` must return the same :class:`BlameVerdict` bytes and
leave every member's round draw counter in the same place
(tests/test_blame.py).

It knows honest members and :class:`TamperingMember` wrappers (whose
reveals are the wrapped member's own); a :class:`LyingRevealMember` has no
per-ciphertext form and is tested against explicit verdicts instead.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.aead import adec
from repro.crypto.nizk import DleqProof, prove_dleq, verify_dleq
from repro.crypto.onion import outer_layer_key
from repro.errors import BlameError
from repro.mixnet.ahs import blame_context
from repro.mixnet.blame import BlameVerdict
from repro.mixnet.messages import BatchEntry, EncodedBatch


@dataclass(frozen=True)
class ReferenceReveal:
    """One server's reveal for one ciphertext; ``blinding_proof`` is None for the accuser's."""

    input_index: int
    dh_public: object
    ciphertext: bytes
    decryption_key: object
    key_proof: DleqProof
    blinding_proof: Optional[DleqProof] = None


def _honest(member):
    """The member whose secrets and stream make the reveal: a wrapper's wrapped one."""
    return getattr(member, "_member", member)


def reference_blame_reveal(member, round_number: int, output_index: int) -> ReferenceReveal:
    """An upstream member's reveal for one output entry (§6.4 steps 1-2)."""
    member = _honest(member)
    group = member.group
    record = member.round_record(round_number)
    input_index = record.permutation[output_index]
    entry = record.inputs[input_index]
    context = blame_context(member.chain_id, member.position, round_number)
    (blinding_nonce,) = member.draw_scalars(round_number, 1)
    blinding_proof = prove_dleq(
        group, entry.dh_public, member.base_point, member.blinding_secret, context,
        nonce=blinding_nonce,
    )
    decryption_key = group.scalar_mult(entry.dh_public, member.mixing_secret)
    (key_nonce,) = member.draw_scalars(round_number, 1)
    key_proof = prove_dleq(
        group, entry.dh_public, member.base_point, member.mixing_secret, context,
        nonce=key_nonce,
    )
    return ReferenceReveal(
        input_index, entry.dh_public, entry.ciphertext, decryption_key, key_proof, blinding_proof
    )


def reference_key_reveal(member, round_number: int, input_index: int) -> ReferenceReveal:
    """The accusing member's reveal for one of its input entries (§6.4 step 4)."""
    member = _honest(member)
    group = member.group
    entry = member.round_record(round_number).inputs[input_index]
    context = blame_context(member.chain_id, member.position, round_number)
    decryption_key = group.scalar_mult(entry.dh_public, member.mixing_secret)
    (nonce,) = member.draw_scalars(round_number, 1)
    key_proof = prove_dleq(
        group, entry.dh_public, member.base_point, member.mixing_secret, context, nonce=nonce
    )
    return ReferenceReveal(input_index, entry.dh_public, entry.ciphertext, decryption_key, key_proof)


def _verify_upstream_reveal(
    group, chain, member, reveal: ReferenceReveal, round_number: int,
    downstream_entry: BatchEntry, upstream_inputs: EncodedBatch,
) -> Optional[str]:
    """Check one upstream server's reveal; return an error string if it is bad."""
    context = blame_context(chain.chain_id, member.position, round_number)
    if not (0 <= reveal.input_index < len(upstream_inputs)):
        return "revealed input index out of range"
    recorded = upstream_inputs[reveal.input_index]
    if recorded.dh_public != reveal.dh_public or recorded.ciphertext != reveal.ciphertext:
        return "revealed pre-image does not match the batch this server received"
    # (1) the blinding relation X_out = bsk_i · X_in
    if not verify_dleq(
        group, reveal.dh_public, downstream_entry.dh_public,
        member.base_point, member.blinding_public, reveal.blinding_proof, context,
    ):
        return "blinding discrete-log-equality proof failed"
    # (2) the decryption key K = msk_i · X_in
    if not verify_dleq(
        group, reveal.dh_public, reveal.decryption_key,
        member.base_point, member.mixing_public, reveal.key_proof, context,
    ):
        return "decryption-key discrete-log-equality proof failed"
    # (3) decrypting the upstream ciphertext with the revealed key must yield
    #     exactly the downstream ciphertext.
    key = outer_layer_key(group, reveal.decryption_key)
    ok, plaintext = adec(key, round_number, reveal.ciphertext)
    if not ok or plaintext != downstream_entry.ciphertext:
        return "revealed ciphertext does not decrypt to the downstream ciphertext"
    return None


def reference_blame_protocol(
    chain,
    round_number: int,
    accusing_position: int,
    flagged_input_indices: Sequence[int],
    history: Sequence[EncodedBatch],
) -> BlameVerdict:
    """The blame protocol, one flagged ciphertext at a time."""
    group = chain.group
    members = chain.members
    if not (0 <= accusing_position < len(members)):
        raise BlameError("accusing position out of range")
    if len(history) <= accusing_position:
        raise BlameError("history does not cover the accusing position")
    senders = chain.senders_for_round(round_number)
    verdict = BlameVerdict(chain_id=chain.chain_id, round_number=round_number)
    accuser = members[accusing_position]
    accuser_context = blame_context(chain.chain_id, accuser.position, round_number)

    for flagged in flagged_input_indices:
        verdict.examined_ciphertexts += 1
        if not (0 <= flagged < len(history[accusing_position])):
            raise BlameError("flagged index out of range")

        # Step 4 first (cheap): the accuser must demonstrate that the flagged
        # ciphertext really fails to authenticate under the correct key.
        flagged_entry = history[accusing_position][flagged]
        try:
            accuser_reveal = reference_key_reveal(accuser, round_number, flagged)
        except Exception:
            accuser_reveal = None
        accusation_valid = (
            accuser_reveal is not None
            and accuser_reveal.dh_public == flagged_entry.dh_public
            and accuser_reveal.ciphertext == flagged_entry.ciphertext
            and verify_dleq(
                group, accuser_reveal.dh_public, accuser_reveal.decryption_key,
                accuser.base_point, accuser.mixing_public, accuser_reveal.key_proof,
                accuser_context,
            )
        )
        if accusation_valid:
            key = outer_layer_key(group, accuser_reveal.decryption_key)
            ok, _ = adec(key, round_number, accuser_reveal.ciphertext)
            if ok:
                accusation_valid = False
        if not accusation_valid:
            # The accusation itself does not hold up: the accuser is lying or
            # refused to reveal a consistent key.  Honest users stay safe.
            verdict.false_accusations += 1
            if accuser.server_name not in verdict.malicious_servers:
                verdict.malicious_servers.append(accuser.server_name)
            continue

        # Walk upstream from the accuser towards the submission layer.
        downstream_index = flagged
        downstream_entry = flagged_entry
        culprit_server: Optional[str] = None
        for position in range(accusing_position - 1, -1, -1):
            member = members[position]
            try:
                reveal = reference_blame_reveal(member, round_number, downstream_index)
            except Exception:
                culprit_server = member.server_name
                break
            error = _verify_upstream_reveal(
                group, chain, member, reveal, round_number, downstream_entry, history[position]
            )
            if error is not None:
                culprit_server = member.server_name
                break
            downstream_index = reveal.input_index
            downstream_entry = history[position][reveal.input_index]

        if culprit_server is not None:
            if culprit_server not in verdict.malicious_servers:
                verdict.malicious_servers.append(culprit_server)
            continue

        # The chain of reveals reached the submission layer: the original
        # submitter of this ciphertext produced a ciphertext that does not
        # authenticate at the accuser — she is actively malicious.
        if downstream_index < len(senders):
            sender = senders[downstream_index]
            if sender not in verdict.malicious_users:
                verdict.malicious_users.append(sender)
        else:  # pragma: no cover - defensive; senders and entries stay aligned
            raise BlameError("flagged ciphertext could not be traced to a submission")

    return verdict
