"""Blame protocol (§6.4).

When a server finds a ciphertext that fails authenticated decryption it
*accuses*: the flagged entry is revealed and every upstream server must, in
order, reveal the pre-image of that entry under its own processing — the
unblinded Diffie-Hellman key, the upstream ciphertext, and the decryption key
it used — each accompanied by Chaum-Pedersen proofs that the values are
consistent with its public blinding and mixing keys.  Walking the chain back
to the submission layer yields exactly one of two outcomes:

* every reveal verifies and the chain of decryptions reaches the original
  submission, in which case the *user* who submitted it is convicted (her
  outer ciphertext acts as a commitment to every layer), or
* some server's reveal fails to verify, in which case that *server* is
  convicted and the protocol halts (the honest servers then delete their
  inner keys so nothing more is learned).

Honest users are never convicted: their ciphertexts authenticate at every
layer, so an accusation against them fails at the accuser's own step 4 check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.crypto.nizk import DleqProof, verify_dleq
from repro.crypto.onion import outer_layer_key
from repro.crypto.aead import adec
from repro.errors import BlameError
from repro.mixnet.messages import BatchEntry, EncodedBatch

__all__ = ["BlameReveal", "AccuserReveal", "BlameVerdict", "run_blame_protocol"]


@dataclass(frozen=True)
class BlameReveal:
    """An upstream server's reveal for one flagged ciphertext (§6.4 steps 1-2)."""

    position: int
    input_index: int
    dh_public: object
    ciphertext: bytes
    decryption_key: object
    blinding_proof: DleqProof
    key_proof: DleqProof


@dataclass(frozen=True)
class AccuserReveal:
    """The accusing server's reveal for one flagged ciphertext (§6.4 step 4)."""

    position: int
    input_index: int
    dh_public: object
    ciphertext: bytes
    decryption_key: object
    key_proof: DleqProof


@dataclass
class BlameVerdict:
    """Outcome of the blame protocol for one round on one chain."""

    chain_id: int
    round_number: int
    malicious_users: List[str] = field(default_factory=list)
    malicious_servers: List[str] = field(default_factory=list)
    false_accusations: int = 0
    examined_ciphertexts: int = 0

    @property
    def identified(self) -> bool:
        return bool(self.malicious_users or self.malicious_servers)

    def to_bytes(self) -> bytes:
        """The verdict's wire encoding (what servers broadcast after blame).

        The multiprocess backend ships verdicts across its pipe in exactly
        this format, so eviction decisions taken by the coordinator are
        byte-identical whether the blame protocol ran in-process or in a
        forked worker.
        """
        from repro.transport.codec import encode_blame_verdict

        return encode_blame_verdict(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlameVerdict":
        from repro.errors import DecodingError
        from repro.transport.codec import decode_blame_verdict

        verdict, offset = decode_blame_verdict(data, 0)
        if offset != len(data):
            raise DecodingError("trailing bytes after blame verdict")
        return verdict

    def summary(self) -> str:
        """One-line human-readable verdict (used by scenario reports)."""
        parts = [f"chain {self.chain_id} round {self.round_number}"]
        if self.malicious_servers:
            parts.append("servers: " + ", ".join(self.malicious_servers))
        if self.malicious_users:
            parts.append("users: " + ", ".join(self.malicious_users))
        if not self.identified:
            parts.append("nobody convicted")
        if self.false_accusations:
            parts.append(f"{self.false_accusations} false accusation(s)")
        return "; ".join(parts)


def _verify_upstream_reveal(
    group,
    chain,
    member,
    reveal: BlameReveal,
    round_number: int,
    downstream_entry: BatchEntry,
    upstream_inputs: EncodedBatch,
) -> Optional[str]:
    """Check one upstream server's reveal; return an error string if it is bad."""
    from repro.mixnet.ahs import blame_context

    context = blame_context(chain.chain_id, member.position, round_number)
    if not (0 <= reveal.input_index < len(upstream_inputs)):
        return "revealed input index out of range"
    recorded = upstream_inputs[reveal.input_index]
    if recorded.dh_public != reveal.dh_public or recorded.ciphertext != reveal.ciphertext:
        return "revealed pre-image does not match the batch this server received"
    # (1) the blinding relation X_out = bsk_i · X_in
    if not verify_dleq(
        group,
        reveal.dh_public,
        downstream_entry.dh_public,
        member.base_point,
        member.blinding_public,
        reveal.blinding_proof,
        context,
    ):
        return "blinding discrete-log-equality proof failed"
    # (2) the decryption key K = msk_i · X_in
    if not verify_dleq(
        group,
        reveal.dh_public,
        reveal.decryption_key,
        member.base_point,
        member.mixing_public,
        reveal.key_proof,
        context,
    ):
        return "decryption-key discrete-log-equality proof failed"
    # (3) decrypting the upstream ciphertext with the revealed key must yield
    #     exactly the downstream ciphertext.
    key = outer_layer_key(group, reveal.decryption_key)
    ok, plaintext = adec(key, round_number, reveal.ciphertext)
    if not ok or plaintext != downstream_entry.ciphertext:
        return "revealed ciphertext does not decrypt to the downstream ciphertext"
    return None


def run_blame_protocol(
    chain,
    round_number: int,
    accusing_position: int,
    flagged_input_indices: Sequence[int],
    history: Sequence[EncodedBatch],
) -> BlameVerdict:
    """Run the blame protocol for every flagged ciphertext.

    ``history[i]`` is the batch that was handed to the chain member at
    position ``i`` this round; ``flagged_input_indices`` index into
    ``history[accusing_position]``.  The verdict lists the users and/or
    servers identified as malicious.  Per the paper, multiple flagged
    ciphertexts are handled independently (in a deployment they would be
    processed in parallel).
    """
    group = chain.group
    members = chain.members
    if not (0 <= accusing_position < len(members)):
        raise BlameError("accusing position out of range")
    if len(history) <= accusing_position:
        raise BlameError("history does not cover the accusing position")
    submissions = chain.submissions_for_round(round_number)
    verdict = BlameVerdict(chain_id=chain.chain_id, round_number=round_number)
    accuser = members[accusing_position]

    for flagged in flagged_input_indices:
        verdict.examined_ciphertexts += 1
        if not (0 <= flagged < len(history[accusing_position])):
            raise BlameError("flagged index out of range")

        # Step 4 first (cheap): the accuser must demonstrate that the flagged
        # ciphertext really fails to authenticate under the correct key.
        from repro.mixnet.ahs import blame_context

        accuser_context = blame_context(chain.chain_id, accuser.position, round_number)
        flagged_entry = history[accusing_position][flagged]
        try:
            accuser_reveal = accuser.reveal_decryption_key(round_number, flagged)
        except Exception:
            accuser_reveal = None
        accusation_valid = (
            accuser_reveal is not None
            and accuser_reveal.dh_public == flagged_entry.dh_public
            and accuser_reveal.ciphertext == flagged_entry.ciphertext
            and verify_dleq(
                group,
                accuser_reveal.dh_public,
                accuser_reveal.decryption_key,
                accuser.base_point,
                accuser.mixing_public,
                accuser_reveal.key_proof,
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
                reveal = member.blame_reveal(round_number, downstream_index)
            except Exception:
                culprit_server = member.server_name
                break
            error = _verify_upstream_reveal(
                group,
                chain,
                member,
                reveal,
                round_number,
                downstream_entry,
                history[position],
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
        if downstream_index < len(submissions):
            sender = submissions[downstream_index].sender
            if sender not in verdict.malicious_users:
                verdict.malicious_users.append(sender)
        else:  # pragma: no cover - defensive; submissions and entries stay aligned
            raise BlameError("flagged ciphertext could not be traced to a submission")

    return verdict
