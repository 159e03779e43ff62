"""Blame protocol (§6.4).

When a server finds ciphertexts that fail authenticated decryption it
*accuses*: the flagged entries are revealed and every upstream server must,
in order, reveal the pre-image of each entry under its own processing — the
unblinded Diffie-Hellman key, the upstream ciphertext, and the decryption key
it used — each accompanied by Chaum-Pedersen proofs that the values are
consistent with its public blinding and mixing keys.  Walking the chain back
to the submission layer yields, per flagged ciphertext, exactly one of two
outcomes:

* every reveal verifies and the chain of decryptions reaches the original
  submission, in which case the *user* who submitted it is convicted (her
  outer ciphertext acts as a commitment to every layer), or
* some server's reveal fails to verify, in which case that *server* is
  convicted and the protocol halts (the honest servers then delete their
  inner keys so nothing more is learned).

Honest users are never convicted: their ciphertexts authenticate at every
layer, so an accusation against them fails at the accuser's own step 4 check.

The flagged ciphertexts are independent (§8.2: "processed in parallel"), so
the walk is hop-wise over the whole flagged set: each server reveals for
every ciphertext still being traced in one call, and each hop's checks — the
proofs, the key derivations, the trial decryptions — are one batch each.
The per-ciphertext walk this replaces lives on in ``tests/blame_oracle.py``
as the reference the batched protocol is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

from repro.constants import KDF_LABEL_OUTER
from repro.crypto.aead import adec_batch
from repro.crypto.kdf import derive_key_batch
from repro.crypto.nizk import DleqProof, verify_dleq_batch
from repro.errors import BlameError
from repro.mixnet.ahs import blame_context
from repro.mixnet.messages import EncodedBatch

__all__ = ["KeyReveals", "BlameReveals", "BlameVerdict", "run_blame_protocol"]


@dataclass(frozen=True)
class KeyReveals:
    """A server's decryption keys for some of its input entries, with proofs.

    Column ``i`` of every field belongs to the ``i``-th entry asked about.
    On its own this is the accusing server's reveal (§6.4 step 4).
    """

    #: The entries, as this server claims to have received them.
    preimages: EncodedBatch
    decryption_keys: List[object]
    key_proofs: List[DleqProof]

    def covers(self, count: int) -> bool:
        """Whether every column answers for exactly ``count`` entries."""
        return all(len(getattr(self, column.name)) == count for column in fields(self))


@dataclass(frozen=True)
class BlameReveals(KeyReveals):
    """An upstream server's reveals for some of its output entries (§6.4 steps 1-2).

    The pre-image of each output entry under this server's processing — which
    input entry it was, and the entry itself — the key that opened it, and
    proofs that both match the server's public keys.
    """

    input_indices: List[int]
    blinding_proofs: List[DleqProof]


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

        A mix role of the distributed runtime returns verdicts to the
        coordinator in exactly this format, so eviction decisions are
        byte-identical whether the blame protocol ran in-process or in
        another process.
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


def _keys_open(group, decryption_keys: Sequence, round_number: int,
               ciphertexts: Sequence[bytes]) -> list:
    """``ADec`` of each ciphertext under the outer-layer key of its revealed DH element."""
    keys = derive_key_batch(b"".join(map(group.encode, decryption_keys)), KDF_LABEL_OUTER)
    return adec_batch(keys, round_number, ciphertexts)


def _same_entries(revealed: EncodedBatch, recorded: EncodedBatch) -> List[bool]:
    """Per entry: the revealed pre-image is, byte for byte, the recorded one."""
    return [
        revealed.element_bytes(index) == recorded.element_bytes(index)
        and revealed.ciphertext(index) == recorded.ciphertext(index)
        for index in range(len(recorded))
    ]


def _valid_accusations(chain, accuser, round_number: int, flagged: Sequence[int],
                       accused: EncodedBatch, accused_publics: Sequence) -> List[bool]:
    """§6.4 step 4 for every flagged entry: does the accusation hold up?

    The accuser must reveal, for the entry the chain saw it receive, the
    correct decryption key (proved against its mixing key) under which the
    ciphertext really fails to authenticate.
    """
    group = chain.group
    count = len(flagged)
    try:
        reveals = accuser.reveal_decryption_keys(round_number, flagged)
    except Exception:
        reveals = None
    if reveals is None or not reveals.covers(count):
        return [False] * count
    proved = verify_dleq_batch(
        group,
        accused_publics,
        reveals.decryption_keys,
        [accuser.base_point] * count,
        [accuser.mixing_public] * count,
        reveals.key_proofs,
        blame_context(chain.chain_id, accuser.position, round_number),
    )
    opened = _keys_open(group, reveals.decryption_keys, round_number, accused.ciphertexts())
    return [
        same and valid and not ok
        for same, valid, (ok, _) in zip(_same_entries(reveals.preimages, accused), proved, opened)
    ]


def _verified_preimages(chain, member, round_number: int, reveals: BlameReveals,
                        upstream_inputs: EncodedBatch, downstream_publics: Sequence,
                        downstream_ciphertexts: Sequence[bytes]) -> List[Optional[tuple]]:
    """Check one upstream server's reveals against what the chain recorded.

    Per downstream entry: its pre-image ``(input index, X_in, c_in)`` when the
    reveal holds up, ``None`` when it does not.  It holds up when it points
    inside ``upstream_inputs`` (the batch the chain saw this server receive)
    and shows exactly the entry recorded there, (1) the blinding relation
    ``X_out = bsk · X_in`` and (2) the decryption key ``K = msk · X_in`` are
    proved, and (3) ``c_in`` opens under ``K`` to exactly the downstream
    ciphertext.
    """
    group = chain.group
    columns = [
        column for column, index in enumerate(reveals.input_indices)
        if 0 <= index < len(upstream_inputs)
    ]
    count = len(columns)

    def checkable(values: Sequence) -> list:
        return [values[column] for column in columns]

    recorded = upstream_inputs.select(checkable(reveals.input_indices))
    recorded_publics = recorded.decode_publics()
    recorded_ciphertexts = recorded.ciphertexts()
    decryption_keys = checkable(reveals.decryption_keys)
    proved = verify_dleq_batch(
        group,
        recorded_publics * 2,
        checkable(downstream_publics) + decryption_keys,
        [member.base_point] * (2 * count),
        [member.blinding_public] * count + [member.mixing_public] * count,
        checkable(reveals.blinding_proofs) + checkable(reveals.key_proofs),
        blame_context(chain.chain_id, member.position, round_number),
    )
    opened = _keys_open(group, decryption_keys, round_number, recorded_ciphertexts)
    same = _same_entries(reveals.preimages.select(columns), recorded)
    preimages: List[Optional[tuple]] = [None] * len(reveals.input_indices)
    for row, column in enumerate(columns):
        if (
            same[row]
            and proved[row]
            and proved[count + row]
            and opened[row] == (True, downstream_ciphertexts[column])
        ):
            preimages[column] = (
                reveals.input_indices[column], recorded_publics[row], recorded_ciphertexts[row]
            )
    return preimages


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
    servers identified as malicious, in the order the flagged ciphertexts
    convict them.
    """
    members = chain.members
    if not (0 <= accusing_position < len(members)):
        raise BlameError("accusing position out of range")
    if len(history) <= accusing_position:
        raise BlameError("history does not cover the accusing position")
    flagged = list(flagged_input_indices)
    if not all(0 <= index < len(history[accusing_position]) for index in flagged):
        raise BlameError("flagged index out of range")
    accuser = members[accusing_position]
    accused = history[accusing_position].select(flagged)
    accused_publics = accused.decode_publics()

    # Step 4 first (cheap): the accuser must demonstrate that each flagged
    # ciphertext really fails to authenticate under the correct key.  An
    # accusation that does not hold up convicts the accuser — it is lying or
    # refused to reveal a consistent key — and honest users stay safe.
    valid = _valid_accusations(chain, accuser, round_number, flagged, accused, accused_publics)
    #: Per flagged ciphertext: the server it convicts, if any.
    culprit: List[Optional[str]] = [None if ok else accuser.server_name for ok in valid]

    # Walk upstream from the accuser towards the submission layer, every
    # ciphertext still being traced at once.  Per ciphertext the trail holds
    # its position in ``flagged`` and the entry it has been traced to: where
    # that sits in the batch handed to the next hop up, and what it is.
    trail = [
        (slot, flagged[slot], accused_publics[slot], accused.ciphertext(slot))
        for slot, ok in enumerate(valid) if ok
    ]
    for position in range(accusing_position - 1, -1, -1):
        if not trail:
            break
        member = members[position]
        slots, indices, publics, ciphertexts = zip(*trail)
        try:
            reveals = member.blame_reveals(round_number, list(indices))
        except Exception:
            reveals = None
        if reveals is None or not reveals.covers(len(trail)):
            # Refused or malformed: nothing was revealed for any of them.
            preimages: List[Optional[tuple]] = [None] * len(trail)
        else:
            preimages = _verified_preimages(
                chain, member, round_number, reveals, history[position], publics, ciphertexts
            )
        trail = []
        for slot, preimage in zip(slots, preimages):
            if preimage is None:
                culprit[slot] = member.server_name
            else:
                trail.append((slot, *preimage))

    # A ciphertext traced to the submission layer convicts its submitter:
    # she produced a ciphertext that does not authenticate at the accuser.
    senders = chain.senders_for_round(round_number)
    submitter = {slot: index for slot, index, _, _ in trail}
    verdict = BlameVerdict(
        chain_id=chain.chain_id,
        round_number=round_number,
        false_accusations=valid.count(False),
        examined_ciphertexts=len(flagged),
    )
    for slot, server in enumerate(culprit):
        if server is not None:
            if server not in verdict.malicious_servers:
                verdict.malicious_servers.append(server)
        elif submitter[slot] < len(senders):
            sender = senders[submitter[slot]]
            if sender not in verdict.malicious_users:
                verdict.malicious_users.append(sender)
        else:  # pragma: no cover - defensive; senders and entries stay aligned
            raise BlameError("flagged ciphertext could not be traced to a submission")
    return verdict
