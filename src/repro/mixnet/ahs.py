"""Aggregate hybrid shuffle (AHS) — §6 of the paper.

The module implements the three phases of the protocol:

1. **Key generation** (§6.1): the servers of a chain generate, in order,
   long-term *blinding* keys ``bpk_i = bsk_i · bpk_{i-1}`` and *mixing* keys
   ``mpk_i = msk_i · bpk_{i-1}`` (with ``bpk_0 = g``), plus per-round *inner*
   keys ``ipk_i = isk_i · g``.  Each key comes with a NIZK of knowledge of
   its secret.
2. **Mixing** (§6.3): each server removes one authenticated outer layer from
   every message, *blinds* the accompanying Diffie-Hellman key with its
   blinding secret, shuffles both with the same permutation, and publishes a
   Chaum-Pedersen proof that the aggregate of its output keys equals the
   aggregate of its input keys raised to its blinding key.  Any
   authentication failure halts mixing and triggers the blame protocol.
3. **Inner-key reveal**: once every proof has verified, the servers reveal
   their per-round inner secrets and the last server opens the inner
   envelopes, recovering the mailbox messages.

The shuffle is "hybrid" (§5.2.1) because the expensive public-key half of
the mixing phase — blinding every DH key, deriving every outer layer key —
depends only on the DH publics, which are known before the online phase
begins.  :meth:`ChainMember.precompute_rows` runs exactly those two passes
ahead of time and caches the results in the round record, leaving
:meth:`ChainMember.process_round`'s online phase as symmetric crypto (AEAD
opens + shuffle) plus the aggregate DLEQ proof.

The classes here model *honest* behaviour; adversarial servers for tests and
experiments live in :mod:`repro.coordinator.adversary` and override the
relevant methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import KDF_LABEL_OUTER
from repro.crypto.nizk import (
    DleqProof,
    SchnorrProof,
    prove_dleq,
    prove_dleq_batch,
    prove_dlog,
    verify_dleq_batch,
    verify_dlog,
    verify_dlog_batch,
    verify_dlog_columns,
)
from repro import trace
from repro.crypto import stream
from repro.crypto.aead import open_spans
from repro.crypto.onion import open_inner_envelopes, shared_keys_batch
from repro.errors import ProofError, ProtocolError
from repro.mixnet.messages import (
    EncodedBatch,
    MailboxBatch,
    SubmissionBatch,
    batch_digest,
    decode_elements,
)
from repro.transport.base import Transport
from repro.transport.envelope import BATCH, Envelope
from repro.transport.inproc import InProcTransport

__all__ = [
    "ChainPublicKeys",
    "MemberSetupBundle",
    "InnerKeyAnnouncement",
    "MixStepResult",
    "ChainMember",
    "MixChain",
    "ChainRoundResult",
    "submission_context",
    "setup_context",
    "mixing_context",
]


def setup_context(chain_id: int, position: int) -> bytes:
    """Fiat-Shamir context for the long-term key ceremony."""
    return b"xrd/setup|" + chain_id.to_bytes(4, "big") + position.to_bytes(2, "big")


def inner_key_context(chain_id: int, position: int, round_number: int) -> bytes:
    """Fiat-Shamir context for per-round inner key announcements."""
    return (
        b"xrd/inner-key|"
        + chain_id.to_bytes(4, "big")
        + position.to_bytes(2, "big")
        + round_number.to_bytes(8, "big")
    )


def mixing_context(chain_id: int, position: int, round_number: int) -> bytes:
    """Fiat-Shamir context for the aggregate blinding proof of one mix step."""
    return (
        b"xrd/mix-step|"
        + chain_id.to_bytes(4, "big")
        + position.to_bytes(2, "big")
        + round_number.to_bytes(8, "big")
    )


def submission_context(chain_id: int, round_number: int, sender: str) -> bytes:
    """Fiat-Shamir context binding a client submission to (chain, round, sender)."""
    return (
        b"xrd/submission|"
        + chain_id.to_bytes(4, "big")
        + round_number.to_bytes(8, "big")
        + sender.encode()
    )


def blame_context(chain_id: int, position: int, round_number: int) -> bytes:
    """Fiat-Shamir context for blame-protocol reveals."""
    return (
        b"xrd/blame|"
        + chain_id.to_bytes(4, "big")
        + position.to_bytes(2, "big")
        + round_number.to_bytes(8, "big")
    )


@dataclass
class ChainPublicKeys:
    """Public key material of a chain, distributed to every user and server."""

    chain_id: int
    base_points: List[object]
    blinding_publics: List[object]
    mixing_publics: List[object]

    @property
    def length(self) -> int:
        return len(self.mixing_publics)


@dataclass(frozen=True)
class MemberSetupBundle:
    """One server's contribution to the key ceremony, with proofs of knowledge."""

    position: int
    blinding_public: object
    mixing_public: object
    blinding_proof: SchnorrProof
    mixing_proof: SchnorrProof


@dataclass(frozen=True)
class InnerKeyAnnouncement:
    """One server's per-round inner public key and proof of knowledge."""

    position: int
    inner_public: object
    proof: SchnorrProof


@dataclass
class MixStepResult:
    """Output of one server's decrypt–blind–shuffle step."""

    position: int
    entries: EncodedBatch
    proof: Optional[DleqProof]
    failed_indices: List[int] = field(default_factory=list)

    @property
    def halted(self) -> bool:
        return bool(self.failed_indices)


@dataclass
class _RoundRecord:
    """Private per-round state a member keeps for verification and blame."""

    inputs: Optional[EncodedBatch] = None
    outputs: Optional[EncodedBatch] = None
    permutation: List[int] = field(default_factory=list)
    inner_secret: Optional[int] = field(default=None, repr=False)
    inner_public: Optional[object] = None
    #: Blocks of the member's ``MEMBER_ROUND`` stream this round has used:
    #: every draw takes the next ones, so a blame rerun's shuffle and
    #: proof nonces are fresh.
    draws: int = 0
    #: Precomputed public-key work (§5.2.1): a DH public's wire encoding →
    #: ``(public, blinded key, blinded key's encoding, outer layer key)``,
    #: the one place the online pass reads its keys from.  Keyed by the
    #: encoding as it lies in the batch blob (not by batch index), so the
    #: table survives shuffles, rejected submissions, and the
    #: rerun-after-blame entry removal, and a lookup decodes nothing.
    precomputed: Dict[bytes, tuple] = field(default_factory=dict)


class ChainMember:
    """One server's state and behaviour within one chain.

    A physical server participating in ``k`` chains holds ``k`` independent
    ``ChainMember`` instances, one per chain, each with its own key material
    and position.
    """

    def __init__(
        self,
        server_name: str,
        chain_id: int,
        position: int,
        group,
        stream_key: Optional[bytes] = None,
    ) -> None:
        self.server_name = server_name
        self.chain_id = chain_id
        self.position = position
        self.group = group
        # Every scalar and shuffle this member draws comes off one keyed
        # stream (repro.crypto.stream), addressed by (round, draw index):
        # no execution order across chains or rounds can change what any
        # (member, round) pair draws, which is what lets the engine mix
        # chains concurrently and stagger rounds bit-identically.
        self._stream_key = stream_key if stream_key is not None else stream.stream_key()
        self.base_point = None
        self.blinding_secret: Optional[int] = None
        self.blinding_public = None
        self.mixing_secret: Optional[int] = None
        self.mixing_public = None
        self._rounds: Dict[int, _RoundRecord] = {}

    def _draw_blocks(self, round_number: int, count: int) -> bytes:
        """The round's next ``count`` stream blocks (advancing its draw counter)."""
        record = self._rounds.setdefault(round_number, _RoundRecord())
        start = record.draws
        record.draws += count
        return stream.draw_blocks(
            self._stream_key, stream.MEMBER_ROUND, round_number, start, count
        )

    def draw_scalars(self, round_number: int, count: int) -> List[int]:
        """The round's next ``count`` scalar draws."""
        return stream.scalars(self.group, self._draw_blocks(round_number, count))

    # -- key ceremony ---------------------------------------------------------

    def generate_long_term_keys(self, base_point) -> MemberSetupBundle:
        """Generate blinding and mixing keys on ``base_point`` (= ``bpk_{i-1}``)."""
        group = self.group
        self.base_point = base_point
        self.blinding_secret, self.mixing_secret, blinding_nonce, mixing_nonce = (
            stream.draw_scalars(group, self._stream_key, stream.MEMBER_KEYS, 0, 0, 4)
        )
        self.blinding_public = group.scalar_mult(base_point, self.blinding_secret)
        self.mixing_public = group.scalar_mult(base_point, self.mixing_secret)
        context = setup_context(self.chain_id, self.position)
        return MemberSetupBundle(
            position=self.position,
            blinding_public=self.blinding_public,
            mixing_public=self.mixing_public,
            blinding_proof=prove_dlog(
                group, base_point, self.blinding_secret, context, nonce=blinding_nonce
            ),
            mixing_proof=prove_dlog(
                group, base_point, self.mixing_secret, context, nonce=mixing_nonce
            ),
        )

    # -- per-round inner keys --------------------------------------------------

    def begin_round(self, round_number: int) -> InnerKeyAnnouncement:
        """Generate this round's inner key pair and announce the public part."""
        group = self.group
        secret, nonce = self.draw_scalars(round_number, 2)
        record = self._rounds[round_number]
        record.inner_secret = secret
        record.inner_public = group.base_mult(secret)
        context = inner_key_context(self.chain_id, self.position, round_number)
        proof = prove_dlog(group, group.base(), secret, context, nonce=nonce)
        return InnerKeyAnnouncement(position=self.position, inner_public=record.inner_public, proof=proof)

    # -- precomputation (§5.2.1) -------------------------------------------------

    def precompute_rows(self, round_number: int, encodings: Sequence[bytes],
                        dh_publics: Optional[Sequence[object]] = None) -> List[tuple]:
        """Run the round's public-key work ahead of time and cache the results.

        Both expensive passes of :meth:`process_round` — blinding every DH
        key with the blinding secret and deriving every outer layer key from
        the mixing secret — depend only on the DH publics, which are known
        before the online phase (§5.2.1: the hybrid shuffle is "hybrid"
        precisely so this work can run during idle time).  Returns the
        table rows ``(public, blinded, blinded encoding, layer key)`` of the
        publics encoded as ``encodings``, in input order, so a chain can
        cascade the precompute through its members on the blinded columns
        (the intervening shuffle only permutes the batch, which a keyed
        table is insensitive to).

        Rows the table lacks are filled from ``dh_publics`` (the same
        publics, decoded) or, when not given, by decoding ``encodings``
        here, where one the group rejects raises
        :class:`~repro.errors.DecodingError`.  Idempotent and incremental,
        so late top-ups only pay for the new entries; it draws no
        randomness, so running it — or not — never changes any output.
        """
        if self.mixing_secret is None or self.blinding_secret is None:
            raise ProtocolError("chain member has not completed key setup")
        group = self.group
        table = self._rounds.setdefault(round_number, _RoundRecord()).precomputed
        try:
            return list(map(table.__getitem__, encodings))
        except KeyError:
            pass
        missing = [index for index, key in enumerate(encodings) if key not in table]
        fresh = (
            [dh_publics[index] for index in missing] if dh_publics is not None
            else decode_elements(group, [encodings[index] for index in missing])
        )
        blinded = group.scalar_mult_batch(fresh, self.blinding_secret)
        keys = shared_keys_batch(group, KDF_LABEL_OUTER, fresh, self.mixing_secret)
        for slot, index in enumerate(missing):
            table[encodings[index]] = (
                fresh[slot], blinded[slot], group.encode(blinded[slot]),
                keys[32 * slot:32 * slot + 32],
            )
        return list(map(table.__getitem__, encodings))

    def release_round(self, round_number: int) -> None:
        """Forget a delivered round's record: blobs, permutation, draws, secret, table."""
        self._rounds.pop(round_number, None)

    # -- mixing -----------------------------------------------------------------

    def process_round(self, round_number: int, entries: EncodedBatch) -> MixStepResult:
        """Decrypt one layer, blind the DH keys, shuffle, and prove (§6.3 steps 1-3).

        The public-key work (blinding, layer-key derivation) is served from
        the round's precompute table, looked up by each entry's element
        bytes as they lie in the blob, leaving the online phase as AEAD
        opens + shuffle + the aggregate proof once :meth:`precompute_rows`
        ran.  An element the table lacks is decoded and its row filled
        here (one the group rejects raises
        :class:`~repro.errors.DecodingError`).

        The opens are one :func:`~repro.crypto.aead.open_spans` call over
        the batch blob: each entry's ciphertext is read where it lies and
        its plaintext is written behind its blinded key's encoding and
        length, so the call's output is the next hop's entries; one join
        puts them in shuffled order.  A tag that fails anywhere gives
        ``failed_indices`` in input order and no output.  The shuffle is
        drawn only after every entry opened, so a failed hop draws nothing.
        """
        group = self.group
        rows = self.precompute_rows(round_number, entries.element_encodings())
        record = self._rounds[round_number]
        record.inputs = entries  # immutable, blob-backed: no copy
        starts, ends = entries.ciphertext_spans()
        opened = open_spans(
            entries.blob, starts, ends, b"".join([row[3] for row in rows]), round_number,
            heads=b"".join([row[2] for row in rows]),
        )
        if 0 in opened.opened:
            return MixStepResult(
                position=self.position, entries=entries.select(()), proof=None,
                failed_indices=[index for index, ok in enumerate(opened.opened) if not ok],
            )
        # One stream call: the shuffle's blocks, then the proof nonce's.
        size = len(entries)
        drawn = self._draw_blocks(round_number, stream.shuffle_blocks(size) + 1)
        permutation = stream.permutation(drawn, size)
        (nonce,) = stream.scalars(group, drawn[-stream.BLOCK_SIZE:])
        outputs = EncodedBatch(group, opened.plain, opened.offsets).select(permutation)
        record.permutation = permutation
        record.outputs = outputs
        proof = prove_dleq(
            group,
            base1=group.sum([row[0] for row in rows]) if rows else group.identity(),
            base2=self.base_point,
            secret=self.blinding_secret,
            context=mixing_context(self.chain_id, self.position, round_number),
            nonce=nonce,
            public2=self.blinding_public,
        )
        return MixStepResult(position=self.position, entries=outputs, proof=proof)

    # -- inner key reveal --------------------------------------------------------

    def reveal_inner_secret(self, round_number: int) -> int:
        """Reveal this round's inner secret once mixing has been verified."""
        record = self._rounds.get(round_number)
        if record is None or record.inner_secret is None:
            raise ProtocolError("no inner key was generated for this round")
        return record.inner_secret

    def delete_inner_secret(self, round_number: int) -> None:
        """Forget the round's inner secret (§6.4: run when the round halts)."""
        record = self._rounds.get(round_number)
        if record is not None:
            record.inner_secret = None

    # -- blame support -------------------------------------------------------------

    def output_to_input_index(self, round_number: int, output_index: int) -> int:
        """Map an index in this member's output batch to the corresponding input index."""
        record = self._rounds[round_number]
        return record.permutation[output_index]

    def round_record(self, round_number: int) -> _RoundRecord:
        """Access the private round record (used by the blame protocol and tests)."""
        return self._rounds[round_number]

    def _reveal_keys(self, preimages: EncodedBatch, nonces: Sequence[int], context: bytes):
        """Decryption keys ``msk · X`` for ``preimages``, each proved against the mixing key."""
        group = self.group
        dh_publics = preimages.decode_publics()
        decryption_keys = group.scalar_mult_batch(dh_publics, self.mixing_secret)
        key_proofs = prove_dleq_batch(
            group,
            dh_publics,
            [group.encode(key) for key in decryption_keys],
            self.base_point,
            group.encode(self.mixing_public),
            self.mixing_secret,
            nonces,
            context,
        )
        return dh_publics, decryption_keys, key_proofs

    def blame_reveals(self, round_number: int, output_indices: Sequence[int]):
        """Reveal the pre-images of some output entries with proofs (§6.4 steps 1-2).

        One reveal for the whole set; per entry the round's stream gives the
        blinding proof's nonce, then the key proof's.
        """
        from repro.mixnet.blame import BlameReveals  # local import to avoid a cycle

        group = self.group
        record = self._rounds[round_number]
        input_indices = [record.permutation[index] for index in output_indices]
        preimages = record.inputs.select(input_indices)
        outputs = record.outputs
        nonces = self.draw_scalars(round_number, 2 * len(input_indices))
        context = blame_context(self.chain_id, self.position, round_number)
        dh_publics, decryption_keys, key_proofs = self._reveal_keys(
            preimages, nonces[1::2], context
        )
        # X_out = bsk · X_in is the output entry this server already holds.
        blinding_proofs = prove_dleq_batch(
            group,
            dh_publics,
            [outputs.element_bytes(index) for index in output_indices],
            self.base_point,
            group.encode(self.blinding_public),
            self.blinding_secret,
            nonces[0::2],
            context,
        )
        return BlameReveals(
            preimages=preimages,
            decryption_keys=decryption_keys,
            key_proofs=key_proofs,
            input_indices=input_indices,
            blinding_proofs=blinding_proofs,
        )

    def reveal_decryption_keys(self, round_number: int, input_indices: Sequence[int]):
        """Reveal the decryption keys for some of this member's *input* entries.

        Used by the accusing server in blame step 4 to demonstrate that the
        flagged ciphertexts do not authenticate under the correct keys.
        """
        from repro.mixnet.blame import KeyReveals  # local import to avoid a cycle

        preimages = self._rounds[round_number].inputs.select(input_indices)
        nonces = self.draw_scalars(round_number, len(input_indices))
        context = blame_context(self.chain_id, self.position, round_number)
        _, decryption_keys, key_proofs = self._reveal_keys(preimages, nonces, context)
        return KeyReveals(
            preimages=preimages, decryption_keys=decryption_keys, key_proofs=key_proofs
        )


@dataclass
class ChainRoundResult:
    """Outcome of one round on one chain."""

    chain_id: int
    round_number: int
    status: str
    #: The opened records, in batch order; indexing yields MailboxMessage.
    mailbox_messages: MailboxBatch = field(default_factory=lambda: MailboxBatch.from_records(()))
    blame_verdict: Optional[object] = None
    misbehaving_server: Optional[str] = None
    rejected_senders: List[str] = field(default_factory=list)
    invalid_inner_count: int = 0
    input_digest: bytes = b""

    STATUS_DELIVERED = "delivered"
    STATUS_HALTED_SERVER = "halted-server-misbehaviour"
    STATUS_HALTED_BLAME = "halted-blame"

    @property
    def delivered(self) -> bool:
        return self.status == self.STATUS_DELIVERED


_HANDOFF = InProcTransport()  # a chain driven on its own hands its hops over in process


class MixChain:
    """A full anytrust chain: key ceremony, round orchestration, verification.

    In a real deployment every server verifies every other server's proofs
    and the one honest server guarantees detection.  The simulation performs
    each verification once on behalf of all members — equivalent in outcome,
    since XRD's guarantees only require that *some* verifier is honest.

    The chain holds no transport: :meth:`run_round` hands each hop to the
    one its caller passes (the engine passes its deployment's).
    """

    def __init__(self, chain_id: int, members: Sequence[ChainMember], group) -> None:
        if not members:
            raise ProtocolError("a chain needs at least one member")
        self.chain_id = chain_id
        self.members = list(members)
        self.group = group
        self.public_keys: Optional[ChainPublicKeys] = None
        self._inner_publics: Dict[int, List[object]] = {}
        self._aggregate_inner: Dict[int, object] = {}
        #: Per round: the accepted batch (DESIGN.md §11.3 — one wire blob,
        #: like every hop's) and, index-aligned with it, who sent each entry.
        self._entries: Dict[int, EncodedBatch] = {}
        self._senders: Dict[int, List[str]] = {}

    def __len__(self) -> int:
        return len(self.members)

    # -- setup ---------------------------------------------------------------

    def setup(self) -> ChainPublicKeys:
        """Run the ordered key ceremony of §6.1, verifying every proof."""
        group = self.group
        base_points = []
        blinding_publics = []
        mixing_publics = []
        base = group.base()
        for member in self.members:
            bundle = member.generate_long_term_keys(base)
            context = setup_context(self.chain_id, member.position)
            if not verify_dlog(group, base, bundle.blinding_public, bundle.blinding_proof, context):
                raise ProofError(
                    f"server {member.server_name} failed to prove knowledge of its blinding key"
                )
            if not verify_dlog(group, base, bundle.mixing_public, bundle.mixing_proof, context):
                raise ProofError(
                    f"server {member.server_name} failed to prove knowledge of its mixing key"
                )
            base_points.append(base)
            blinding_publics.append(bundle.blinding_public)
            mixing_publics.append(bundle.mixing_public)
            base = bundle.blinding_public
        self.public_keys = ChainPublicKeys(
            chain_id=self.chain_id,
            base_points=base_points,
            blinding_publics=blinding_publics,
            mixing_publics=mixing_publics,
        )
        return self.public_keys

    # -- per-round flow ---------------------------------------------------------

    def begin_round(self, round_number: int):
        """Collect and verify every member's inner key announcement; return Σ ipk.

        Idempotent while the round is held (announcing again would draw the
        members' next blocks); a released round announces afresh, and
        identically, since its members' draw counters restart.
        """
        if round_number in self._aggregate_inner:
            return self._aggregate_inner[round_number]
        group = self.group
        announcements = [member.begin_round(round_number) for member in self.members]
        publics = [announcement.inner_public for announcement in announcements]
        verified = verify_dlog_batch(
            group,
            group.base(),
            publics,
            [announcement.proof for announcement in announcements],
            [
                inner_key_context(self.chain_id, member.position, round_number)
                for member in self.members
            ],
        )
        for member, ok in zip(self.members, verified):
            if not ok:
                raise ProofError(
                    f"server {member.server_name} failed to prove knowledge of its inner key"
                )
        self._inner_publics[round_number] = publics
        aggregate = group.sum(publics)
        self._aggregate_inner[round_number] = aggregate
        return aggregate

    def precompute_round(self, round_number: int, submissions) -> None:
        """Precompute every member's public-key work for the round (§5.2.1).

        ``submissions`` is the round's pending batch, whose DH keys are
        decoded as :meth:`accept_submissions` decodes them, without the
        proof checks (those stay online): a submission that will be rejected
        merely precomputes an unused table entry.  The precompute cascades
        down the chain: member 0 blinds the decoded publics, and each
        member's blinded outputs are the next member's inputs — exactly the
        keys it will see online, up to the predecessor's shuffle, which the
        members' keyed tables are insensitive to.  After this,
        :meth:`run_round`'s per-member online work is AEAD opens + shuffle +
        the aggregate DLEQ proof.

        Deterministic and side-effect-free beyond the member caches, so it
        may run concurrently with another round's mixing (the stagger
        window) and is safe to repeat or top up incrementally.
        """
        chain_ids, _, encoded, _, _ = SubmissionBatch.of(self.group, submissions).columns()
        indices, publics = self._decode_statements(chain_ids, encoded)
        encodings = [encoded[index] for index in indices]
        for member in self.members:
            rows = member.precompute_rows(round_number, encodings, publics)
            publics, encodings = [row[1] for row in rows], [row[2] for row in rows]

    def release_round(self, round_number: int) -> None:
        """Drop the chain's and every member's state for a delivered round
        (never a halted one: recovery still reads it; DESIGN.md §8.3)."""
        for store in (self._entries, self._senders, self._inner_publics, self._aggregate_inner):
            store.pop(round_number, None)
        for member in self.members:
            member.release_round(round_number)

    def _decode_statements(
        self, chain_ids: Sequence[int], publics: Sequence[bytes]
    ) -> Tuple[List[int], List[object]]:
        """The indices and decoded DH publics of the submissions that can be
        proof statements at all: this chain's, with a key the group accepts
        (one ``decode_batch``; only a rejected encoding drops a submission)."""
        ours = [index for index, chain_id in enumerate(chain_ids) if chain_id == self.chain_id]
        decoded = self.group.decode_batch([publics[index] for index in ours])
        rows = [index for index, point in zip(ours, decoded) if point is not None]
        return rows, [point for point in decoded if point is not None]

    def aggregate_inner_public(self, round_number: int):
        """Return Σ ipk for the round (what users encrypt inner envelopes to)."""
        if round_number not in self._aggregate_inner:
            raise ProtocolError(f"round {round_number} has not begun on chain {self.chain_id}")
        return self._aggregate_inner[round_number]

    def accept_submissions(
        self, round_number: int, submissions
    ) -> Tuple[EncodedBatch, List[str]]:
        """Verify client NIZKs and build the round's input batch.

        ``submissions`` is a :class:`SubmissionBatch` (a list of
        :class:`ClientSubmission` is encoded into one first).  Submissions
        whose knowledge-of-discrete-log proof does not verify are rejected
        immediately and their senders reported (§6.4: "the misbehaviour is
        detected and the adversary is immediately identified").

        Everything is read from the batch's columns, and the accepted
        :class:`EncodedBatch` is sliced out of the submission records; the
        chain keeps only who sent each entry, so the caller may (and the
        engine does) drop the submission batch once this returns.
        """
        group = self.group
        batch = SubmissionBatch.of(group, submissions)
        chain_ids, senders, encoded, commitments, responses = batch.columns()
        # Whatever cannot be a proof statement (wrong chain, undecodable
        # key) is rejected as is; everything else is one row of one batched
        # verification, and the verdicts fall back into submission order.
        rows, publics = self._decode_statements(chain_ids, encoded)
        valid = [False] * len(batch)
        verified = verify_dlog_columns(
            group,
            group.base(),
            publics,
            [commitments[index] for index in rows],
            [responses[index] for index in rows],
            [submission_context(self.chain_id, round_number, senders[index]) for index in rows],
        )
        for index, ok in zip(rows, verified):
            valid[index] = ok
        # Keep the *wire bytes* (the decode above validated them, and every
        # accepted encoding is canonical, so no re-encode is needed) plus the
        # senders; the decoded points die here.
        accepted = [index for index, ok in enumerate(valid) if ok]
        rejected = [sender for sender, ok in zip(senders, valid) if not ok]
        self._senders[round_number] = [senders[index] for index in accepted]
        entries = EncodedBatch.from_parts(
            group,
            [encoded[index] for index in accepted],
            [batch.ciphertext(index) for index in accepted],
        )
        self._entries[round_number] = entries
        return entries, rejected

    def senders_for_round(self, round_number: int) -> List[str]:
        """Who sent each accepted entry, in batch order (blame identifies users by index)."""
        return self._senders.get(round_number, [])

    def _forward_batch(
        self, transport: Transport, round_number: int, index: int, entries: EncodedBatch
    ) -> EncodedBatch:
        """Send member ``index``'s output batch to its successor over ``transport``."""
        if index + 1 >= len(self.members):
            return entries
        envelope = Envelope(
            kind=BATCH,
            source=self.members[index].server_name,
            destination=self.members[index + 1].server_name,
            round_number=round_number,
            payload=entries,
            chain_id=self.chain_id,
        )
        return transport.deliver(envelope)

    def delete_inner_secrets(self, round_number: int) -> None:
        """§6.4 for a halted round: every member deletes its inner key, so
        the round's inner envelopes can never be opened; the rest of the
        round's state stays for blame and ``recover()``."""
        for member in self.members:
            member.delete_inner_secret(round_number)

    def _halt(self, round_number: int, status: str, digest: bytes, **outcome) -> ChainRoundResult:
        """End a round that will not deliver (its inner keys go first)."""
        self.delete_inner_secrets(round_number)
        return ChainRoundResult(
            chain_id=self.chain_id, round_number=round_number, status=status,
            input_digest=digest, **outcome,
        )

    def run_round(self, round_number: int, transport: Transport = _HANDOFF) -> ChainRoundResult:
        """Execute the mixing phase for the round's accepted submissions.

        Each hop's output reaches its successor as one ``BATCH`` envelope
        over ``transport``.  Returns a :class:`ChainRoundResult` whose status
        reflects whether the messages were delivered, a server was caught
        misbehaving (protocol halts, no privacy loss), or the blame protocol
        ran.  When blame convicts only *users*, their submissions are removed
        and mixing is re-run — mirroring §6.4's "those ciphertexts are
        removed from the set and the upstream servers repeat the AHS
        protocol".
        """
        from repro.mixnet.blame import run_blame_protocol  # local import to avoid a cycle

        group = self.group
        if round_number not in self._entries:
            raise ProtocolError("accept_submissions must run before run_round")
        entries = self._entries[round_number]
        digest = batch_digest(entries)
        history: List[EncodedBatch] = [entries]
        rejected_senders: List[str] = []
        # Σ of the hop's input keys, each batch decoded and summed once:
        # hop 0's from the accepted batch, every later hop's carried over
        # from its predecessor's verified output when the batch arrived
        # byte-identical, else from what arrived.
        input_aggregate = None

        for index, member in enumerate(self.members):
            with trace.span(chain_id=self.chain_id, hop=member.position, entries=len(entries)):
                result = member.process_round(round_number, entries)
            if result.halted:
                verdict = run_blame_protocol(
                    chain=self,
                    round_number=round_number,
                    accusing_position=member.position,
                    flagged_input_indices=result.failed_indices,
                    history=history,
                )
                if verdict.malicious_servers or not verdict.malicious_users:
                    return self._halt(
                        round_number, ChainRoundResult.STATUS_HALTED_BLAME, digest,
                        blame_verdict=verdict,
                    )
                # Remove the convicted users' submissions and rerun the
                # round.  Index-based so the batch can subset its blob
                # without decoding the survivors.
                rejected_senders.extend(verdict.malicious_users)
                malicious = set(verdict.malicious_users)
                senders = self._senders[round_number]
                keep = [index for index, sender in enumerate(senders) if sender not in malicious]
                self._senders[round_number] = [senders[index] for index in keep]
                self._entries[round_number] = self._entries[round_number].select(keep)
                rerun = self.run_round(round_number, transport)
                rerun.rejected_senders = rejected_senders + rerun.rejected_senders
                rerun.blame_verdict = verdict
                return rerun
            # Aggregate blinding verification performed on behalf of every
            # other (in particular the honest) member.
            if input_aggregate is None:
                input_aggregate = group.sum(entries.decode_publics())
            output_aggregate = group.sum(result.entries.decode_publics())
            context = mixing_context(self.chain_id, member.position, round_number)
            valid = (
                result.proof is not None
                and len(result.entries) == len(entries)
                and verify_dleq_batch(
                    group,
                    [input_aggregate],
                    [output_aggregate],
                    [member.base_point],
                    [member.blinding_public],
                    [result.proof],
                    context,
                )[0]
            )
            if not valid:
                return self._halt(
                    round_number, ChainRoundResult.STATUS_HALTED_SERVER, digest,
                    misbehaving_server=member.server_name,
                )
            # Hand the verified output batch to the next server (the real
            # server→server wire of §6.3); the last member's output stays
            # local for the inner-key reveal.
            entries = self._forward_batch(transport, round_number, index, result.entries)
            history.append(entries)
            input_aggregate = output_aggregate if entries.blob == result.entries.blob else None

        # Inner-key reveal and final decryption.
        inner_secrets: List[int] = []
        announced = self._inner_publics.get(round_number, [])
        for member, announced_public in zip(self.members, announced):
            secret = member.reveal_inner_secret(round_number)
            if group.base_mult(secret) != announced_public:
                return self._halt(
                    round_number, ChainRoundResult.STATUS_HALTED_SERVER, digest,
                    misbehaving_server=member.server_name,
                )
            inner_secrets.append(secret)

        # Whole-batch final decryption: one many-points-one-scalar pass over
        # the aggregate inner secret, then one open over the inner envelopes
        # where they lie, straight into the mailbox records.
        opened = open_inner_envelopes(
            group, inner_secrets, round_number, entries.blob, *entries.ciphertext_spans(),
            MailboxBatch.MINIMUM,
        )
        return ChainRoundResult(
            chain_id=self.chain_id,
            round_number=round_number,
            status=ChainRoundResult.STATUS_DELIVERED,
            mailbox_messages=MailboxBatch.from_opened(opened),
            rejected_senders=rejected_senders,
            invalid_inner_count=opened.opened.count(0),
            input_digest=digest,
        )
