"""Adversarial behaviours for tests and experiments.

The paper's security argument (§6, Appendix A/B) is about what an *active*
adversary — malicious servers tampering with messages, malicious users
submitting misauthenticated ciphertexts — can and cannot get away with.
This module implements those behaviours so the test suite and the blame
benchmarks can exercise them:

* :class:`TamperingMember` wraps an honest :class:`ChainMember` and corrupts
  its output in one of several ways;
* :class:`LyingRevealMember` wraps one and lies when the blame protocol
  asks it to reveal;
* :func:`install_tampering_server` swaps a chain position over to the
  tampering wrapper inside an existing deployment;
* :func:`forge_misauthenticated_submission` builds the malicious-user
  submission of §8.2's blame experiment: outer layers that authenticate at
  the first ``fail_at_position`` servers and garbage below.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from repro.client.user import ChainKeysView
from repro.crypto import stream
from repro.crypto.nizk import DleqProof, prove_dlog
from repro.errors import ConfigurationError, ProtocolError
from repro.mixnet.ahs import ChainMember, MixStepResult, submission_context
from repro.mixnet.messages import BatchEntry, ClientSubmission, EncodedBatch

__all__ = [
    "TamperingMember",
    "LyingRevealMember",
    "install_tampering_server",
    "forge_misauthenticated_submission",
    "forge_invalid_proof_submission",
]

#: Corrupt the ciphertext of one output entry while leaving the DH keys (and
#: therefore the aggregate blinding proof) intact.  Detected downstream by
#: authenticated decryption failing at the next honest server, which starts
#: the blame protocol and convicts this server.
MODE_TAMPER_CIPHERTEXT = "tamper-ciphertext"

#: Replace one output DH key without fixing the aggregate.  Detected
#: immediately because the aggregate blinding proof no longer verifies.
MODE_BREAK_AGGREGATE = "break-aggregate"

#: Shift one output DH key by +Δ and another by −Δ so the aggregate (and the
#: proof) still verifies, mimicking the strongest algebraic attack the
#: security proof considers.  Detected downstream via authentication failure
#: and convicted by the blame protocol's per-message DLEQ check.
MODE_PRESERVE_AGGREGATE = "preserve-aggregate"

#: Drop one message entirely (the classic mix-net active attack).  The batch
#: size and aggregate both change, so verification fails immediately.
MODE_DROP_MESSAGE = "drop-message"

_MODES = (
    MODE_TAMPER_CIPHERTEXT,
    MODE_BREAK_AGGREGATE,
    MODE_PRESERVE_AGGREGATE,
    MODE_DROP_MESSAGE,
)


class TamperingMember:
    """A malicious chain member: honest key material, corrupted mixing step.

    The wrapper delegates everything except :meth:`process_round` to the
    wrapped honest member, so its keys, proofs of knowledge, and blame
    reveals are all "real" — exactly the situation the AHS verification has
    to catch.

    The wrapper's own randomness (the delta scalars of the aggregate-breaking
    modes) is drawn from ``stream_key`` under :data:`~repro.crypto.stream.
    DERIVED`, addressed like :class:`ChainMember`'s draws by (round, draw
    counter) — so adversarial rounds are exactly as reproducible as honest
    ones and bit-identical under every execution backend and scheduler.  An
    omitted key is derived from the wrapped member's identity and the
    tampering parameters.  ``rounds`` restricts the corruption to the named
    round numbers (the wrapper behaves honestly elsewhere), which is how
    fault plans schedule "tamper at round r" without installing and removing
    wrappers mid-scenario.
    """

    def __init__(
        self,
        member: ChainMember,
        mode: str,
        target_index: int = 0,
        stream_key: Optional[bytes] = None,
        rounds: Optional[Iterable[int]] = None,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(f"unknown tampering mode {mode!r}")
        self._member = member
        self.mode = mode
        self.target_index = target_index
        self.rounds = frozenset(rounds) if rounds is not None else None
        self._stream_key = stream_key if stream_key is not None else stream.context_key(
            "tampering-member", member.server_name, member.position, mode, target_index
        )
        #: Round → stream blocks drawn so far (a blame rerun draws fresh ones).
        self._draws: Dict[int, int] = {}

    def __getattr__(self, name: str):
        return getattr(self._member, name)

    def _draw_scalar(self, round_number: int) -> int:
        """The round's next draw (advancing its counter)."""
        start = self._draws.get(round_number, 0)
        self._draws[round_number] = start + 1
        (scalar,) = stream.draw_scalars(
            self._member.group, self._stream_key, stream.DERIVED, round_number, start, 1
        )
        return scalar

    def process_round(self, round_number: int, entries: EncodedBatch,
                      input_aggregate) -> MixStepResult:
        result = self._member.process_round(round_number, entries, input_aggregate)
        if self.rounds is not None and round_number not in self.rounds:
            return result
        if result.halted or not result.entries:
            return result
        group = self._member.group
        # Decode the honest output, corrupt it, and hand on what a server
        # really would: the re-encoded batch.
        outputs: List[BatchEntry] = list(result.entries)
        target = self.target_index % len(outputs)
        if self.mode == MODE_TAMPER_CIPHERTEXT:
            corrupted = bytes(outputs[target].ciphertext[:-1]) + bytes(
                [outputs[target].ciphertext[-1] ^ 0x01]
            )
            outputs[target] = BatchEntry(outputs[target].dh_public, corrupted)
        elif self.mode == MODE_BREAK_AGGREGATE:
            outputs[target] = BatchEntry(
                group.base_mult(self._draw_scalar(round_number)), outputs[target].ciphertext
            )
        elif self.mode == MODE_PRESERVE_AGGREGATE:
            other = (target + 1) % len(outputs)
            if other == target:
                return result
            delta = group.base_mult(self._draw_scalar(round_number))
            outputs[target] = BatchEntry(
                group.add(outputs[target].dh_public, delta), outputs[target].ciphertext
            )
            outputs[other] = BatchEntry(
                group.sub(outputs[other].dh_public, delta), outputs[other].ciphertext
            )
        elif self.mode == MODE_DROP_MESSAGE:
            del outputs[target]
        return MixStepResult(
            position=result.position,
            entries=EncodedBatch.from_entries(group, outputs),
            proof=result.proof,
        )


#: Point outside the batch this server received.
LIE_INPUT_INDEX = "input-index"
#: Show an entry other than the one the chain saw this server receive.
LIE_PREIMAGE = "preimage"
#: A blinding-relation proof that does not verify.
LIE_BLINDING_PROOF = "blinding-proof"
#: A decryption-key proof that does not verify.
LIE_KEY_PROOF = "key-proof"
#: Refuse to reveal anything.
LIE_REFUSE = "refuse"

_LIES = (LIE_INPUT_INDEX, LIE_PREIMAGE, LIE_BLINDING_PROOF, LIE_KEY_PROOF, LIE_REFUSE)


class LyingRevealMember:
    """A chain member that mixes honestly and lies in the blame protocol (§6.4).

    Everything but :meth:`blame_reveals` is the wrapped member's.  When the
    walk-back asks this server for its pre-images, the reveal for
    ``output_index`` (every requested entry when ``None``) carries one lie;
    the other entries of the same request are revealed honestly, so one
    flagged batch can hold ciphertexts that convict this server next to
    ciphertexts that go on to convict their submitters.  ``LIE_REFUSE``
    answers no request that includes the entry.  (The fifth way a reveal
    fails — the pre-image does not open to the downstream ciphertext — needs
    no lie: it is what an honest reveal shows after
    :data:`MODE_TAMPER_CIPHERTEXT`.)
    """

    def __init__(self, member, lie: str, output_index: Optional[int] = None) -> None:
        if lie not in _LIES:
            raise ConfigurationError(f"unknown reveal lie {lie!r}")
        self._member = member
        self.lie = lie
        self.output_index = output_index

    def __getattr__(self, name: str):
        return getattr(self._member, name)

    def blame_reveals(self, round_number: int, output_indices: Sequence[int]):
        columns = [
            column for column, index in enumerate(output_indices)
            if self.output_index in (None, index)
        ]
        if columns and self.lie == LIE_REFUSE:
            raise ProtocolError(f"{self._member.server_name} refuses to reveal")
        reveals = self._member.blame_reveals(round_number, output_indices)
        group = self._member.group

        def forged(proofs: List[DleqProof]) -> List[DleqProof]:
            proofs = list(proofs)
            for column in columns:
                proof = proofs[column]
                proofs[column] = dataclasses.replace(
                    proof, response=(proof.response + 1) % group.order
                )
            return proofs

        if self.lie == LIE_INPUT_INDEX:
            outside = len(self._member.round_record(round_number).inputs)
            return dataclasses.replace(reveals, input_indices=[
                outside if column in columns else index
                for column, index in enumerate(reveals.input_indices)
            ])
        if self.lie == LIE_PREIMAGE:
            entries = list(reveals.preimages)
            for column in columns:
                entry = entries[column]
                entries[column] = BatchEntry(
                    entry.dh_public, entry.ciphertext[:-1] + bytes([entry.ciphertext[-1] ^ 0x01])
                )
            return dataclasses.replace(
                reveals, preimages=EncodedBatch.from_entries(group, entries)
            )
        if self.lie == LIE_BLINDING_PROOF:
            return dataclasses.replace(reveals, blinding_proofs=forged(reveals.blinding_proofs))
        return dataclasses.replace(reveals, key_proofs=forged(reveals.key_proofs))


def install_tampering_server(
    deployment,
    chain_id: int,
    position: int,
    mode: str,
    target_index: int = 0,
    stream_key: Optional[bytes] = None,
    rounds: Optional[Iterable[int]] = None,
) -> TamperingMember:
    """Replace one chain position in ``deployment`` with a tampering wrapper."""
    chain = deployment.chain(chain_id)
    if not 0 <= position < len(chain.members):
        raise ConfigurationError("position out of range for this chain")
    wrapper = TamperingMember(
        chain.members[position], mode, target_index, stream_key=stream_key, rounds=rounds
    )
    chain.members[position] = wrapper
    return wrapper


def forge_misauthenticated_submission(
    group,
    chain_keys: ChainKeysView,
    round_number: int,
    sender_name: str,
    fail_at_position: Optional[int] = None,
    stream_key: Optional[bytes] = None,
) -> ClientSubmission:
    """Build a malicious user's submission that fails authentication mid-chain.

    The outer layers for servers ``0 … fail_at_position-1`` are well formed;
    the layer the server at ``fail_at_position`` tries to open is random
    bytes, so its authenticated decryption fails and the blame protocol runs.
    The submission's knowledge-of-discrete-log NIZK is valid (the malicious
    user *does* know her ephemeral secret), which is exactly why the blame
    walk-back is needed to convict her.  ``fail_at_position`` defaults to the
    last server — the paper's worst case (§8.2, "impact of blame protocol").

    The forgery draws from ``stream_key`` — the ephemeral secret, the proof
    nonce, then one block of garbage; an omitted key is derived from
    ``(chain, round, sender, fail position)``.
    """
    from repro.crypto.onion import encrypt_outer_layers

    mixing_publics = list(chain_keys.mixing_publics)
    chain_length = len(mixing_publics)
    if fail_at_position is None:
        fail_at_position = chain_length - 1
    if not 0 <= fail_at_position < chain_length:
        raise ConfigurationError("fail_at_position out of range")
    if stream_key is None:
        stream_key = stream.context_key(
            "forge-misauthenticated", chain_keys.chain_id, round_number, sender_name,
            fail_at_position,
        )
    drawn = stream.draw_blocks(stream_key, stream.DERIVED, round_number, 0, 3)
    ephemeral_secret, nonce = stream.scalars(group, drawn[:2 * stream.BLOCK_SIZE])
    garbage = drawn[2 * stream.BLOCK_SIZE:]
    ciphertext = encrypt_outer_layers(
        group, mixing_publics[:fail_at_position], round_number, garbage, ephemeral_secret
    )
    proof = prove_dlog(
        group,
        group.base(),
        ephemeral_secret,
        submission_context(chain_keys.chain_id, round_number, sender_name),
        nonce=nonce,
    )
    return ClientSubmission(
        chain_id=chain_keys.chain_id,
        sender=sender_name,
        dh_public=group.encode(group.base_mult(ephemeral_secret)),
        ciphertext=ciphertext,
        proof=proof,
    )


def forge_invalid_proof_submission(
    group,
    chain_keys: ChainKeysView,
    round_number: int,
    sender_name: str,
    stream_key: Optional[bytes] = None,
) -> ClientSubmission:
    """A submission whose knowledge-of-discrete-log proof is for the wrong key.

    Such submissions are rejected immediately at intake (§6.4: misbehaviour
    detected without running the blame protocol).  The forgery draws its
    ephemeral secret, the wrong secret, the proof nonce and two blocks of
    ciphertext from ``stream_key``; an omitted key is derived from
    ``(chain, round, sender)``.
    """
    if stream_key is None:
        stream_key = stream.context_key(
            "forge-invalid-proof", chain_keys.chain_id, round_number, sender_name
        )
    drawn = stream.draw_blocks(stream_key, stream.DERIVED, round_number, 0, 5)
    ephemeral_secret, wrong_secret, nonce = stream.scalars(group, drawn[:3 * stream.BLOCK_SIZE])
    proof = prove_dlog(
        group,
        group.base(),
        wrong_secret,
        submission_context(chain_keys.chain_id, round_number, sender_name),
        nonce=nonce,
    )
    return ClientSubmission(
        chain_id=chain_keys.chain_id,
        sender=sender_name,
        dh_public=group.encode(group.base_mult(ephemeral_secret)),
        ciphertext=drawn[3 * stream.BLOCK_SIZE:],
        proof=proof,
    )
