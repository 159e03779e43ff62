"""Baseline mix server (Algorithm 1) — the §5 design without AHS.

This is the decrypt-and-shuffle server of the base XRD design: it protects
against honest-but-curious adversaries but offers no protection against
active tampering (that is what the aggregate hybrid shuffle in
:mod:`repro.mixnet.ahs` adds).  It is retained both as a faithful
reproduction of §5 and as the "no verification" arm of the ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import stream
from repro.crypto.onion import decrypt_baseline_layer
from repro.errors import ProtocolError
from repro.mixnet.messages import MailboxMessage

__all__ = ["BaselineMixServer", "BaselineMixChain", "BaselineRoundResult"]


class BaselineMixServer:
    """A single mix server with an independent mixing key pair (Algorithm 1).

    Its mixing secret and every round's shuffle are draws of ``stream_key``
    (:mod:`repro.crypto.stream`, labelled as a chain member's are); a
    fresh key when none is given.
    """

    def __init__(self, server_name: str, group, stream_key: Optional[bytes] = None) -> None:
        self.server_name = server_name
        self.group = group
        self._stream_key = stream_key if stream_key is not None else stream.stream_key()
        (self.mixing_secret,) = stream.draw_scalars(
            group, self._stream_key, stream.MEMBER_KEYS, 0, 0, 1
        )
        self.mixing_public = group.base_mult(self.mixing_secret)
        #: Round → stream blocks its shuffles have drawn.
        self._draws: Dict[int, int] = {}

    def process(self, round_number: int, ciphertexts: Sequence[bytes]) -> Tuple[List[bytes], List[int]]:
        """Decrypt one onion layer from each ciphertext and shuffle the results.

        Returns the shuffled next-layer ciphertexts and the indices of inputs
        whose decryption failed (which the baseline design simply drops —
        precisely the behaviour the paper shows is exploitable, see
        ``tests/test_baseline_attack.py``).
        """
        decrypted: List[bytes] = []
        failed: List[int] = []
        for index, ciphertext in enumerate(ciphertexts):
            ok, plaintext = decrypt_baseline_layer(
                self.group, self.mixing_secret, round_number, ciphertext
            )
            if not ok or plaintext is None:
                failed.append(index)
                continue
            decrypted.append(plaintext)
        count = stream.shuffle_blocks(len(decrypted))
        start = self._draws.get(round_number, 0)
        self._draws[round_number] = start + count
        order = stream.permutation(
            stream.draw_blocks(self._stream_key, stream.MEMBER_ROUND, round_number, start, count),
            len(decrypted),
        )
        return [decrypted[index] for index in order], failed


@dataclass
class BaselineRoundResult:
    """Outcome of one round on a baseline (non-AHS) chain."""

    chain_id: int
    round_number: int
    mailbox_messages: List[MailboxMessage] = field(default_factory=list)
    dropped: int = 0
    malformed: int = 0


class BaselineMixChain:
    """A chain of :class:`BaselineMixServer` instances (the §5 base design)."""

    def __init__(self, chain_id: int, servers: Sequence[BaselineMixServer], group) -> None:
        if not servers:
            raise ProtocolError("a chain needs at least one server")
        self.chain_id = chain_id
        self.servers = list(servers)
        self.group = group

    def __len__(self) -> int:
        return len(self.servers)

    def mixing_public_keys(self) -> List[object]:
        """Public mixing keys in chain order, for users to onion-encrypt with."""
        return [server.mixing_public for server in self.servers]

    def run_round(self, round_number: int, ciphertexts: Sequence[bytes]) -> BaselineRoundResult:
        """Run Algorithm 1 over the submitted onions and parse the final plaintexts."""
        current = list(ciphertexts)
        dropped = 0
        for server in self.servers:
            current, failed = server.process(round_number, current)
            dropped += len(failed)
        messages: List[MailboxMessage] = []
        malformed = 0
        for plaintext in current:
            try:
                messages.append(MailboxMessage.from_bytes(plaintext))
            except Exception:
                malformed += 1
        return BaselineRoundResult(
            chain_id=self.chain_id,
            round_number=round_number,
            mailbox_messages=messages,
            dropped=dropped,
            malformed=malformed,
        )
