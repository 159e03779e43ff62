"""Declarative fault plans: which round, which layer, which behaviour.

A :class:`FaultPlan` is pure data — no deployment handles, no callables — so
the same plan can be executed under every execution backend, scheduler, and
transport, and two runs of the same plan against equally-seeded deployments
are bit-identical.  Faults come in three layers, mirroring where an active
adversary can sit in Figure 1:

* :class:`ServerFault` — a chain member corrupts its mixing step in one of
  the :class:`~repro.coordinator.adversary.TamperingMember` modes;
* :class:`UserFault` — a malicious client submits one of the ``forge_*``
  submissions of :mod:`repro.coordinator.adversary`;
* :class:`~repro.transport.faulty.LinkFault` — the network drops,
  duplicates, delays, or reorders envelopes on selected links.

Round numbers in a plan are scenario-relative (1 is the first round the
runner executes); the runner maps them onto the deployment's absolute round
counter.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.coordinator.adversary import (
    MODE_BREAK_AGGREGATE,
    MODE_DROP_MESSAGE,
    MODE_PRESERVE_AGGREGATE,
    MODE_TAMPER_CIPHERTEXT,
)
from repro.crypto import stream
from repro.errors import ConfigurationError
from repro.transport.faulty import LinkFault

__all__ = ["ServerFault", "UserFault", "FaultPlan", "fault_key"]

_SERVER_MODES = (
    MODE_TAMPER_CIPHERTEXT,
    MODE_BREAK_AGGREGATE,
    MODE_PRESERVE_AGGREGATE,
    MODE_DROP_MESSAGE,
)

#: A malicious user whose outer layers stop authenticating mid-chain — the
#: §8.2 blame experiment; convicted by the blame walk-back and removed.
USER_MISAUTHENTICATED = "misauthenticated"
#: A malicious user whose submission NIZK is invalid — rejected at intake.
USER_INVALID_PROOF = "invalid-proof"

_USER_KINDS = (USER_MISAUTHENTICATED, USER_INVALID_PROOF)


@dataclass(frozen=True)
class ServerFault:
    """One tampering server: chain position, mode, and the round it fires."""

    round_number: int
    chain_id: int
    position: int
    mode: str
    target_index: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _SERVER_MODES:
            raise ConfigurationError(f"unknown server-fault mode {self.mode!r}")
        if self.round_number < 1:
            raise ConfigurationError("server-fault rounds are 1-based")


@dataclass(frozen=True)
class UserFault:
    """One malicious submission: sender name, target chain, forgery kind."""

    round_number: int
    chain_id: int
    sender: str
    kind: str = USER_MISAUTHENTICATED
    #: For misauthenticated forgeries: the first chain position whose layer
    #: fails to open (``None`` → the last server, the paper's worst case).
    fail_at_position: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _USER_KINDS:
            raise ConfigurationError(f"unknown user-fault kind {self.kind!r}")
        if self.round_number < 1:
            raise ConfigurationError("user-fault rounds are 1-based")


def fault_key(seed: int, fault: Union[ServerFault, UserFault]) -> bytes:
    """The stream key every draw of one of a plan's faults comes from.

    A function of the plan seed and the fault's whole identity, so the
    distributed runner's mix roles, told only those, re-derive the key the
    coordinator uses (:mod:`repro.crypto.stream`).
    """
    return stream.context_key(type(fault).__name__, seed, *astuple(fault))


@dataclass(frozen=True)
class FaultPlan:
    """A multi-round adversarial scenario, declaratively.

    ``payloads`` maps scenario round → {user name → conversation payload};
    ``offline`` maps scenario round → user names that fail to show up.
    ``converse_on_chain`` asks the runner to pick (deterministically) a user
    pair whose intersection chain is the given chain and have them exchange
    a payload every round — the standard way to prove a re-formed chain
    still delivers.  ``recover`` makes the runner evict and re-form after
    every segment that produced server convictions; with it off, the
    scenario only observes detection.
    """

    name: str
    num_rounds: int
    server_faults: Tuple[ServerFault, ...] = ()
    user_faults: Tuple[UserFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    conversations: Tuple[Tuple[str, str], ...] = ()
    converse_on_chain: Optional[int] = None
    payloads: Dict[int, Dict[str, bytes]] = field(default_factory=dict)
    offline: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    recover: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.num_rounds < 1:
            raise ConfigurationError("a scenario needs at least one round")
        for fault in self.server_faults + self.user_faults:
            if fault.round_number > self.num_rounds:
                raise ConfigurationError(
                    f"fault at round {fault.round_number} is past the plan's "
                    f"{self.num_rounds} rounds"
                )
        for fault in self.link_faults:
            for round_number in fault.rounds or ():
                if not 1 <= round_number <= self.num_rounds:
                    raise ConfigurationError(
                        f"link fault selects round {round_number}, outside the "
                        f"plan's {self.num_rounds} rounds — it would never fire"
                    )
        for round_number in list(self.payloads) + list(self.offline):
            if not 1 <= round_number <= self.num_rounds:
                raise ConfigurationError(f"round {round_number} is outside the plan")

    # -- segmentation ----------------------------------------------------------

    def blame_rounds(self) -> Tuple[int, ...]:
        """Scenario rounds that can trigger the blame protocol.

        Segment boundaries are derived from the *plan*, never from execution
        results, so every helper count and scheduler sees identical segments —
        the property the parity guarantee rests on.
        """
        rounds = {fault.round_number for fault in self.server_faults}
        rounds.update(fault.round_number for fault in self.user_faults)
        return tuple(sorted(rounds))

    def segments(self) -> Tuple[Tuple[int, int], ...]:
        """Inclusive (start, end) scenario-round ranges between blame rounds.

        Each blame-capable round ends its segment, so recovery (evict +
        re-form) can run between segments; within a segment the scheduler is
        free to pipeline rounds.
        """
        boundaries = [r for r in self.blame_rounds() if r < self.num_rounds]
        segments = []
        start = 1
        for boundary in boundaries:
            segments.append((start, boundary))
            start = boundary + 1
        segments.append((start, self.num_rounds))
        return tuple(segments)
