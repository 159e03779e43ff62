"""Canned fault scenarios (the plans the README lists).

Each factory returns a :class:`~repro.faults.plan.FaultPlan` sized for the
small deterministic test deployments (a handful of servers, 3 chains); all
parameters can be overridden.  :data:`CANNED_SCENARIOS` maps scenario names
to their factories so tools can enumerate them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.coordinator.adversary import (
    MODE_BREAK_AGGREGATE,
    MODE_TAMPER_CIPHERTEXT,
)
from repro.faults.plan import (
    USER_INVALID_PROOF,
    USER_MISAUTHENTICATED,
    FaultPlan,
    ServerFault,
    UserFault,
)
from repro.transport.faulty import DELAY, DROP, DUPLICATE, REORDER, LinkFault
from repro.transport import envelope as ev

__all__ = [
    "tamper_and_recover",
    "aggregate_attack_and_recover",
    "misauthenticating_user",
    "invalid_proof_user",
    "flaky_uplink",
    "lossy_mailbox_fetch",
    "duplicated_chain_batch",
    "delayed_chain_batch",
    "reordered_mailbox_delivery",
    "CANNED_SCENARIOS",
]


def tamper_and_recover(
    fault_round: int = 2,
    chain_id: int = 0,
    position: int = 0,
    num_rounds: int = 4,
    seed: int = 0,
) -> FaultPlan:
    """The acceptance scenario: tampered ciphertext at round r, then recovery.

    A server at ``position`` corrupts one ciphertext in round ``fault_round``
    (:data:`MODE_TAMPER_CIPHERTEXT`): the next honest server's authenticated
    decryption fails, the blame protocol convicts the tamperer, the
    coordinator evicts it and re-forms the chain, and rounds
    ``fault_round + 1 …`` deliver correctly — including a conversation
    riding the re-formed chain.
    """
    return FaultPlan(
        name="tamper-and-recover",
        num_rounds=num_rounds,
        server_faults=(
            ServerFault(
                round_number=fault_round,
                chain_id=chain_id,
                position=position,
                mode=MODE_TAMPER_CIPHERTEXT,
            ),
        ),
        converse_on_chain=chain_id,
        seed=seed,
    )


def aggregate_attack_and_recover(
    fault_round: int = 2,
    chain_id: int = 0,
    position: int = 0,
    num_rounds: int = 4,
    seed: int = 0,
) -> FaultPlan:
    """A broken aggregate proof: detected immediately, evicted, re-formed."""
    return FaultPlan(
        name="aggregate-attack-and-recover",
        num_rounds=num_rounds,
        server_faults=(
            ServerFault(
                round_number=fault_round,
                chain_id=chain_id,
                position=position,
                mode=MODE_BREAK_AGGREGATE,
            ),
        ),
        converse_on_chain=chain_id,
        seed=seed,
    )


def misauthenticating_user(
    fault_round: int = 2,
    chain_id: int = 0,
    num_rounds: int = 3,
    fail_at_position: Optional[int] = None,
    seed: int = 0,
) -> FaultPlan:
    """§8.2's blame experiment: a malicious user convicted by the walk-back.

    The round still delivers (her ciphertext is removed and mixing re-runs),
    no server is evicted, and honest traffic is unaffected.
    """
    return FaultPlan(
        name="misauthenticating-user",
        num_rounds=num_rounds,
        user_faults=(
            UserFault(
                round_number=fault_round,
                chain_id=chain_id,
                sender="mallory",
                kind=USER_MISAUTHENTICATED,
                fail_at_position=fail_at_position,
            ),
        ),
        converse_on_chain=chain_id,
        seed=seed,
    )


def invalid_proof_user(
    fault_round: int = 1, chain_id: int = 0, num_rounds: int = 2, seed: int = 0
) -> FaultPlan:
    """A submission with an invalid NIZK: rejected at intake, no blame run."""
    return FaultPlan(
        name="invalid-proof-user",
        num_rounds=num_rounds,
        user_faults=(
            UserFault(
                round_number=fault_round,
                chain_id=chain_id,
                sender="mallory",
                kind=USER_INVALID_PROOF,
            ),
        ),
        seed=seed,
    )


def flaky_uplink(
    user_name: str = "user-0", fault_round: int = 2, num_rounds: int = 3, seed: int = 0
) -> FaultPlan:
    """One user's submissions are lost on the uplink for one round.

    The drop names her as the ``source``, so it removes her elements from
    the population's ``SUBMISSION_BATCH`` frames and nobody else's.
    """
    return FaultPlan(
        name="flaky-uplink",
        num_rounds=num_rounds,
        link_faults=(
            LinkFault(
                behaviour=DROP,
                kind=ev.SUBMISSION_BATCH,
                source=user_name,
                rounds=frozenset({fault_round}),
            ),
        ),
        seed=seed,
    )


def lossy_mailbox_fetch(
    user_name: str = "user-0", fault_round: int = 1, num_rounds: int = 2, seed: int = 0
) -> FaultPlan:
    """A user's mailbox download is lost: she sees an empty round.

    The drop names her as the ``destination``; the scenario runner resolves
    the name to her mailbox address, whose pair it removes from the
    ``MAILBOX_FETCH_BATCH`` frames.
    """
    return FaultPlan(
        name="lossy-mailbox-fetch",
        num_rounds=num_rounds,
        link_faults=(
            LinkFault(
                behaviour=DROP,
                kind=ev.MAILBOX_FETCH_BATCH,
                destination=user_name,
                rounds=frozenset({fault_round}),
            ),
        ),
        seed=seed,
    )


def duplicated_chain_batch(
    chain_id: int = 0, fault_round: int = 1, num_rounds: int = 2, seed: int = 0
) -> FaultPlan:
    """A server→server batch is replayed with one duplicated entry."""
    return FaultPlan(
        name="duplicated-chain-batch",
        num_rounds=num_rounds,
        link_faults=(
            LinkFault(
                behaviour=DUPLICATE,
                kind=ev.BATCH,
                chain_id=chain_id,
                rounds=frozenset({fault_round}),
            ),
        ),
        seed=seed,
    )


def delayed_chain_batch(
    chain_id: int = 0,
    fault_round: int = 1,
    num_rounds: int = 2,
    delay_seconds: float = 0.25,
    seed: int = 0,
) -> FaultPlan:
    """A chain's batch hand-offs stall: payloads intact, latency charged."""
    return FaultPlan(
        name="delayed-chain-batch",
        num_rounds=num_rounds,
        link_faults=(
            LinkFault(
                behaviour=DELAY,
                kind=ev.BATCH,
                chain_id=chain_id,
                rounds=frozenset({fault_round}),
                delay_seconds=delay_seconds,
            ),
        ),
        seed=seed,
    )


def reordered_mailbox_delivery(
    chain_id: int = 0, fault_round: int = 1, num_rounds: int = 2, seed: int = 0
) -> FaultPlan:
    """A chain's mailbox delivery arrives permuted (delivery is order-free)."""
    return FaultPlan(
        name="reordered-mailbox-delivery",
        num_rounds=num_rounds,
        link_faults=(
            LinkFault(
                behaviour=REORDER,
                kind=ev.MAILBOX_DELIVERY,
                chain_id=chain_id,
                rounds=frozenset({fault_round}),
                seed=seed,
            ),
        ),
        seed=seed,
    )


#: Name → factory for every canned scenario.
CANNED_SCENARIOS: Dict[str, Callable[..., FaultPlan]] = {
    "tamper-and-recover": tamper_and_recover,
    "aggregate-attack-and-recover": aggregate_attack_and_recover,
    "misauthenticating-user": misauthenticating_user,
    "invalid-proof-user": invalid_proof_user,
    "flaky-uplink": flaky_uplink,
    "lossy-mailbox-fetch": lossy_mailbox_fetch,
    "duplicated-chain-batch": duplicated_chain_batch,
    "delayed-chain-batch": delayed_chain_batch,
    "reordered-mailbox-delivery": reordered_mailbox_delivery,
}
