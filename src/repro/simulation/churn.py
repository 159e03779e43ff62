"""Server-churn availability model (Figure 8, §8.3).

A conversation fails in a round if the chain the two partners intersect on
contains at least one server that went offline mid-round.  Two estimators are
provided: the closed-form ``1 − (1 − churn)^k`` (every chain has ``k``
servers, each failing independently) and a Monte-Carlo simulation that uses
the library's real chain-formation and chain-selection code, so correlations
introduced by servers appearing in many chains are captured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.client.chain_selection import intersection_chain
from repro.constants import CHAIN_SECURITY_BITS, DEFAULT_MALICIOUS_FRACTION
from repro.crypto.randomness import PublicRandomnessBeacon
from repro.errors import SimulationError
from repro.mixnet.chain import form_chains, required_chain_length

__all__ = ["analytic_failure_rate", "simulate_failure_rate", "ChurnSimulationResult"]


def analytic_failure_rate(
    churn_rate: float,
    chain_length: int,
) -> float:
    """Probability that a chain of ``chain_length`` servers contains a failed server."""
    if not 0.0 <= churn_rate <= 1.0:
        raise SimulationError("churn rate must be in [0, 1]")
    if chain_length < 1:
        raise SimulationError("chain length must be positive")
    return 1.0 - (1.0 - churn_rate) ** chain_length


@dataclass
class ChurnSimulationResult:
    """Outcome of a Monte-Carlo churn simulation."""

    num_servers: int
    num_chains: int
    chain_length: int
    churn_rate: float
    trials: int
    conversations_per_trial: int
    failure_rate: float
    analytic_rate: float


def _synthetic_public_key(index: int) -> bytes:
    """A deterministic stand-in public key for chain-selection sampling."""
    return hashlib.sha256(b"churn-user-%d" % index).digest()


def simulate_failure_rate(
    num_servers: int,
    churn_rate: float,
    num_chains: Optional[int] = None,
    malicious_fraction: float = DEFAULT_MALICIOUS_FRACTION,
    security_bits: int = CHAIN_SECURITY_BITS,
    conversations_per_trial: int = 500,
    trials: int = 20,
    seed: int = 0,
) -> ChurnSimulationResult:
    """Monte-Carlo conversation failure rate under server churn.

    Each trial samples the set of failed servers, then checks for a sample of
    conversation pairs (placed into chains with the real chain-selection
    algorithm) whether their intersection chain contains a failed server.
    """
    if num_servers < 1:
        raise SimulationError("need at least one server")
    num_chains = num_chains if num_chains is not None else num_servers
    chain_length = min(
        required_chain_length(malicious_fraction, num_chains, security_bits), num_servers
    )
    server_names = [f"server-{index}" for index in range(num_servers)]
    beacon = PublicRandomnessBeacon(seed=b"churn-simulation-%d" % seed)
    topologies = form_chains(server_names, num_chains, chain_length, beacon=beacon)
    # The trials' draws are public model inputs, like the chains themselves.
    sampler = beacon.rng_for_epoch(0, "churn-trials")

    failures = 0
    total = 0
    for _ in range(trials):
        failed_servers = {name for name in server_names if sampler.random() < churn_rate}
        failed_chains = {
            topology.chain_id
            for topology in topologies
            if any(server in failed_servers for server in topology.servers)
        }
        for _pair_index in range(conversations_per_trial):
            key_a = _synthetic_public_key(sampler.randrange(1 << 30))
            key_b = _synthetic_public_key(sampler.randrange(1 << 30))
            chain_id = intersection_chain(key_a, key_b, num_chains)
            total += 1
            if chain_id in failed_chains:
                failures += 1

    return ChurnSimulationResult(
        num_servers=num_servers,
        num_chains=num_chains,
        chain_length=chain_length,
        churn_rate=churn_rate,
        trials=trials,
        conversations_per_trial=conversations_per_trial,
        failure_rate=failures / total if total else 0.0,
        analytic_rate=analytic_failure_rate(churn_rate, chain_length),
    )
