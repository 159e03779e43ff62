"""Ablation: AHS vs. the baseline shuffle vs. a traditional verifiable shuffle.

The paper's argument for AHS (§6) is that it replaces verifiable shuffles —
whose proofs cost many exponentiations *per message* — with one aggregate
Chaum-Pedersen proof per batch plus cheap per-message blinding.  This bench
measures, on a small batch with the real implementation:

* the baseline Algorithm-1 chain (no protection at all),
* the AHS chain (the paper's design), and
* an estimate of a Neff/Groth-style verifiable shuffle, modelled as ~8
  exponentiations per message per server (a conservative constant).

Expected shape: baseline < AHS << verifiable shuffle, with AHS costing only a
small constant factor over the unprotected baseline.
"""

import time

import pytest

from repro.crypto.group import ModPGroup
from repro.crypto.keys import KeyPair
from repro.crypto.onion import encrypt_onion_baseline
from repro.crypto.stream import stream_key
from repro.mixnet.messages import MailboxMessage, MessageBody
from repro.mixnet.server import BaselineMixChain, BaselineMixServer

from benchmarks.conftest import save_result
from tests.test_ahs_protocol import build_chain, make_submission

GROUP = ModPGroup(bits=96)
BATCH = 24
CHAIN_LENGTH = 3


def _run_baseline_round():
    servers = [
        BaselineMixServer(f"server-{i}", GROUP, stream_key(i)) for i in range(CHAIN_LENGTH)
    ]
    chain = BaselineMixChain(0, servers, GROUP)
    recipient = KeyPair.generate(GROUP)
    onions = [
        encrypt_onion_baseline(
            GROUP,
            chain.mixing_public_keys(),
            1,
            MailboxMessage.seal(recipient.public_bytes, b"\x01" * 32, 1, MessageBody.data(b"x")).to_bytes(),
            stream_key(f"onion-{index}"),
        )
        for index in range(BATCH)
    ]
    return chain.run_round(1, onions)


def _run_ahs_round():
    chain = build_chain(GROUP, length=CHAIN_LENGTH, seed=31)
    chain.begin_round(1)
    recipient = KeyPair.generate(GROUP)
    submissions = [
        make_submission(GROUP, chain, 1, f"user-{i}", recipient.public_bytes, b"\x01" * 32)
        for i in range(BATCH)
    ]
    chain.accept_submissions(1, submissions)
    return chain.run_round(1)


def test_ablation_baseline_chain(benchmark):
    result = benchmark.pedantic(_run_baseline_round, rounds=2, iterations=1)
    assert len(result.mailbox_messages) == BATCH


def test_ablation_ahs_chain(benchmark):
    result = benchmark.pedantic(_run_ahs_round, rounds=2, iterations=1)
    assert result.delivered
    assert len(result.mailbox_messages) == BATCH


@pytest.mark.wallclock
def test_ablation_summary_against_verifiable_shuffle(benchmark):
    """Compare per-message server-side cost: AHS vs. a verifiable-shuffle estimate.

    The server-side cost per message is what the paper's argument is about:
    AHS needs one Diffie-Hellman layer decryption plus one blinding (2
    exponentiations and an AEAD) per message, whereas Neff/Groth-style
    verifiable shuffles need on the order of 8 exponentiations per message
    just for proof generation and verification.  End-to-end round times
    (which also include client work and setup) are reported for context.
    """

    def measure():
        start = time.perf_counter()
        _run_baseline_round()
        baseline_seconds = time.perf_counter() - start
        start = time.perf_counter()
        _run_ahs_round()
        ahs_seconds = time.perf_counter() - start
        # Measure one exponentiation and one AEAD call on this group.
        element = GROUP.base_mult(GROUP.random_scalar())
        scalar = GROUP.random_scalar()
        start = time.perf_counter()
        for _ in range(200):
            GROUP.scalar_mult(element, scalar)
        exp_seconds = (time.perf_counter() - start) / 200
        from repro.crypto.aead import aenc

        start = time.perf_counter()
        for _ in range(200):
            aenc(b"\x01" * 32, 1, b"x" * 304)
        aead_seconds = (time.perf_counter() - start) / 200
        ahs_per_message = 2 * exp_seconds + aead_seconds
        verifiable_per_message = 8 * exp_seconds + aead_seconds
        return baseline_seconds, ahs_seconds, ahs_per_message, verifiable_per_message

    baseline_seconds, ahs_seconds, ahs_per_message, verifiable_per_message = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    save_result(
        "ablation_ahs",
        "\n".join(
            [
                f"Ablation (batch={BATCH}, chain length={CHAIN_LENGTH}, modp test group):",
                f"  baseline round (no protection):      {baseline_seconds * 1e3:8.1f} ms",
                f"  AHS round (full protection):         {ahs_seconds * 1e3:8.1f} ms",
                f"  per-message server cost, AHS:        {ahs_per_message * 1e6:8.1f} us",
                f"  per-message server cost, verifiable: {verifiable_per_message * 1e6:8.1f} us (estimate)",
            ]
        ),
    )
    assert ahs_per_message < verifiable_per_message
    # Full AHS protection costs only a small constant factor over no protection.
    assert ahs_seconds < 5 * baseline_seconds
