"""End-to-end round benchmarks of the real implementation (micro-scale).

These complement the figure benchmarks: instead of the calibrated cost model
they time the actual protocol code — a full deployment round on the fast test
group and a single-chain round on the real curve — so regressions in the
implementation itself show up here.
"""

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.crypto.group import Ed25519Group
from repro.crypto.keys import KeyPair

from tests.test_ahs_protocol import build_chain, make_submission


def test_full_round_modp_deployment(benchmark):
    """4 servers, 3 chains, 10 users, cover messages on (fast test group)."""

    def run():
        config = DeploymentConfig(
            num_servers=4, num_users=10, num_chains=3, chain_length=2, seed=1, group_kind="modp"
        )
        with Deployment.create(config) as deployment:
            alice, bob = deployment.users[0].name, deployment.users[1].name
            deployment.start_conversation(alice, bob)
            return deployment.run_round(payloads={alice: b"hi", bob: b"hi"})

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.all_chains_delivered()


def test_single_chain_round_ed25519(benchmark):
    """One chain of 3 servers shuffling 6 messages on the real curve."""
    group = Ed25519Group()

    def run():
        chain = build_chain(group, length=3, seed=5)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        submissions = [
            make_submission(group, chain, 1, f"user-{i}", recipient.public_bytes, b"\x02" * 32)
            for i in range(6)
        ]
        chain.accept_submissions(1, submissions)
        return chain.run_round(1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.delivered
    assert len(result.mailbox_messages) == 6

