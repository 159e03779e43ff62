#!/usr/bin/env python3
"""Quickstart: a tiny XRD deployment exchanging one round of private messages.

This example builds a four-server network with three anytrust mix chains,
registers eight users, starts a conversation between Alice and Bob, and runs
two full communication rounds — exercising chain selection, loopback and
conversation messages, the aggregate hybrid shuffle, mailbox delivery, and
client-side decryption.

Run with::

    python examples/quickstart.py [--curve]

The default uses the small modular test group so the example finishes in a
fraction of a second; ``--curve`` switches to the real edwards25519 group.
"""

import argparse
import time

from repro import Deployment, DeploymentConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--curve",
        action="store_true",
        help="use the real edwards25519 group instead of the fast test group",
    )
    args = parser.parse_args()

    config = DeploymentConfig(
        num_servers=4,
        num_users=8,
        num_chains=3,
        chain_length=2,
        seed=2024,
        group_kind="ed25519" if args.curve else "modp",
    )
    print(f"Creating deployment: {config.num_servers} servers, "
          f"{config.resolved_num_chains()} chains of length {config.resolved_chain_length()}, "
          f"{config.num_users} users ({config.group_kind} group)")
    started = time.perf_counter()
    deployment = Deployment.create(config)
    print(f"  ... chains formed and key ceremonies completed in "
          f"{time.perf_counter() - started:.2f}s")
    print(f"  each user sends to ell = {deployment.ell()} chains per round")
    for topology in deployment.topologies:
        print(f"  chain {topology.chain_id}: {' -> '.join(topology.servers)}")

    alice = deployment.users[0].name
    bob = deployment.users[1].name
    deployment.start_conversation(alice, bob)
    print(f"\n{alice} and {bob} agreed (out of band) to start talking; their "
          f"intersection chain is {deployment.user(alice).conversation.chain_id}")

    print("\n--- round 1 ---")
    report = deployment.run_round(
        payloads={alice: b"hey bob, meet at the crossroads", bob: b"on my way"}
    )
    for name in (alice, bob):
        for message in report.delivered[name]:
            if message.kind == "conversation":
                print(f"  {name} received from {message.partner_name}: {message.content.decode()}")
    print(f"  every user received exactly {deployment.ell()} messages: "
          f"{sorted(set(report.mailbox_counts.values())) == [deployment.ell()]}")

    print("\n--- round 2 (idle users are indistinguishable) ---")
    report = deployment.run_round(payloads={alice: b"same time tomorrow?", bob: b"yes"})
    idle_user = deployment.users[5].name
    kinds = sorted({message.kind for message in report.delivered[idle_user]})
    print(f"  idle user {idle_user} still sends/receives {deployment.ell()} messages "
          f"(kinds seen by her: {kinds})")
    print(f"  {bob} received: {report.conversation_payloads(bob)}")
    print("\nDone.")


if __name__ == "__main__":
    main()
