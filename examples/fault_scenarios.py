#!/usr/bin/env python3
"""The fault-injection scenario engine: detect, blame, evict, re-form, resume.

`examples/active_attack.py` shows single-round detection; this example runs
the full multi-round recovery story the paper assumes after a blame verdict
(§6.4), plus a network-layer fault no server or user caused:

1. ``tamper-and-recover`` — a server corrupts a ciphertext at round 2; the
   blame protocol convicts it, the coordinator evicts it and re-forms the
   chain from the remaining pool, and the conversation riding that chain
   resumes in round 3.
2. ``misauthenticating-user`` — §8.2's blame experiment: the user is
   convicted by the walk-back, her submission removed, the round delivers.
3. ``flaky-uplink`` — one user's submissions are lost on the wire for one
   round; everyone else is untouched.

Every canned scenario lives in ``repro.faults.scenarios.CANNED_SCENARIOS``
and runs bit-identically under any execution backend and scheduler.

Run with::

    python examples/fault_scenarios.py
"""

from repro import Deployment, DeploymentConfig
from repro.faults import ScenarioRunner
from repro.faults.scenarios import (
    flaky_uplink,
    misauthenticating_user,
    tamper_and_recover,
)


def fresh_deployment(seed: int) -> Deployment:
    return Deployment.create(
        DeploymentConfig(
            num_servers=4,
            num_users=6,
            num_chains=3,
            chain_length=3,
            seed=seed,
            group_kind="modp",
        )
    )


def scenario_tamper_and_recover() -> None:
    print("=== Scenario 1: tamper at round 2 → blame → evict → re-form → resume ===")
    deployment = fresh_deployment(seed=201)
    report = ScenarioRunner(deployment, tamper_and_recover(), staggered=True).run()
    fault_round = report.outcome_for(2)
    print(f"  round 2 chain 0: {fault_round.statuses[0]}")
    print(f"  verdict:        {fault_round.verdicts[0].summary()}")
    for action in report.recoveries:
        print(
            f"  recovery:       evicted {action.evicted}, chain {action.chain_id} "
            f"re-formed as {action.new_servers}"
        )
    for round_number in (3, 4):
        outcome = report.outcome_for(round_number)
        print(
            f"  round {round_number}: all chains delivered = {outcome.all_delivered}, "
            f"{outcome.delivered_messages} messages"
        )
    deployment.close()
    print()


def scenario_malicious_user() -> None:
    print("=== Scenario 2: misauthenticating user convicted by the walk-back ===")
    deployment = fresh_deployment(seed=202)
    report = ScenarioRunner(deployment, misauthenticating_user()).run()
    outcome = report.outcome_for(2)
    print(f"  convicted users: {report.convicted_users()}")
    print(f"  round still delivered after removing her: {outcome.all_delivered}")
    print(f"  servers evicted: {report.evicted_servers or 'none'}")
    deployment.close()
    print()


def scenario_flaky_uplink() -> None:
    print("=== Scenario 3: a user's uploads are lost on the wire for one round ===")
    deployment = fresh_deployment(seed=203)
    report = ScenarioRunner(deployment, flaky_uplink(user_name="user-0")).run()
    for round_number in (1, 2, 3):
        counts = report.outcome_for(round_number).report.mailbox_counts
        print(f"  round {round_number}: user-0 received {counts['user-0']} messages")
    print("  (round 2's uploads were dropped by the faulty transport; "
          "the loss is round-scoped)")
    deployment.close()


def main() -> None:
    scenario_tamper_and_recover()
    scenario_malicious_user()
    scenario_flaky_uplink()
    print("\nAll faults detected, attributed, and survived.")


if __name__ == "__main__":
    main()
