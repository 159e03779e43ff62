#!/usr/bin/env python3
"""A real distributed XRD round: one OS process per role, over TCP.

Everything else in ``examples/`` runs inside one interpreter; this example
launches the process-per-role runtime (DESIGN.md §10): two mix-server
processes and a mailbox process bind localhost TCP listeners, then a
coordinator process drives the tamper/blame/recovery acceptance scenario
across them — submissions, chain outcomes, and mailbox fetches all cross
real sockets as length-prefixed frames.  This runtime is the repo's one
multi-process deployment: inside one interpreter, chains run on a thread
pool, never in forked workers.

The punchline is parity: the distributed run's per-round fingerprints and
scenario digest are compared against an ordinary in-process run of the
same plan, and they match bit for bit.  The sockets are unobservable.

Run with::

    python examples/distributed_round.py [--report report.json]

which is exactly equivalent to the launch CLI's all-in-one mode::

    python -m repro.runner --role all --config config.json --spec plan.json
"""

import argparse
import json
import sys

from repro import Deployment, DeploymentConfig
from repro.faults import ScenarioRunner
from repro.faults.scenarios import tamper_and_recover
from repro.registry import TransportKind
from repro.runner import protocol
from repro.runner.harness import run_localhost


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", default=None, help="also write the scenario summary JSON here"
    )
    args = parser.parse_args()

    # The typed config surface: an enum knob, not a string.
    config = DeploymentConfig(
        num_servers=4,
        num_users=6,
        num_chains=3,
        chain_length=2,
        seed=42,
        group_kind="modp",
        transport=TransportKind.INPROC,  # what each replica uses internally
    )
    plan = tamper_and_recover()  # tamper at round 2 → blame → evict → re-form

    print("=== In-process reference run ===")
    deployment = Deployment.create(config)
    try:
        reference = protocol.scenario_summary(ScenarioRunner(deployment, plan).run())
    finally:
        deployment.close()
    for entry in reference["rounds"]:
        print(f"  round {entry['round']}: {entry['statuses']}  "
              f"fingerprint {entry['fingerprint'][:16]}…")

    print("=== Distributed run: coordinator + 2 mix roles + 1 mailbox role ===")
    summary = run_localhost(config, plan, num_mix=2, keep_report=args.report)
    for entry in summary["rounds"]:
        print(f"  round {entry['round']}: {entry['statuses']}  "
              f"fingerprint {entry['fingerprint'][:16]}…")
    for action in summary["recoveries"]:
        print(f"  recovery after round {action['round']}: chain {action['chain']} "
              f"evicted {action['evicted']} → re-formed with {action['new_servers']}")

    if summary == reference:
        print(f"PARITY: scenario digest {summary['canonical'][:16]}… matches "
              "the in-process reference bit for bit")
        return 0
    print("MISMATCH between the distributed run and the in-process reference:")
    print(json.dumps({"reference": reference, "distributed": summary}, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
