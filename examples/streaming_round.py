#!/usr/bin/env python3
"""Drive a large round through the streaming population pipeline (DESIGN.md §9).

Every round slices its population into chunks of
``repro.population.streaming.CHUNK_USERS`` users and builds, uploads,
delivers and fetches one chunk at a time, so the build's peak memory is
O(chunk) no matter how large the population grows.  The round's observable
outputs do not depend on the chunk size (the engine parity suite proves
it); only the memory/latency profile would.

This example runs one such round end to end, then prints from the round's
trace a line per chunk of the build and fetch stages, the stage timings,
and, on Linux, the process's peak RSS.

Run with::

    python examples/streaming_round.py                 # 5k users, 20 chunks
    python examples/streaming_round.py --users 100000
"""

import argparse
import resource
import sys
import time

from repro import Deployment, DeploymentConfig
from repro.population.streaming import CHUNK_USERS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=5_000)
    args = parser.parse_args()

    num_chunks = -(-args.users // CHUNK_USERS)
    print(
        f"Creating deployment: {args.users:,} users, 4 chains, "
        f"chunk size {CHUNK_USERS:,} ({num_chunks} chunks)"
    )
    deployment = Deployment.create(
        DeploymentConfig(
            num_servers=4,
            num_users=args.users,
            num_chains=4,
            chain_length=2,
            seed=7,
            group_kind="modp",
            use_cover_messages=False,
        )
    )

    started = time.perf_counter()
    print("Running one round...")
    report = deployment.run_round()
    elapsed = time.perf_counter() - started

    assert report.all_chains_delivered()
    print(f"\nRound {report.round_number} delivered on all chains in {elapsed:.1f}s")
    print(f"  submissions mixed : {report.total_submissions:,}")
    spans = report.trace.spans
    origin = min(span.start for span in spans)
    for span in spans:
        if span.part is not None:
            print(
                f"  [{span.end - origin:7.1f}s] {span.stage:<16} chunk "
                f"{span.part + 1:>3}/{num_chunks}  ({span.entries:,} users)"
            )
    for stage in dict.fromkeys(span.stage for span in spans):
        print(f"  {stage:<18}: {report.trace.seconds(stage):.1f}s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = rss if sys.platform == "darwin" else rss * 1024
    print(f"  peak RSS          : {peak / 1e6:,.0f} MB")
    deployment.close()


if __name__ == "__main__":
    main()
