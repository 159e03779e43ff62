"""Tracemalloc probe of one Ed25519 chain round (DESIGN.md §8.1).

One chain of k = 16 members over 16 servers, 2000 users, covers off,
seed 1.  Tracing starts after ``Deployment.create``; one ``run_round``
follows.  Prints the round's traced peak and the memory held at the end
of the precompute and mix stages, in MB (10^6 bytes)::

    PYTHONPATH=src python -m benchmarks.chain_round_memory

Without the native extension the round runs on the python tier and
takes minutes instead of seconds.
"""

from __future__ import annotations

import tracemalloc

from repro import Deployment, DeploymentConfig

STAGES = ("precompute", "mix")


def main() -> None:
    deployment = Deployment.create(DeploymentConfig(
        num_servers=16, num_users=2000, num_chains=1, chain_length=16,
        use_cover_messages=False, seed=1, group_kind="ed25519",
    ))
    engine = deployment.engine
    held = {}

    def marked(stage):
        run = getattr(engine, stage)

        def traced(ctx):
            run(ctx)
            held[stage] = tracemalloc.get_traced_memory()[0]

        return traced

    for stage in STAGES:
        setattr(engine, stage, marked(stage))
    tracemalloc.start()
    with deployment:
        report = deployment.run_round()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert report.all_chains_delivered()
    print(f"round peak: {peak / 1e6:.1f} MB")
    for stage in STAGES:
        print(f"held after {stage}: {held[stage] / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
