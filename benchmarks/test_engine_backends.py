"""Round-engine execution: production (thread pool) vs. the serial reference
(the pool with no helper thread), each sequential and staggered.

Times the *real* protocol stack (on the fast test group, so batches are
non-trivial without taking minutes) under each execution strategy, verifies
the strategies deliver bit-identical reports, and records the measured
round throughputs.  The Python between native calls still serialises on
the GIL and CI machines may expose a single core, so the benchmark's job
is to exercise the engine's concurrency paths and catch regressions in
their overheads, not to demonstrate multicore scaling (see DESIGN.md
§2.2).
"""

import time

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.engine import ParallelBackend

from benchmarks.conftest import save_result

ROUNDS = 4


def make_deployment(serial=False):
    config = DeploymentConfig(
        num_servers=6,
        num_users=12,
        num_chains=4,
        chain_length=2,
        seed=77,
        group_kind="modp",
    )
    deployment = Deployment.create(config)
    if serial:
        deployment.use_backend(ParallelBackend(helpers=0))
    return deployment


def script(deployment):
    a, b = deployment.users[0].name, deployment.users[1].name
    deployment.start_conversation(a, b)
    return [
        deployment.round_spec(payloads={a: b"m%d" % index, b: b"r%d" % index})
        for index in range(ROUNDS)
    ]


def run_mode(mode):
    deployment = make_deployment(serial=mode.endswith("serial"))
    specs = script(deployment)
    start = time.perf_counter()
    reports = deployment.run_rounds(specs, staggered=mode.startswith("staggered"))
    elapsed = time.perf_counter() - start
    deployment.close()
    return reports, elapsed


def test_engine_backends(benchmark):
    timings = {}
    fingerprints = {}
    for mode in ("serial", "production", "staggered+serial", "staggered+production"):
        reports, elapsed = run_mode(mode)
        assert all(report.all_chains_delivered() for report in reports)
        timings[mode] = elapsed
        fingerprints[mode] = [report.canonical_bytes() for report in reports]

    # All strategies are observationally identical under the fixed seed.
    assert len(set(map(tuple, fingerprints.values()))) == 1

    benchmark.pedantic(lambda: run_mode("staggered+production"), rounds=1, iterations=1)

    lines = ["Round-engine backends (%d rounds, 4 chains, 12 users, modp group):" % ROUNDS]
    for mode, elapsed in timings.items():
        lines.append(
            f"  {mode:20s} {elapsed:6.2f} s total, {ROUNDS / elapsed:6.2f} rounds/s"
        )
    lines.append("  (all four strategies byte-identical under seed 77)")
    save_result("engine_backends", "\n".join(lines))
