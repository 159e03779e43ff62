"""AHS precompute companion (ISSUE 5): the measured online-phase latency drop.

Figures 4 and 5 price XRD's *online* critical path — what a round costs
between the batch closing and the mailboxes filling.  The precompute stage
(§5.2.1 / DESIGN.md §8) moves the chains' public-key work (DH blinding,
outer-layer key derivation) off that path: it runs ahead of the round — and
under the staggered scheduler, hidden behind the previous round's mixing —
so the online mix phase is left with symmetric crypto plus the aggregate
proofs.

This module measures exactly that claim on the real stack:
``report.trace.seconds("mix")`` (the online phase) with precomputation
enabled must be measurably below the online-only reference path at equal
configuration, and the win is regression-gated via
``benchmarks/baselines/baseline.json``.

What tier-1 holds is the mechanism, which repeats exactly: the stage ran
and every online entry was served from its tables, sequential or
staggered.  The speedup floor and the stagger-overlap bound are ratios of
two wall clocks on a shared box, so they carry the ``wallclock`` marker,
which tier-1 deselects and the ``benchmarks`` CI job selects.
"""

from __future__ import annotations

import statistics

import pytest

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.mixnet.ahs import ChainMember

from benchmarks.conftest import online_only, save_result

#: Floor for the measured online-phase speedup.  The modp reference box
#: measures ~2x (the blinding + shared-secret passes are roughly half the
#: online public-key work; NIZK intake verification and the aggregate
#: proofs remain online); the gate sits far enough below to absorb CI noise
#: while still failing loudly if the precompute stage stops feeding the
#: online path.
MIN_SPEEDUP = 1.15


def measure_phases(
    precompute: bool, num_users: int = 600, rounds: int = 2, staggered: bool = False
):
    """Mean per-round phase timings for a deployment with/without precompute."""
    deployment = Deployment.create(
        DeploymentConfig(
            num_servers=4,
            num_users=num_users,
            num_chains=4,
            chain_length=2,
            seed=7,
            group_kind="modp",
            use_cover_messages=False,
        )
    )
    if not precompute:
        online_only(deployment)
    reports = deployment.run_rounds(
        [deployment.round_spec() for _ in range(rounds)], staggered=staggered
    )
    deployment.close()
    assert all(report.all_chains_delivered() for report in reports)
    return {
        "online": statistics.mean(r.trace.seconds("mix") for r in reports),
        "precompute": statistics.mean(r.trace.seconds("precompute") for r in reports),
    }


@pytest.mark.parametrize("staggered", (False, True), ids=("sequential", "staggered"))
def test_precompute_serves_every_online_entry(monkeypatch, staggered):
    """The mechanism behind the drop, without a clock: with the stage on, no
    member's online pass computes a key its table did not already hold —
    including when the stage ran in the stagger's overlap window — and in
    the online-only arm every pass does."""
    served = []
    online_pass = ChainMember.process_round

    def watched(member, round_number, entries):
        table = member.round_record(round_number).precomputed
        held = len(table)
        result = online_pass(member, round_number, entries)
        served.append(len(table) == held)
        return result

    monkeypatch.setattr(ChainMember, "process_round", watched)
    with_precompute = measure_phases(precompute=True, num_users=60, staggered=staggered)
    assert with_precompute["precompute"] > 0.0
    assert served and all(served)
    del served[:]
    reference = measure_phases(precompute=False, num_users=60, staggered=staggered)
    assert reference["precompute"] == 0.0
    assert served and not any(served)


@pytest.mark.wallclock
def test_precompute_online_phase_drop(benchmark):
    """The acceptance measurement: online mix phase, precompute vs. reference."""

    def compare():
        return measure_phases(precompute=True), measure_phases(precompute=False)

    with_precompute, reference = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = reference["online"] / with_precompute["online"]
    save_result(
        "precompute_online_phase",
        "Online mix phase, 600 users (modp, 4 chains of length 2):\n"
        f"  online-only reference : {reference['online'] * 1e3:8.1f} ms/round\n"
        f"  with precompute stage : {with_precompute['online'] * 1e3:8.1f} ms/round "
        f"(+{with_precompute['precompute'] * 1e3:.1f} ms precomputed off-path)\n"
        f"  online-phase speedup  : {speedup:.2f}x",
    )
    # The precompute deployment really did run the stage, and the online
    # phase got measurably faster — the ISSUE 5 acceptance criterion.
    assert with_precompute["precompute"] > 0.0
    assert speedup > MIN_SPEEDUP


@pytest.mark.wallclock
def test_precompute_hides_behind_stagger(benchmark):
    """Under the staggered scheduler the precompute runs in the overlap
    window (while the previous round mixes), so enabling it must not grow
    the end-to-end schedule by anything like the precompute's own cost."""

    def run(precompute: bool) -> float:
        import time

        deployment = Deployment.create(
            DeploymentConfig(
                num_servers=4,
                num_users=300,
                num_chains=4,
                chain_length=2,
                seed=11,
                group_kind="modp",
                use_cover_messages=False,
            )
        )
        if not precompute:
            online_only(deployment)
        specs = [deployment.round_spec() for _ in range(3)]
        started = time.perf_counter()
        reports = deployment.run_rounds(specs, staggered=True)
        elapsed = time.perf_counter() - started
        deployment.close()
        assert all(report.all_chains_delivered() for report in reports)
        # Every staggered round served its online phase from the tables.
        if precompute:
            assert all(r.trace.seconds("precompute") > 0.0 for r in reports)
        return elapsed

    def compare():
        run(True)  # warm the process-wide caches so neither side pays cold-start
        run(False)
        return run(True), run(False)

    with_precompute, reference = benchmark.pedantic(compare, rounds=1, iterations=1)
    save_result(
        "precompute_stagger_overlap",
        "Three staggered rounds, 300 users: "
        f"precompute {with_precompute:.2f}s vs online-only {reference:.2f}s "
        "(public-key work hidden in the overlap window)",
    )
    # Moving work off the online path must not balloon the pipelined wall
    # clock (in this single-process build the overlap is concurrency under
    # the GIL, so ~parity is the expectation, not a wall-clock win);
    # generous bound because both runs share one noisy CI box.
    assert with_precompute < reference * 1.5
