"""Figure 4: end-to-end latency vs. number of users with 100 servers.

Paper reference points (100 servers, f = 0.2): XRD 128 s @ 1M, 251 s @ 2M,
508 s @ 4M, 1009 s @ 8M; Atom ≈ 12× slower than XRD; Pung 2.1× / 3.7× / 7.1×
slower at 1M / 2M / 4M; Stadium ≈ 2× faster.
"""

import pytest

from repro.analysis import figures, render_figure
from repro.coordinator.network import Deployment, DeploymentConfig
from repro.simulation.latency import messages_per_chain

from benchmarks.conftest import online_only, save_result


def test_fig4_latency_vs_users(benchmark):
    figure = benchmark(figures.figure4)
    save_result("fig4_latency_vs_users", render_figure(figure))
    users = figure["x"]
    xrd = dict(zip(users, figure["series"]["XRD"]))
    atom = dict(zip(users, figure["series"]["Atom"]))
    pung = dict(zip(users, figure["series"]["Pung"]))
    stadium = dict(zip(users, figure["series"]["Stadium"]))

    # Absolute anchors within 10%.
    assert xrd[1_000_000] == pytest.approx(128, rel=0.10)
    assert xrd[2_000_000] == pytest.approx(251, rel=0.10)
    assert xrd[4_000_000] == pytest.approx(508, rel=0.10)
    assert xrd[8_000_000] == pytest.approx(1009, rel=0.10)

    # Relative claims from the abstract / §8.2.
    assert atom[1_000_000] / xrd[1_000_000] == pytest.approx(12, rel=0.15)
    assert pung[2_000_000] / xrd[2_000_000] == pytest.approx(3.7, rel=0.15)
    assert pung[4_000_000] / xrd[4_000_000] == pytest.approx(7.1, rel=0.25)
    assert xrd[1_000_000] / stadium[1_000_000] == pytest.approx(2.0, rel=0.25)

    # The gap to Pung grows with users; XRD grows linearly.
    assert pung[8_000_000] / xrd[8_000_000] > pung[1_000_000] / xrd[1_000_000]


def test_fig4_engine_load_scaling(benchmark):
    """Figure 4's x-axis on the real stack: per-chain load grows linearly in users.

    Micro-scale replica of the figure's sweep through the new round engine
    (staggered scheduling, parallel chain execution, batched crypto — the
    default fast path): the measured messages-per-chain must match the
    ``R = M·ℓ/n`` model the analytic curve is built on, and every round must
    deliver.
    """

    def sweep():
        loads = {}
        online_phase = {}
        for num_users in (6, 12, 24):
            for precompute in (True, False):
                deployment = Deployment.create(
                    DeploymentConfig(
                        num_servers=4,
                        num_users=num_users,
                        num_chains=4,
                        chain_length=2,
                        seed=4,
                        group_kind="modp",
                    )
                )
                if not precompute:
                    online_only(deployment)
                reports = deployment.run_rounds(
                    [deployment.round_spec(), deployment.round_spec()], staggered=True
                )
                deployment.close()
                assert all(report.all_chains_delivered() for report in reports)
                per_chain = reports[-1].total_submissions / deployment.num_chains
                loads[num_users] = per_chain
                online_phase[(num_users, precompute)] = reports[-1].trace.seconds("mix")
                assert per_chain == pytest.approx(
                    messages_per_chain(num_users, deployment.num_chains)
                )
        return loads, online_phase

    loads, online_phase = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert loads[24] == pytest.approx(4 * loads[6])
    save_result(
        "fig4_engine_load_scaling",
        "Measured messages/chain on the round engine (4 chains, staggered+parallel): "
        + ", ".join(f"{users} users -> {load:.1f}" for users, load in loads.items())
        + "\nOnline mix phase (precomputed vs online-only): "
        + ", ".join(
            f"{users} users -> {online_phase[(users, True)] * 1e3:.0f}/"
            f"{online_phase[(users, False)] * 1e3:.0f} ms"
            for users in (6, 12, 24)
        ),
    )


def test_headline_comparison(benchmark):
    headline = benchmark(figures.headline_comparison)
    lines = [
        headline["title"],
        f"  XRD:     {headline['xrd_latency']:8.1f} s (paper: 251 s)",
        f"  Atom:    {headline['atom_latency']:8.1f} s ({headline['atom_speedup']:.1f}x XRD; paper: 12x)",
        f"  Pung:    {headline['pung_latency']:8.1f} s ({headline['pung_speedup']:.1f}x XRD; paper: 3.7x)",
        f"  Stadium: {headline['stadium_latency']:8.1f} s (XRD is {headline['stadium_slowdown']:.1f}x slower)",
    ]
    save_result("headline_comparison", "\n".join(lines))
    assert headline["atom_speedup"] == pytest.approx(12, rel=0.15)
    assert headline["pung_speedup"] == pytest.approx(3.7, rel=0.15)
