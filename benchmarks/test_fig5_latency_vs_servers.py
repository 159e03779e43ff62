"""Figure 5: end-to-end latency vs. number of servers with 2M users.

Paper reference: XRD's latency falls as √(2/N) (251 s at 100 servers, ≈ 84 s
extrapolated to 1000); the baselines fall as 1/N, so Pung catches up at
roughly a thousand servers and Atom's 12× gap collapses by ~3000 servers.
"""

import math

import pytest

from repro.analysis import figures, render_figure
from repro.coordinator.network import Deployment, DeploymentConfig
from repro.simulation.latency import messages_per_chain, xrd_latency, xrd_latency_pipeline

from benchmarks.conftest import online_only, save_result


def test_fig5_latency_vs_servers(benchmark):
    figure = benchmark(figures.figure5)
    save_result("fig5_latency_vs_servers", render_figure(figure))
    servers = figure["x"]
    xrd = dict(zip(servers, figure["series"]["XRD"]))
    pung = dict(zip(servers, figure["series"]["Pung"]))

    assert xrd[100] == pytest.approx(251, rel=0.10)
    assert xrd[1000] == pytest.approx(84, rel=0.15)
    # √(2/N) scaling: quadrupling the servers halves the latency (roughly).
    assert xrd[50] / xrd[200] == pytest.approx(math.sqrt(4), rel=0.25)
    # Crossover with Pung near a thousand servers.
    assert pung[100] > xrd[100]
    assert pung[3000] < xrd[3000]
    # XRD latency is monotonically decreasing in the number of servers.
    ordered = [xrd[n] for n in servers]
    assert ordered == sorted(ordered, reverse=True)


def test_fig5_engine_horizontal_scaling(benchmark):
    """Figure 5's mechanism on the real stack: more chains → less load per chain.

    Micro-scale replica of the figure's server sweep through the new round
    engine (staggered scheduling, parallel chain execution, batched crypto):
    with users fixed, the measured per-chain load must fall as chains are
    added, following the ``R = M·ℓ/n`` model behind the analytic √(2/N)
    curve, and every configuration must deliver.
    """

    def sweep():
        loads = {}
        online_phase = {}
        for num_chains in (2, 4, 8):
            for precompute in (True, False):
                deployment = Deployment.create(
                    DeploymentConfig(
                        num_servers=8,
                        num_users=16,
                        num_chains=num_chains,
                        chain_length=2,
                        seed=5,
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
                loads[num_chains] = per_chain
                online_phase[(num_chains, precompute)] = reports[-1].trace.seconds("mix")
                assert per_chain == pytest.approx(messages_per_chain(16, num_chains))
        return loads, online_phase

    loads, online_phase = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Per-chain load falls as chains are added — the horizontal-scaling claim.
    assert loads[2] > loads[4] > loads[8]
    save_result(
        "fig5_engine_horizontal_scaling",
        "Measured messages/chain on the round engine (16 users, staggered+parallel): "
        + ", ".join(f"{chains} chains -> {load:.1f}" for chains, load in loads.items())
        + "\nOnline mix phase (precomputed vs online-only): "
        + ", ".join(
            f"{chains} chains -> {online_phase[(chains, True)] * 1e3:.0f}/"
            f"{online_phase[(chains, False)] * 1e3:.0f} ms"
            for chains in (2, 4, 8)
        ),
    )


def test_fig5_pipeline_model_agrees(benchmark):
    """The discrete-event pipeline model agrees with the closed form within 2x."""

    def run():
        return {
            n: xrd_latency_pipeline(200_000, n, malicious_fraction=0.2, security_bits=20)
            for n in (20, 40, 80)
        }

    pipeline = benchmark(run)
    for n, value in pipeline.items():
        closed = xrd_latency(200_000, n, malicious_fraction=0.2, security_bits=20)
        assert 0.4 * closed <= value <= 3.0 * closed
