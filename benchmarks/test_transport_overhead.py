"""Measured transport traffic vs. the analytic bandwidth model (fig2 companion).

Runs a real deployment on the TCP loopback transport — every envelope is
serialised to its actual wire encoding, its size recorded in the round's
trace — and compares the bytes each user *measurably* uploaded/downloaded
per round against the Figure 2 analytic
prediction (:mod:`repro.simulation.bandwidth`) anchored to the same chain
parameters.  The population uploads one frame per chain and downloads one
per mailbox shard, so each user's share is reconstructed from the frames.
Uploads stay within 5% of the model (the frame adds a 4-byte length prefix
per submission; the submission itself is byte for byte the priced layout,
which ``tests/test_transport.py::TestWireOverheadConstant`` pins);
downloads carry the owner key on the wire as well as the codec framing, so
their bar is 8%.

A second table reports the measured-from-traffic round latency companion to
the Figure 4/5 analytic curves: the critical path through the recorded
links, priced with the paper's testbed cost model, next to the same path
predicted from the configuration's uniform-load assumption.
"""

import pytest

from repro.analysis import (
    measured_vs_model_bandwidth,
    measured_vs_model_latency,
    render_table,
)
from repro.coordinator.network import Deployment, DeploymentConfig

from benchmarks.conftest import save_result

#: Tolerance from the acceptance criteria: measured uploads within 5% of
#: the model; downloads, which also carry each owner's key, within 8%.
TOLERANCE = 0.05
DOWNLOAD_TOLERANCE = 0.08

ROUNDS = 3


def make_deployment():
    # The fig2 configuration at in-process scale: f = 0.2 with the security
    # parameter chosen so the anytrust chain length (8) is not capped by the
    # server count, 256-byte payloads, covers on.
    config = DeploymentConfig(
        num_servers=8,
        num_users=10,
        num_chains=4,
        malicious_fraction=0.2,
        security_bits=16,
        seed=1702,
        group_kind="modp",
        transport="tcp",
    )
    return Deployment.create(config)


@pytest.fixture(scope="module")
def traffic_run():
    deployment = make_deployment()
    a, b = deployment.users[0].name, deployment.users[1].name
    deployment.start_conversation(a, b)
    reports = [
        deployment.run_round(payloads={a: b"ping-%d" % index, b: b"pong-%d" % index})
        for index in range(ROUNDS)
    ]
    yield deployment, reports
    deployment.close()


def test_measured_bandwidth_matches_model(benchmark, traffic_run):
    deployment, reports = traffic_run
    comparison = benchmark(measured_vs_model_bandwidth, deployment, reports[0])
    rows = [
        ["upload", comparison["measured_upload_bytes"], comparison["model_upload_bytes"],
         f"{100 * (comparison['upload_ratio'] - 1):+.2f}%"],
        ["download", comparison["measured_download_bytes"], comparison["model_download_bytes"],
         f"{100 * (comparison['download_ratio'] - 1):+.2f}%"],
    ]
    save_result(
        "transport_measured_vs_model_bandwidth",
        "Per-user bytes per round: measured from traffic vs. Figure 2 model\n"
        + render_table(["direction", "measured B", "model B", "delta"], rows),
    )
    assert comparison["users_measured"] == deployment.config.num_users
    assert abs(comparison["upload_ratio"] - 1) <= TOLERANCE
    assert abs(comparison["download_ratio"] - 1) <= DOWNLOAD_TOLERANCE


def test_measured_bandwidth_stable_across_rounds(traffic_run):
    """Cover traffic makes every full round cost the same bytes (§5.3.3)."""
    deployment, reports = traffic_run
    comparisons = [measured_vs_model_bandwidth(deployment, report) for report in reports]
    uploads = {comparison["measured_upload_bytes"] for comparison in comparisons}
    downloads = {comparison["measured_download_bytes"] for comparison in comparisons}
    assert len(uploads) == 1
    assert len(downloads) == 1


def test_measured_bandwidth_batched_population(benchmark):
    """The fig2 companion on a single round of a fresh deployment, timing
    the reconstruction itself.

    One framed upload per chain and one framed download per mailbox shard
    carry every user's traffic; the per-user split is reconstructed from
    the population's rosters.  Uploads stay within the 5% bar (the batch
    adds a 4-byte length prefix per submission); downloads carry the owner
    key explicitly on the wire (+32 B/user/round), so the download bar is a
    documented 8%.
    """
    deployment = make_deployment()
    config = deployment.config
    a, b = deployment.users[0].name, deployment.users[1].name
    deployment.start_conversation(a, b)
    report = deployment.run_round(payloads={a: b"ping", b: b"pong"})
    comparison = benchmark.pedantic(
        lambda: measured_vs_model_bandwidth(deployment, report), rounds=1, iterations=1
    )
    save_result(
        "transport_measured_vs_model_bandwidth_batched",
        "Per-user bytes per round reconstructed from population batch frames\n"
        + render_table(
            ["direction", "measured B", "model B", "delta"],
            [
                ["upload", f"{comparison['measured_upload_bytes']:.0f}",
                 comparison["model_upload_bytes"],
                 f"{100 * (comparison['upload_ratio'] - 1):+.2f}%"],
                ["download", f"{comparison['measured_download_bytes']:.0f}",
                 comparison["model_download_bytes"],
                 f"{100 * (comparison['download_ratio'] - 1):+.2f}%"],
            ],
        ),
    )
    assert comparison["users_measured"] == config.num_users
    assert abs(comparison["upload_ratio"] - 1) <= TOLERANCE
    assert abs(comparison["download_ratio"] - 1) <= DOWNLOAD_TOLERANCE
    deployment.close()


def test_measured_latency_companion(benchmark, traffic_run):
    deployment, reports = traffic_run
    comparison = benchmark(measured_vs_model_latency, deployment, reports[0])
    measured = comparison["measured_seconds"]
    modelled = comparison["modelled_network_seconds"]
    save_result(
        "transport_measured_vs_model_latency",
        "Round network latency: measured critical path vs. uniform-load model\n"
        + render_table(
            ["round", "measured s", "modelled s"],
            [[1, f"{measured:.4f}", f"{modelled:.4f}"]],
        ),
    )
    assert measured > 0
    # The uniform-load prediction and the measured critical path may diverge
    # by the chain-assignment imbalance, which is small at this scale.
    assert measured == pytest.approx(modelled, rel=0.25)
