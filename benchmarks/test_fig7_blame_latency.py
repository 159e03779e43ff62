"""Figure 7: worst-case blame-protocol latency vs. malicious users in a chain.

Paper reference: ~13 s for 5,000 malicious users, growing linearly to ~150 s
for 100,000 (f = 0.2, 100 servers).  Our analytic model reproduces the linear
slope at the same order of magnitude (about 2-3× lower absolute numbers; see
EXPERIMENTS.md).  A micro-scale run of the *real* blame protocol is also
benchmarked so the measured per-ciphertext cost backs the model: the walk
is hop-wise over the whole flagged set (one batch of proofs, keys and
opens per hop), so its cost is the model's per-ciphertext, per-layer term
times the flagged count plus a per-hop constant — linear, as in the figure.
"""

import pytest

from repro.analysis import figures, render_figure
from repro.coordinator.adversary import forge_misauthenticated_submission
from repro.crypto.group import ModPGroup
from repro.crypto.keys import KeyPair

from benchmarks.conftest import save_result
from tests.test_ahs_protocol import build_chain, make_submission


def test_fig7_blame_latency_model(benchmark):
    figure = benchmark(figures.figure7)
    save_result("fig7_blame_latency", render_figure(figure))
    counts = figure["x"]
    latencies = dict(zip(counts, figure["series"]["blame latency"]))
    # Linear growth, same order of magnitude as the paper's 13 s / 150 s.
    assert 1 < latencies[5_000] < 40
    assert 30 < latencies[100_000] < 400
    slope_low = (latencies[50_000] - latencies[20_000]) / 30_000
    slope_high = (latencies[100_000] - latencies[80_000]) / 20_000
    assert slope_low == pytest.approx(slope_high, rel=0.05)


def test_blame_protocol_execution_microscale(benchmark):
    """Run the real blame protocol (8 honest + 4 malicious users, 3-server chain)."""
    group = ModPGroup(bits=96)

    def run():
        chain = build_chain(group, length=3, seed=77)
        chain.begin_round(1)
        recipient = KeyPair.generate(group)
        from repro.client.user import ChainKeysView

        view = ChainKeysView(
            chain_id=chain.chain_id,
            mixing_publics=chain.public_keys.mixing_publics,
            aggregate_inner_public=chain.aggregate_inner_public(1),
        )
        submissions = [
            make_submission(group, chain, 1, f"user-{i}", recipient.public_bytes, b"\x01" * 32)
            for i in range(8)
        ]
        submissions += [
            forge_misauthenticated_submission(group, view, 1, f"mallory-{i}") for i in range(4)
        ]
        chain.accept_submissions(1, submissions)
        return chain.run_round(1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.delivered
    assert sorted(result.blame_verdict.malicious_users) == [f"mallory-{i}" for i in range(4)]
    assert len(result.mailbox_messages) == 8
