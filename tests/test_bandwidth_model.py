"""Tests of the user bandwidth/computation models (Figures 2 and 3, §8.1)."""

import math

import pytest

from repro.client.chain_selection import ell_for_chains
from repro.constants import PAYLOAD_SIZE
from repro.crypto.onion import onion_size
from repro.errors import SimulationError
from repro.mixnet.messages import mailbox_message_size
from repro.simulation.bandwidth import (
    deployment_user_bandwidth,
    submission_wire_size,
    xrd_user_bandwidth,
    xrd_user_compute,
)


class TestBandwidth:
    def test_grows_with_servers(self):
        costs = [xrd_user_bandwidth(n).total_bytes for n in (100, 500, 1000, 2000)]
        assert costs == sorted(costs)
        assert costs[-1] > 3 * costs[0]

    def test_sqrt_scaling_in_servers(self):
        """Upload grows roughly as √(2N) because ℓ does (§8.1)."""
        at_100 = xrd_user_bandwidth(100).upload_bytes
        at_1600 = xrd_user_bandwidth(1600).upload_bytes
        assert at_1600 / at_100 == pytest.approx(math.sqrt(16), rel=0.25)

    def test_same_order_as_paper(self):
        """Paper: ~54 KB at 100 servers, ~238 KB at 2000 (our leaner format is ~half)."""
        at_100 = xrd_user_bandwidth(100).upload_bytes
        at_2000 = xrd_user_bandwidth(2000).upload_bytes
        assert 15_000 < at_100 < 80_000
        assert 80_000 < at_2000 < 300_000

    def test_bandwidth_rate_reasonable(self):
        """Paper: ≲40 Kbps with 1-minute rounds at 2000 servers."""
        assert xrd_user_bandwidth(2000).bandwidth_kbps() < 60
        assert xrd_user_bandwidth(100).bandwidth_kbps() < 10

    def test_cover_messages_double_upload(self):
        with_cover = xrd_user_bandwidth(100, cover_messages=True)
        without = xrd_user_bandwidth(100, cover_messages=False)
        assert with_cover.upload_bytes == 2 * without.upload_bytes
        assert with_cover.download_bytes == without.download_bytes

    def test_invalid_round_duration(self):
        with pytest.raises(SimulationError):
            xrd_user_bandwidth(100).bandwidth_kbps(round_duration=0)

    def test_a_concrete_deployment_uploads_ell_submissions_per_set(self):
        """A capped chain length (a small deployment's) prices as given."""
        cost = deployment_user_bandwidth(num_chains=3, chain_length=2)
        ell = ell_for_chains(3)
        assert (cost.num_servers, cost.ell, cost.chain_length) == (3, ell, 2)
        assert cost.upload_bytes == 2 * ell * submission_wire_size(2)
        assert cost.download_bytes == ell * mailbox_message_size(PAYLOAD_SIZE)
        assert cost.compute_seconds == 0.0
        alone = deployment_user_bandwidth(3, 2, cover_messages=False, num_servers=5)
        assert alone.num_servers == 5
        assert 2 * alone.upload_bytes == cost.upload_bytes
        assert alone.download_bytes == cost.download_bytes

    def test_the_network_figure_is_the_deployment_figure_at_its_chain_length(self):
        network = xrd_user_bandwidth(200, num_chains=100)
        assert network == deployment_user_bandwidth(
            100, network.chain_length, num_servers=200
        )

    def test_submission_wire_size_matches_onion(self):
        assert submission_wire_size(31) > onion_size(31)
        assert submission_wire_size(31) - onion_size(31) == submission_wire_size(5) - onion_size(5)


class TestCompute:
    def test_grows_with_servers(self):
        costs = [xrd_user_compute(n).compute_seconds for n in (100, 500, 2000)]
        assert costs == sorted(costs)

    def test_under_half_second_at_2000_servers(self):
        """Paper: client computation stays below ~0.5 s up to 2000 servers."""
        assert xrd_user_compute(2000).compute_seconds < 0.6

    def test_cover_messages_double_compute(self):
        with_cover = xrd_user_compute(100, cover_messages=True).compute_seconds
        without = xrd_user_compute(100, cover_messages=False).compute_seconds
        assert with_cover == pytest.approx(2 * without, rel=0.05)

    def test_includes_bandwidth_fields(self):
        cost = xrd_user_compute(100)
        assert cost.upload_bytes == xrd_user_bandwidth(100).upload_bytes
        assert cost.ell == 14
