"""Tests for the cost model and its calibration against the paper's anchors."""

import pytest

from repro.errors import SimulationError
from repro.simulation.costmodel import CostModel


class TestConstruction:
    def test_paper_testbed_constants(self):
        model = CostModel.paper_testbed()
        assert model.mix_per_message_per_hop > 0
        assert model.cores_per_server == 36
        assert "paper" in model.source

    def test_from_primitive_costs(self):
        model = CostModel.from_primitive_costs(
            scalar_mult=1e-3, aead_fixed=1e-5, aead_per_byte=1e-8, cores_per_server=4
        )
        assert model.nizk_prove == pytest.approx(2e-3)
        assert model.nizk_verify == pytest.approx(4e-3)
        assert model.mix_per_message_per_hop > 0
        # More cores → lower effective per-message cost.
        single = CostModel.from_primitive_costs(1e-3, 1e-5, 1e-8, cores_per_server=1)
        assert model.mix_per_message_per_hop < single.mix_per_message_per_hop

    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            CostModel(
                scalar_mult=-1,
                aead_fixed=0,
                aead_per_byte=0,
                nizk_prove=0,
                nizk_verify=0,
                mix_per_message_per_hop=0,
            )

    def test_zero_cores_rejected(self):
        with pytest.raises(SimulationError):
            CostModel(
                scalar_mult=0,
                aead_fixed=0,
                aead_per_byte=0,
                nizk_prove=0,
                nizk_verify=0,
                mix_per_message_per_hop=0,
                cores_per_server=0,
            )


class TestDerivedQuantities:
    def test_with_rtt(self):
        model = CostModel.paper_testbed().with_rtt(0.2)
        assert model.network_rtt == 0.2
        assert model.mix_per_message_per_hop == CostModel.paper_testbed().mix_per_message_per_hop

    def test_transmit_time(self):
        model = CostModel.paper_testbed()
        assert model.transmit_time(model.link_bandwidth) == pytest.approx(1.0)

    def test_link_time_is_half_the_rtt_plus_transmission(self):
        model = CostModel.paper_testbed().with_rtt(0.2)
        assert model.link_time(0) == pytest.approx(0.1)
        assert model.link_time(model.link_bandwidth) == pytest.approx(1.1)
        assert model.with_rtt(0.0).link_time(4096) == model.transmit_time(4096)

    def test_client_message_cost_grows_with_chain_length(self):
        model = CostModel.paper_testbed()
        assert model.client_message_cost(40) > model.client_message_cost(10)

    def test_blame_step_cost_positive(self):
        assert CostModel.paper_testbed().blame_per_message_per_layer() > 0
