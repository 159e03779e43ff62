"""A transport that measures every envelope from its real wire bytes.

``deliver`` serialises the payload with the codecs of
:mod:`repro.transport.codec` (the byte formats of
:mod:`repro.mixnet.messages`), appends a :class:`LinkRecord` — byte count
plus the link model's one-way time for that many bytes — to its
:class:`TrafficLedger`, and returns the payload *decoded from the wire
bytes*.  Returning the decoded object rather than the original is the
load-bearing choice: the parity suite demands instrumented rounds be
bit-identical to in-process rounds, which therefore proves every wire
codec round-trips losslessly, the same property the distributed runtime
(:mod:`repro.runner`) depends on.

The link model is a :class:`~repro.simulation.costmodel.CostModel`: an
envelope of ``b`` bytes takes ``rtt/2 + b / link_bandwidth`` seconds
one-way, the same constants the analytic latency model uses — so measured
and modelled figures are directly comparable.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.transport.base import Transport
from repro.transport.codec import decode_payload, encode_payload
from repro.transport.envelope import Envelope
from repro.transport.metrics import LinkRecord, TrafficLedger

__all__ = ["InstrumentedTransport"]


class InstrumentedTransport(Transport):
    """Accounts bytes and modelled latency per link, per round."""

    name = "instrumented"

    def __init__(self, group: Any, cost_model: Any = None, ledger: Optional[TrafficLedger] = None) -> None:
        if cost_model is None:
            from repro.simulation.costmodel import CostModel

            cost_model = CostModel.paper_testbed()
        self.group = group
        self.cost_model = cost_model
        self.ledger = ledger if ledger is not None else TrafficLedger()

    def deliver(self, envelope: Envelope) -> object:
        wire = encode_payload(self.group, envelope)
        self.ledger.append(
            LinkRecord(
                round_number=envelope.round_number,
                kind=envelope.kind,
                source=envelope.source,
                destination=envelope.destination,
                num_bytes=len(wire),
                seconds=self.cost_model.link_time(len(wire)),
                chain_id=envelope.chain_id,
            )
        )
        return decode_payload(self.group, envelope.kind, wire)
