"""A transport that measures every envelope from its real wire bytes.

``deliver`` serialises the payload with the codecs of
:mod:`repro.transport.codec` (the byte formats of
:mod:`repro.mixnet.messages`), records the crossing — with its wire byte
count — in the round's trace (:mod:`repro.trace`), and returns the payload
*decoded from the wire bytes*.  Returning the decoded object rather than
the original is the load-bearing choice: the parity suite demands
instrumented rounds be bit-identical to in-process rounds, which therefore
proves every wire codec round-trips losslessly, the same property the
distributed runtime (:mod:`repro.runner`) depends on.

Pricing the recorded bytes as link time is the analysis layer's job
(:mod:`repro.analysis.measured`, with its own
:class:`~repro.simulation.costmodel.CostModel`).
"""

from __future__ import annotations

from typing import Any

from repro import trace
from repro.transport.base import Transport
from repro.transport.codec import decode_payload, encode_payload
from repro.transport.envelope import Envelope

__all__ = ["InstrumentedTransport"]


class InstrumentedTransport(Transport):
    """Re-decodes every payload from its wire bytes and records their count."""

    name = "instrumented"

    def __init__(self, group: Any) -> None:
        self.group = group

    def deliver(self, envelope: Envelope) -> object:
        wire = encode_payload(self.group, envelope)
        trace.link(envelope, len(wire))
        return decode_payload(self.group, envelope.kind, wire)
