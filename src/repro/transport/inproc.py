"""The in-process reference transport: delivery is a hand-off.

``deliver`` returns the payload object unchanged, making the transport seam
cost-free and the observable behaviour bit-identical to the pre-transport
code where "sending" was a method call.  Every other transport is measured
against this one by the parity suite.  The round's trace still gets one
link record per envelope, without a byte count: nothing was encoded.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import trace
from repro.transport.base import Transport
from repro.transport.envelope import Envelope

__all__ = ["InProcTransport"]


class InProcTransport(Transport):
    """Reference semantics: the destination sees the sender's own objects."""

    name = "inproc"

    def deliver(self, envelope: Envelope) -> object:
        trace.link(envelope)
        return envelope.payload

    def deliver_many(self, envelopes: Sequence[Envelope]) -> List[object]:
        # The same hand-off, not a loop over ``deliver``: an observer that
        # wraps both entry points then sees each envelope once.
        for envelope in envelopes:
            trace.link(envelope)
        return [envelope.payload for envelope in envelopes]
