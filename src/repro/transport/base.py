"""The :class:`Transport` contract every implementation satisfies.

A transport carries one :class:`~repro.transport.envelope.Envelope` across
its link and returns the payload *as the destination observes it*.  The
contract is deliberately synchronous — the deployment's round structure is
globally synchronised anyway (§4), so a blocking ``deliver`` models exactly
the information flow of the real system while keeping the protocol code
free of callback plumbing.

Implementations differ only in what happens on the way:

* :class:`~repro.transport.inproc.InProcTransport` hands the payload object
  straight through — the reference semantics, bit-identical to a method
  call.
* :class:`~repro.transport.tcp.TcpTransport` sends the payload's real wire
  encoding over a localhost/network socket and returns the payload decoded
  from the peer's framed reply (DESIGN.md §10) — so its parity with the
  in-process transport is also a proof that every codec round-trips
  losslessly.

The contract is an ABC with an explicit capability surface, enforced for
every implementation by the shared suite in
``tests/test_transport_contract.py``:

* ``deliver`` (abstract) must be safe to call from multiple threads — the
  parallel backend mixes chains concurrently and the staggered scheduler
  overlaps collect with mix;
* ``deliver_many`` is an optional batch hook: the default loops over
  ``deliver``, and an implementation may override it to pipeline the
  round-trips, but the results must be element-wise identical to the loop;
* ``close`` must be idempotent, and delivery after ``close`` may fail but
  must never hang.

An implementation records each envelope it carries in the round's trace
(:func:`repro.trace.link`, once per envelope, with the wire byte count when
it encodes the payload); a wrapper that delegates leaves that to its inner
transport.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from repro.transport.envelope import Envelope

__all__ = ["Transport"]


class Transport(abc.ABC):
    """Carries envelopes between the deployment's nodes."""

    name: str = "abstract"

    @abc.abstractmethod
    def deliver(self, envelope: Envelope) -> object:
        """Carry ``envelope`` across its link; return the payload received."""

    def deliver_many(self, envelopes: Sequence[Envelope]) -> List[object]:
        """Deliver several envelopes; same results, same order, as the loop.

        The default is the loop.  An implementation with real per-message
        latency (TCP) may override this to keep several requests in flight,
        but the observable results must stay element-wise identical.
        """
        return [self.deliver(envelope) for envelope in envelopes]

    def close(self) -> None:
        """Release any transport resources; idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
