"""A transport wrapper that injects link-level faults (drop / duplicate /
delay / reorder) on selected envelopes.

The fault-injection scenario engine (:mod:`repro.faults`) needs an adversary
*below* the protocol: not a server computing the wrong thing, but a network
losing, replaying, delaying, or reordering what honest nodes sent.
:class:`FaultyTransport` wraps any inner :class:`Transport` — the inner
transport records the crossings in the round's trace — and applies the
matching :class:`LinkFault` behaviours to each envelope before (or instead
of) handing it to the inner transport:

* ``drop`` — the envelope never crosses the link: its batch arrives empty.
  Upload and download frames carry many users' traffic, so a drop naming
  one *user* — the ``source`` of an upload frame (honest or injected), the
  ``destination`` of a download frame — loses only her elements of it.
  This models *data loss*, not timeout detection: a real deployment would
  eventually time the link out, which is a liveness concern the
  synchronous round structure has no place for (DESIGN.md §3).
* ``duplicate`` — one element of the batch is replayed.
* ``delay`` — the payload arrives intact but late: ``delay_seconds`` is
  added to the link record of the envelope it delays
  (:class:`~repro.trace.Link`), so measured round latency reflects the
  stall.
* ``reorder`` — the batch arrives permuted, by a shuffle drawn from
  the stream key :func:`~repro.crypto.stream.context_key` derives from the
  fault seed and the envelope's whole identity (kind, round, chain, part,
  source, destination), never from shared state.

Every behaviour is a *pure function of the envelope* — matching keeps no
counters — so the wrapper is safe to share between the coordinator thread
and mix worker threads.  The applied-fault log is advisory (the observable
round outcome is what parity is measured on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, FrozenSet, List, Optional, Sequence

from repro import trace
from repro.crypto import stream
from repro.errors import ConfigurationError
from repro.transport import envelope as ev
from repro.transport.base import Transport
from repro.transport.envelope import Envelope

__all__ = [
    "LinkFault",
    "FaultyTransport",
    "DROP",
    "DUPLICATE",
    "DELAY",
    "REORDER",
    "LINK_BEHAVIOURS",
]

#: The envelope never arrives (data loss on the link).
DROP = "drop"
#: One element of the batch is replayed.
DUPLICATE = "duplicate"
#: The payload arrives intact but ``delay_seconds`` late.
DELAY = "delay"
#: The batch arrives deterministically permuted.
REORDER = "reorder"

LINK_BEHAVIOURS = (DROP, DUPLICATE, DELAY, REORDER)

#: The frames: many users' uploads to one entry server, and one
#: shard's downloads to many users.
_UPLOAD_FRAMES = (ev.SUBMISSION_BATCH, ev.COVER_SUBMISSION_BATCH)
_DOWNLOAD_FRAMES = (ev.MAILBOX_FETCH_BATCH,)


@dataclass(frozen=True)
class LinkFault:
    """One declarative link fault: which envelopes, which behaviour.

    Every selector left at ``None`` matches anything; a fault with all
    selectors unset applies to every envelope the transport carries.
    Matching is stateless by design (see the module docstring).
    """

    behaviour: str
    kind: Optional[str] = None
    rounds: Optional[FrozenSet[int]] = None
    source: Optional[str] = None
    destination: Optional[str] = None
    chain_id: Optional[int] = None
    #: Which element of the batch a ``duplicate`` replays (mod length).
    index: int = 0
    #: Extra one-way latency charged by a ``delay``.
    delay_seconds: float = 0.0
    #: Seed component of a ``reorder``'s permutation key.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.behaviour not in LINK_BEHAVIOURS:
            raise ConfigurationError(f"unknown link-fault behaviour {self.behaviour!r}")
        if self.kind is not None and self.kind not in ev.ENVELOPE_KINDS:
            raise ConfigurationError(f"unknown envelope kind {self.kind!r}")
        if self.behaviour in (DUPLICATE, REORDER) and self.kind is None:
            raise ConfigurationError(
                f"{self.behaviour} faults need an explicit envelope kind "
                f"(one of {ev.ENVELOPE_KINDS})"
            )
        if self.behaviour == DELAY and self.delay_seconds < 0:
            raise ConfigurationError("delay_seconds must be non-negative")
        if self.rounds is not None:
            object.__setattr__(self, "rounds", frozenset(self.rounds))

    def _inner_selector(self, envelope: Envelope) -> Optional[str]:
        """Which endpoint selector of a ``drop`` names a user *inside* one of
        the users' frames rather than the frame's own endpoint:
        ``"source"`` (her submissions in an upload frame), ``"destination"``
        (her ``(owner, messages)`` pair in a download frame, the owner
        given as the hex of her mailbox address), or ``None``."""
        if self.behaviour == DROP:
            if envelope.kind in _UPLOAD_FRAMES and self.source not in (None, envelope.source):
                return "source"
            if envelope.kind in _DOWNLOAD_FRAMES and self.destination not in (
                None, envelope.destination
            ):
                return "destination"
        return None

    def matches(self, envelope: Envelope) -> bool:
        if self.kind is not None and envelope.kind != self.kind:
            return False
        if self.rounds is not None and envelope.round_number not in self.rounds:
            return False
        inner = self._inner_selector(envelope)
        if self.source is not None and envelope.source != self.source and inner != "source":
            return False
        if (
            self.destination is not None
            and envelope.destination != self.destination
            and inner != "destination"
        ):
            return False
        if self.chain_id is not None and envelope.chain_id != self.chain_id:
            return False
        return True

    def surviving_elements(self, envelope: Envelope) -> Optional[List[int]]:
        """For a matching ``drop``: the indices of the payload elements that
        still arrive, or ``None`` when the whole envelope is lost."""
        inner = self._inner_selector(envelope)
        payload: Any = envelope.payload
        if inner == "source":
            lost = [sender == self.source for sender in payload.senders()]
        elif inner == "destination":
            lost = [owner.hex() == self.destination for owner in payload.owners()]
        else:
            return None
        return [index for index, gone in enumerate(lost) if not gone]


def _pick(envelope: Envelope, order: Sequence[int]) -> object:
    """The elements of the batch at ``order``, in the batch's own type.

    Every payload is a wire-resident batch, subset through its ``select``:
    the records move as bytes, undecoded, which is all a link can do to
    them.
    """
    payload: Any = envelope.payload
    return payload.select(order)


@dataclass(frozen=True)
class AppliedFault:
    """Advisory log entry: one fault applied to one envelope."""

    behaviour: str
    kind: str
    round_number: int
    source: str
    destination: str
    chain_id: Optional[int] = None


class FaultyTransport(Transport):
    """Applies matching :class:`LinkFault` behaviours, then delegates."""

    name = "faulty"

    def __init__(self, inner: Transport, faults: Sequence[LinkFault] = ()) -> None:
        self.inner = inner
        self.faults: List[LinkFault] = list(faults)
        self.applied: List[AppliedFault] = []

    def _log(self, fault: LinkFault, envelope: Envelope) -> None:
        self.applied.append(
            AppliedFault(
                behaviour=fault.behaviour,
                kind=envelope.kind,
                round_number=envelope.round_number,
                source=envelope.source,
                destination=envelope.destination,
                chain_id=envelope.chain_id,
            )
        )

    @staticmethod
    def _reorder(fault: LinkFault, envelope: Envelope, count: int) -> List[int]:
        """The permutation a ``reorder`` applies: a pure function of the
        fault's seed and the envelope's identity."""
        key = stream.context_key(
            "reorder", fault.seed, envelope.kind, envelope.round_number, envelope.chain_id,
            envelope.part, envelope.source, envelope.destination,
        )
        blocks = stream.draw_blocks(key, stream.DERIVED, 0, 0, stream.shuffle_blocks(count))
        return stream.permutation(blocks, count)

    def deliver(self, envelope: Envelope) -> object:
        matching = [fault for fault in self.faults if fault.matches(envelope)]
        delay_total = 0.0
        for fault in matching:
            if fault.behaviour == DROP:
                kept = fault.surviving_elements(envelope)
                if kept is None:
                    self._log(fault, envelope)
                    return _pick(envelope, ())
                if len(kept) < len(envelope.payload):
                    envelope = replace(envelope, payload=_pick(envelope, kept))
                    self._log(fault, envelope)
            elif fault.behaviour == DUPLICATE:
                count = len(envelope.payload)
                if count:
                    # dataclasses.replace keeps every other field (including
                    # the streaming pipeline's chunk index) intact.
                    order = [*range(count), fault.index % count]
                    envelope = replace(envelope, payload=_pick(envelope, order))
                    self._log(fault, envelope)
            elif fault.behaviour == REORDER:
                count = len(envelope.payload)
                if count > 1:
                    order = self._reorder(fault, envelope, count)
                    envelope = replace(envelope, payload=_pick(envelope, order))
                    self._log(fault, envelope)
            elif fault.behaviour == DELAY:
                delay_total += fault.delay_seconds
                self._log(fault, envelope)
        delivered = self.inner.deliver(envelope)
        if delay_total > 0.0:
            trace.delay(envelope, delay_total)
        return delivered

    def close(self) -> None:
        self.inner.close()
