"""One round's trace: counters, link records and spans (DESIGN.md §13).

Every :class:`~repro.engine.stages.RoundReport` carries its own
:class:`Trace`.  The code that already sits at a layer boundary records
into whichever trace is *active*, so no layer needs a handle on the report:

* **counters** — deterministic totals: envelopes and wire bytes by kind,
  entries per hop, native kernel dispatches by entry point;
* **links** — one :class:`Link` per delivered envelope, written by the
  transport that carried it;
* **spans** — ``round → stage → chain → hop`` (and per population chunk),
  with wall-clock bounds and, where there is one, an entry count.

The active trace lives in a :class:`contextvars.ContextVar`: the engine
activates a round's trace around each of its stages, and the execution
backend carries the caller's context into its helper threads, so work on a
pool helper or on the stagger thread is charged to the round it belongs to
even while two rounds are in flight.  Outside any round there is no active
trace and every recording call is a no-op.

Nothing here feeds :meth:`~repro.engine.stages.RoundReport.canonical_bytes`:
counters are pinned by tests as a clock-free regression guard, and the
clock values in spans are diagnostics only.  A trace dies with its report,
so a deployment's memory stays flat per round.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["Link", "Span", "Trace", "count", "link", "delay", "span"]


@dataclass(slots=True)
class Link:
    """One envelope's crossing of one link."""

    round_number: int
    kind: str
    source: str
    destination: str
    chain_id: Optional[int]
    part: Optional[int]
    #: The payload's encoded size on the wire; ``None`` where the transport
    #: hands the payload object through without encoding it.
    wire_bytes: Optional[int]
    #: Extra one-way latency a ``delay`` link fault charged to this crossing.
    delay_seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class Span:
    """A timed piece of a round.

    The fields set say what it covers: the whole ``stage``; one chain of it
    (``chain_id``); one member's hop of that chain (``hop``, its position);
    or one population chunk (``part``).  ``entries`` counts what the piece
    worked on: a hop's batch, a chain's submissions, a chunk's users.
    """

    stage: str
    chain_id: Optional[int]
    hop: Optional[int]
    part: Optional[int]
    entries: Optional[int]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _now() -> float:
    """The round path's one clock: span bounds, which are diagnostics only."""
    return time.perf_counter()  # xrdlint: disable=XRD102 - never reaches canonical bytes


#: The active (trace, stage name) pair of this context, if any.
_ACTIVE: contextvars.ContextVar[Optional[Tuple["Trace", str]]] = contextvars.ContextVar(
    "repro_trace", default=None
)


class Trace:
    """The recorder of one round; safe to share between threads."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.links: List[Link] = []
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _add(self, name: str, amount: int) -> None:  # under the lock
        self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._add(name, amount)

    def link(self, envelope: Any, wire_bytes: Optional[int] = None) -> None:
        record = Link(
            envelope.round_number, envelope.kind, envelope.source, envelope.destination,
            envelope.chain_id, envelope.part, wire_bytes,
        )
        with self._lock:
            self.links.append(record)
            self._add(f"envelopes.{envelope.kind}", 1)
            if wire_bytes is not None:
                self._add(f"wire_bytes.{envelope.kind}", wire_bytes)

    def delay(self, envelope: Any, seconds: float) -> None:
        """Add ``seconds`` to the latest link record of ``envelope``."""
        key = (envelope.round_number, envelope.kind, envelope.source,
               envelope.destination, envelope.chain_id, envelope.part)
        with self._lock:
            for record in reversed(self.links):
                if (record.round_number, record.kind, record.source,
                        record.destination, record.chain_id, record.part) == key:
                    record.delay_seconds += seconds
                    return

    @contextmanager
    def stage(self, name: str) -> Iterator["Trace"]:
        """Make this trace active for stage ``name`` and time the stage."""
        token = _ACTIVE.set((self, name))
        try:
            with self._timed(name):
                yield self
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def _timed(self, stage: str, chain_id: Optional[int] = None, hop: Optional[int] = None,
               part: Optional[int] = None, entries: Optional[int] = None) -> Iterator[None]:
        start = _now()
        try:
            yield
        finally:
            record = Span(stage, chain_id, hop, part, entries, start, _now())
            with self._lock:
                self.spans.append(record)
                if hop is not None and entries is not None:
                    self._add(f"entries.hop{hop}", entries)

    # -- reading ---------------------------------------------------------------

    def stages(self) -> Set[str]:
        """The stages this round ran."""
        return {record.stage for record in self.spans}

    def seconds(self, stage: str) -> float:
        """Wall-clock seconds of ``stage``, summed over its runs."""
        return sum(
            record.seconds for record in self.spans
            if record.stage == stage and record.chain_id is None and record.part is None
        )


def count(name: str, amount: int = 1) -> None:
    current = _ACTIVE.get()
    if current is not None:
        current[0].count(name, amount)


def link(envelope: Any, wire_bytes: Optional[int] = None) -> None:
    current = _ACTIVE.get()
    if current is not None:
        current[0].link(envelope, wire_bytes)


def delay(envelope: Any, seconds: float) -> None:
    current = _ACTIVE.get()
    if current is not None:
        current[0].delay(envelope, seconds)


def span(chain_id: Optional[int] = None, hop: Optional[int] = None,
         part: Optional[int] = None, entries: Optional[int] = None) -> ContextManager[None]:
    """Time a piece of the active stage (a no-op outside one).

    A hop span also adds its entries to the ``entries.hop<position>`` counter.
    """
    current = _ACTIVE.get()
    if current is None:
        return nullcontext()
    trace, stage = current
    return trace._timed(stage, chain_id, hop, part, entries)
