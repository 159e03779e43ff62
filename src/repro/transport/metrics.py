"""Traffic accounting: what the instrumented transport measured.

The :class:`TrafficLedger` is an append-only log of :class:`LinkRecord`
entries, one per delivered envelope.  Appends are GIL-atomic list appends —
no lock is taken, which keeps the ledger safe to share between the
coordinator thread and the mix worker (staggered scheduling) and between
pool threads (parallel backend).

Summaries answer the two questions the paper's evaluation measures from
traffic:

* **bytes** — per round and per envelope kind; the per-user split of the
  population's batch frames is reconstructed in
  :mod:`repro.analysis.measured`, the measured companion to the Figure 2
  model in :mod:`repro.simulation.bandwidth`;
* **latency** — the modelled time of the round's critical path through the
  recorded links (:meth:`TrafficLedger.round_latency_seconds`), the
  measured-from-traffic companion to the Figure 4/5 closed-form model in
  :mod:`repro.simulation.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.transport import envelope as ev

__all__ = ["LinkRecord", "TrafficLedger"]


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """One envelope's crossing of one link, as measured on the wire."""

    round_number: int
    kind: str
    source: str
    destination: str
    num_bytes: int
    #: Modelled one-way link time for this envelope (propagation plus
    #: transmission at the link model's bandwidth).
    seconds: float
    chain_id: Optional[int] = None


class TrafficLedger:
    """Append-only log of every envelope an instrumented transport carried."""

    def __init__(self) -> None:
        self._records: List[LinkRecord] = []

    # -- recording -----------------------------------------------------------

    def append(self, record: LinkRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> List[LinkRecord]:
        return list(self._records)

    def clear(self) -> None:
        self._records = []

    # -- byte accounting ------------------------------------------------------

    def records_for_round(self, round_number: int) -> List[LinkRecord]:
        return [r for r in self._records if r.round_number == round_number]

    def total_bytes(self, round_number: Optional[int] = None,
                    kinds: Optional[Iterable[str]] = None) -> int:
        kind_set = set(kinds) if kinds is not None else None
        return sum(
            r.num_bytes
            for r in self._records
            if (round_number is None or r.round_number == round_number)
            and (kind_set is None or r.kind in kind_set)
        )

    def bytes_by_kind(self, round_number: Optional[int] = None) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self._records:
            if round_number is not None and record.round_number != round_number:
                continue
            totals[record.kind] = totals.get(record.kind, 0) + record.num_bytes
        return totals

    # -- latency accounting ----------------------------------------------------

    def round_latency_seconds(self, round_number: int) -> float:
        """Modelled end-to-end time of the round's measured critical path.

        The round's data flow is: the submissions reach their entry servers
        (framed per chain, ``SUBMISSION_BATCH``, plus any single injected
        ``SUBMISSION``; frames cross their links in parallel, so the slowest
        upload gates the start), the chains mix (each chain's batches
        traverse its hops *sequentially*; chains run in parallel, so the
        slowest chain gates delivery), the recovered messages reach the
        mailbox servers, and the users fetch (framed per shard,
        ``MAILBOX_FETCH_BATCH`` — the slowest fetch gates the end).  Banked
        covers stay off the critical path — they are uploads *for the next
        round*.
        """
        submission_max = 0.0
        fetch_max = 0.0
        chain_path: Dict[Optional[int], float] = {}
        delivery: Dict[Optional[int], float] = {}
        for record in self._records:
            if record.round_number != round_number:
                continue
            if record.kind in (ev.SUBMISSION, ev.SUBMISSION_BATCH):
                submission_max = max(submission_max, record.seconds)
            elif record.kind == ev.MAILBOX_FETCH_BATCH:
                fetch_max = max(fetch_max, record.seconds)
            elif record.kind == ev.BATCH:
                chain_path[record.chain_id] = chain_path.get(record.chain_id, 0.0) + record.seconds
            elif record.kind == ev.MAILBOX_DELIVERY:
                delivery[record.chain_id] = delivery.get(record.chain_id, 0.0) + record.seconds
        slowest_chain = max(
            (chain_path.get(cid, 0.0) + delivery.get(cid, 0.0)
             for cid in sorted(set(chain_path) | set(delivery))),
            default=0.0,
        )
        return submission_max + slowest_chain + fetch_max

    def chain_hop_seconds(self, round_number: int) -> Dict[int, float]:
        """Per-chain summed batch-hop time for one round (mix stage only)."""
        totals: Dict[int, float] = {}
        for record in self._records:
            if record.round_number == round_number and record.kind == ev.BATCH:
                totals[record.chain_id] = totals.get(record.chain_id, 0.0) + record.seconds
        return totals
