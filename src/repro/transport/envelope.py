"""Typed envelopes: the unit every cross-node interaction travels in.

An :class:`Envelope` names the logical link it crosses (``source`` →
``destination``, both node names from the deployment's Figure 1 topology),
the protocol flow it belongs to (``kind``), and carries the typed payload.
These kinds cover every cross-node interaction of the system:

* ``SUBMISSION_BATCH`` / ``COVER_SUBMISSION_BATCH`` — one chain's
  :class:`~repro.mixnet.messages.SubmissionBatch` framed as a single
  message on the (population → entry-server) link (§6.2, DESIGN.md §7);
  injected submissions travel in one such frame per chain from their own
  source.  Covers are banked with the coordinator one round ahead
  (§5.3.3) and are distinguished only so accounting can attribute them.
* ``BATCH`` — the :class:`~repro.mixnet.messages.EncodedBatch` one chain
  server hands to its successor during mixing (§6.3).
* ``MAILBOX_DELIVERY`` — the recovered mailbox records, as a
  :class:`~repro.mixnet.messages.MailboxBatch`, that the last server of a
  chain sends to the mailbox servers.
* ``MAILBOX_FETCH_BATCH`` — one mailbox shard's round downloads for many
  users, a :class:`~repro.mixnet.messages.FetchBatch` of ``(owner,
  records)`` pairs; the users' download unit.

Every payload is a batch that already holds its wire encoding, and every
transport hands the destination the same type: the in-process one passes
the object through, the TCP one sends its bytes and hands back a view
checked against the received buffer (see :mod:`repro.transport.codec`).

This module is import-light on purpose: client and mixnet code can build
envelopes without pulling in the codec (and its imports) transitively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

__all__ = [
    "Envelope",
    "BATCH",
    "MAILBOX_DELIVERY",
    "SUBMISSION_BATCH",
    "COVER_SUBMISSION_BATCH",
    "MAILBOX_FETCH_BATCH",
    "ENVELOPE_KINDS",
    "POPULATION",
    "INJECTED",
    "submission_batch_envelope",
]

#: The source of the honest users' upload frames and the destination of
#: their download frames.
POPULATION = "user-population"
#: The source of the frames that carry a round's injected submissions.
INJECTED = "injected-users"

#: The entry batch one chain server forwards to its successor.
BATCH = "batch"
#: Recovered mailbox records, last chain server → mailbox servers.
MAILBOX_DELIVERY = "mailbox-delivery"
#: A whole chain's client submissions framed as one message on the
#: (user-population → entry-server) link — the population layer's upload
#: unit; the payload is the chain's ``SubmissionBatch``.
SUBMISSION_BATCH = "submission-batch"
#: The banked-cover counterpart of ``SUBMISSION_BATCH`` (§5.3.3).
COVER_SUBMISSION_BATCH = "cover-submission-batch"
#: One mailbox shard's round downloads for many users framed as one
#: message; the payload is a ``FetchBatch`` of ``(owner public key,
#: records)`` pairs.
MAILBOX_FETCH_BATCH = "mailbox-fetch-batch"

ENVELOPE_KINDS = (
    BATCH,
    MAILBOX_DELIVERY,
    SUBMISSION_BATCH,
    COVER_SUBMISSION_BATCH,
    MAILBOX_FETCH_BATCH,
)


@dataclass(frozen=True, slots=True)
class Envelope:
    """One message crossing one logical link of the deployment."""

    kind: str
    source: str
    destination: str
    round_number: int
    payload: object
    #: The chain this envelope belongs to, when the flow is chain-scoped
    #: (submissions and batches); lets accounting reconstruct per-chain
    #: critical paths.
    chain_id: Optional[int] = None
    #: Chunk index of a flow streamed per population chunk (DESIGN.md §9):
    #: uploads, mailbox deliveries and fetches frame one envelope per
    #: (link, chunk), and ``part`` orders them.  ``None`` for the flows that
    #: belong to no chunk: ``BATCH`` hops, injected uploads and control.
    part: Optional[int] = None


def submission_batch_envelope(
    chain_id: int,
    submissions: Any,
    entry_servers: Dict[int, str],
    upload_round: int,
    cover: bool = False,
    part: Optional[int] = None,
    source: str = POPULATION,
) -> Envelope:
    """Frame one chain's submission batch for its entry server.

    The upload unit: one framed message per (chain, entry-server) link,
    round and population chunk (``part``, the chunk's index; injected
    extras have none) instead of one per user, its payload the chain's
    :class:`~repro.mixnet.messages.SubmissionBatch`.  ``upload_round`` is
    the round the bytes cross the uplink in — for banked covers that is one
    round before the round the contents were built for (§5.3.3); a
    submission's own round is bound inside its NIZK context and
    ciphertexts.
    """
    if chain_id not in entry_servers:
        raise ConfigurationError(f"no entry server for chain {chain_id}")
    return Envelope(
        kind=COVER_SUBMISSION_BATCH if cover else SUBMISSION_BATCH,
        source=source,
        destination=entry_servers[chain_id],
        round_number=upload_round,
        payload=submissions,
        chain_id=chain_id,
        part=part,
    )
