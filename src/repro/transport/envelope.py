"""Typed envelopes: the unit every cross-node interaction travels in.

An :class:`Envelope` names the logical link it crosses (``source`` →
``destination``, both node names from the deployment's Figure 1 topology),
the protocol flow it belongs to (``kind``), and carries the typed payload.
These kinds cover every cross-node interaction of the system:

* ``SUBMISSION`` / ``COVER_SUBMISSION`` — one
  :class:`~repro.mixnet.messages.ClientSubmission` to the entry server of
  its chain (§6.2): the unit injected submissions travel in (honest users
  upload in ``SUBMISSION_BATCH`` frames); covers are banked with the
  coordinator one round ahead (§5.3.3) and are distinguished only so
  accounting can attribute them.
* ``BATCH`` — the :class:`~repro.mixnet.messages.EncodedBatch` one chain
  server hands to its successor during mixing (§6.3).
* ``MAILBOX_DELIVERY`` — the recovered mailbox messages, as a
  :class:`~repro.mixnet.messages.MailboxBatch`, that the last server of a
  chain sends to the mailbox servers.
* ``SUBMISSION_BATCH`` / ``COVER_SUBMISSION_BATCH`` — one chain's whole
  :class:`~repro.mixnet.messages.SubmissionBatch` framed as a single
  message on the (population → entry-server) link; the population layer's
  upload unit (DESIGN.md §7).
* ``MAILBOX_FETCH_BATCH`` — one mailbox shard's round downloads for many
  users, a :class:`~repro.mixnet.messages.FetchBatch` of ``(owner,
  messages)`` pairs; the users' download unit.

Every batch payload already holds its wire encoding, and every transport
hands the destination the same type: the in-process one passes the object
through, the TCP one sends its bytes and hands back a view checked against
the received buffer (see :mod:`repro.transport.codec`).  Only the single
submission is an object that crossing a socket encodes and decodes.

This module is import-light on purpose: client and mixnet code can build
envelopes without pulling in the codec (and its imports) transitively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

__all__ = [
    "Envelope",
    "SUBMISSION",
    "COVER_SUBMISSION",
    "BATCH",
    "MAILBOX_DELIVERY",
    "SUBMISSION_BATCH",
    "COVER_SUBMISSION_BATCH",
    "MAILBOX_FETCH_BATCH",
    "ENVELOPE_KINDS",
    "submission_envelope",
    "submission_batch_envelope",
]

#: One submission to its chain's entry server.
SUBMISSION = "submission"
#: A banked next-round cover submission (uploaded one round early, §5.3.3).
COVER_SUBMISSION = "cover-submission"
#: The entry batch one chain server forwards to its successor.
BATCH = "batch"
#: Recovered mailbox messages, last chain server → mailbox servers.
MAILBOX_DELIVERY = "mailbox-delivery"
#: A whole chain's client submissions framed as one message on the
#: (user-population → entry-server) link — the population layer's upload
#: unit; the payload is the chain's ``SubmissionBatch``.
SUBMISSION_BATCH = "submission-batch"
#: The banked-cover counterpart of ``SUBMISSION_BATCH`` (§5.3.3).
COVER_SUBMISSION_BATCH = "cover-submission-batch"
#: One mailbox shard's round downloads for many users framed as one
#: message; the payload is a ``FetchBatch`` of ``(owner public key,
#: messages)`` pairs.
MAILBOX_FETCH_BATCH = "mailbox-fetch-batch"

ENVELOPE_KINDS = (
    SUBMISSION,
    COVER_SUBMISSION,
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
    #: Chunk index when the flow is streamed per population chunk
    #: (DESIGN.md §9): the streaming pipeline frames several envelopes per
    #: (link, round) instead of one, and ``part`` orders them.  ``None``
    #: for monolithic (whole-population) frames and all other flows.
    part: Optional[int] = None


def submission_envelope(
    submission: Any, entry_servers: Dict[int, str], upload_round: int
) -> Envelope:
    """Address one client submission to its chain's entry server.

    The engine's injected-submission path builds through here.
    ``upload_round`` is the round in which the bytes cross the uplink — for
    covers that is one round *before* the round their contents are built
    for (§5.3.3: covers are banked with the coordinator ahead of time); the
    submission's own round number is bound inside its NIZK context and
    ciphertexts, not repeated on the envelope.
    """
    if submission.chain_id not in entry_servers:
        raise ConfigurationError(f"no entry server for chain {submission.chain_id}")
    return Envelope(
        kind=COVER_SUBMISSION if submission.cover else SUBMISSION,
        source=submission.sender,
        destination=entry_servers[submission.chain_id],
        round_number=upload_round,
        payload=submission,
        chain_id=submission.chain_id,
    )


def submission_batch_envelope(
    chain_id: int,
    submissions: Any,
    entry_servers: Dict[int, str],
    upload_round: int,
    cover: bool = False,
    part: Optional[int] = None,
) -> Envelope:
    """Frame one chain's whole submission batch for its entry server.

    The population layer's upload unit: one framed message per
    (chain, entry-server) link and round instead of one per user, its
    payload the chain's :class:`~repro.mixnet.messages.SubmissionBatch`.  As with
    :func:`submission_envelope`, ``upload_round`` is the round the bytes
    cross the uplink in — for banked covers that is one round before the
    round the contents were built for (§5.3.3).  Under the streaming
    pipeline ``part`` carries the chunk index — one framed message per
    (chain, chunk) instead of per chain.
    """
    if chain_id not in entry_servers:
        raise ConfigurationError(f"no entry server for chain {chain_id}")
    return Envelope(
        kind=COVER_SUBMISSION_BATCH if cover else SUBMISSION_BATCH,
        source="user-population",
        destination=entry_servers[chain_id],
        round_number=upload_round,
        payload=submissions,
        chain_id=chain_id,
        part=part,
    )
