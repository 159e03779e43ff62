"""Streaming population builds (DESIGN.md §9).

Every round walks its population in contiguous *chunks* of
:data:`CHUNK_USERS` users of the engine's filtered, deployment-ordered user
list, and this module yields one :class:`BuiltChunk` at a time: the engine
uploads, scatters, and releases each chunk before the next is built, so the
build's peak memory is O(chunk) regardless of population size.

Chunking cannot change any observable output because the batched build is
elementwise per (user, chain-slot) entry (:func:`repro.population.
batch_build.build_chain_submissions`), its scalar draws included — each is
a pure function of (user's stream key, round, slot) — so per-chunk
per-chain records concatenated in chunk order equal a single pass's, and
:meth:`RoundEngine._fold_user_submissions
<repro.engine.round_engine.RoundEngine._fold_user_submissions>` reassembles
the mix batches in global user order for any chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro import trace
from repro.client.user import User
from repro.mixnet.messages import SubmissionBatch
from repro.population.population import UserPopulation

__all__ = ["CHUNK_USERS", "BuiltChunk", "built_chunks", "chunk_spans", "index_spans"]

#: Users per chunk of every round's build, upload, delivery and fetch; read
#: at each call, so a test wanting several chunks of a dozen users patches it.
CHUNK_USERS = 250


@dataclass(slots=True)
class BuiltChunk:
    """One chunk's worth of built submissions, ready to upload.

    ``submissions``/``covers`` are per-chain batches in canonical batch
    order restricted to this chunk's users; ``covers`` is ``None`` when the
    deployment runs without cover messages.
    """

    index: int
    users: List[User]
    submissions: Dict[int, SubmissionBatch]
    covers: Optional[Dict[int, SubmissionBatch]]


def index_spans(count: int) -> List[range]:
    """Contiguous index ranges of at most :data:`CHUNK_USERS` over ``count`` items.

    There is always at least one (possibly empty) range, so every flow
    frames at least one envelope per link.
    """
    spans = [
        range(start, min(start + CHUNK_USERS, count))
        for start in range(0, count, CHUNK_USERS)
    ]
    return spans or [range(0)]


def chunk_spans(items: Sequence) -> Iterator[list]:
    """Slice ``items`` into the lists :func:`index_spans` marks out."""
    for span in index_spans(len(items)):
        yield list(items[span.start:span.stop])


def built_chunks(
    population: UserPopulation,
    round_number: int,
    current_views: Dict[int, object],
    next_views: Optional[Dict[int, object]],
    users: Sequence[User],
    payloads: Optional[Dict[str, bytes]],
    use_covers: bool,
    map_chains: Optional[Callable] = None,
) -> Iterator[BuiltChunk]:
    """Yield the round's population build one chunk at a time.

    ``map_chains`` runs each chunk's per-chain crypto pass (see
    :meth:`UserPopulation.build_round_submissions_batch`).  Each chunk's
    build is one span of the active trace (DESIGN.md §13).
    """
    spans = [span for span in chunk_spans(users) if span]
    for index, span in enumerate(spans):
        with trace.span(part=index, entries=len(span)):
            submissions = population.build_round_submissions_batch(
                round_number, current_views, span, payloads=payloads, map_chains=map_chains
            )
            covers = None
            if use_covers:
                # Next round's banked covers (§5.3.3): an offline notice where
                # the user is in a conversation, loopbacks elsewhere.
                covers = population.build_round_submissions_batch(
                    round_number + 1, next_views, span, offline_notice=True, cover=True,
                    map_chains=map_chains,
                )
        yield BuiltChunk(index=index, users=span, submissions=submissions, covers=covers)
