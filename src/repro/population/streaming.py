"""Streaming, multicore population builds (DESIGN.md §9).

The monolithic population path builds every submission column of a round in
one pass, so its peak memory is O(users).  This module slices the build into
contiguous *chunks* of the engine's filtered, deployment-ordered user list
and yields one :class:`BuiltChunk` at a time: the engine uploads, scatters,
and releases each chunk before the next is built, so peak memory is
O(chunk) regardless of population size.

Chunking cannot change any observable output because the batched build is
elementwise per (user, chain-slot) entry (:func:`repro.population.
batch_build.build_chain_submissions`) and each user's RNG draws happen
inside her own chunk in the object path's exact order — per-chunk per-chain
lists concatenated in chunk order equal the monolithic per-chain lists, and
:meth:`RoundEngine._fold_user_submissions
<repro.engine.round_engine.RoundEngine._fold_user_submissions>` reassembles
the mix batches in global user order either way.

:func:`built_chunks` optionally fans the chunk builds out across a
fork-based worker pool mirroring :mod:`repro.engine.multiprocess`:

* workers inherit the population (users, keys, conversations, chain key
  views) copy-on-write through fork — nothing is shipped *in*;
* each worker builds its chunks (worker ``w`` owns chunks ``w, w+W,
  w+2W, …``) and ships every per-chain batch back as the exact wire bytes a
  ``SUBMISSION_BATCH`` envelope would carry
  (:func:`repro.transport.codec.encode_submission_batch`), framed with the
  same ``index || tag || length || payload`` layout the multiprocess mix
  backend uses;
* alongside the bytes travel the chunk's *RNG-stream cursors* — per-user
  draw counts — which the parent replays
  (:meth:`~repro.population.population.UserPopulation.
  replay_submission_draws`) so its RNG streams end up bit-identical to the
  worker's copies and later rounds stay deterministic;
* the parent consumes frames in chunk order (chunk ``k`` from worker
  ``k mod W``), decodes, re-flags covers, and yields — so envelope delivery
  happens on the coordinating thread in the same deterministic
  (chunk, chain) order as the serial path, and pipe backpressure bounds the
  parent's in-flight results to O(workers × chunk).

A submission's ``cover`` flag is deliberately not on the wire (a cover is
indistinguishable from any other submission); the parent re-flags decoded
cover batches so the banked cover store holds exactly what the monolithic
in-process path would store.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.client.user import User
from repro.errors import ConfigurationError
from repro.mixnet.messages import ClientSubmission
from repro.population.population import UserPopulation
from repro.transport.codec import decode_submission_batch, encode_submission_batch

__all__ = ["BuiltChunk", "built_chunks", "chunk_spans"]

#: Result-frame tags (same framing as the multiprocess mix backend): a
#: pickled (round parts, cover parts, draw counts) tuple, or a pickled
#: exception.
_TAG_CHUNK = 0
_TAG_ERROR = 1


@dataclass(slots=True)
class BuiltChunk:
    """One chunk's worth of built submissions, ready to upload.

    ``submissions``/``covers`` are per-chain lists in canonical batch order
    restricted to this chunk's users; ``covers`` is ``None`` when the
    deployment runs without cover messages.
    """

    index: int
    users: List[User]
    submissions: Dict[int, List[ClientSubmission]]
    covers: Optional[Dict[int, List[ClientSubmission]]]


def chunk_spans(items: Sequence, chunk_size: Optional[int]) -> Iterator[list]:
    """Slice ``items`` into contiguous chunks of at most ``chunk_size``.

    ``None`` keeps the monolithic behaviour: one span holding everything
    (the original sequence, unsliced — no copy at scale).  Always yields at
    least one (possibly empty) span so every flow frames at least one
    envelope per link, exactly as the monolithic path does.
    """
    if chunk_size is None:
        yield items if isinstance(items, list) else list(items)
        return
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be positive")
    if not items:
        yield []
        return
    for start in range(0, len(items), chunk_size):
        yield list(items[start:start + chunk_size])


def built_chunks(
    population: UserPopulation,
    round_number: int,
    current_views: Dict[int, object],
    next_views: Optional[Dict[int, object]],
    users: Sequence[User],
    payloads: Optional[Dict[str, bytes]],
    chunk_size: Optional[int],
    use_covers: bool,
    num_workers: int = 0,
) -> Iterator[BuiltChunk]:
    """Yield the round's population build one chunk at a time.

    ``chunk_size=None`` degenerates to a single whole-population chunk (the
    monolithic reference pass).  ``num_workers > 0`` builds the chunks in a
    fork-based worker pool; results still arrive in chunk order.
    """
    spans = [span for span in chunk_spans(users, chunk_size) if span]
    if num_workers > 0 and len(spans) > 1:
        yield from _built_chunks_forked(
            population, round_number, current_views, next_views,
            spans, payloads, use_covers, num_workers,
        )
        return
    for index, span in enumerate(spans):
        yield _build_one_chunk(
            population, round_number, current_views, next_views,
            index, span, payloads, use_covers,
        )


def _build_one_chunk(
    population: UserPopulation,
    round_number: int,
    current_views: Dict[int, object],
    next_views: Optional[Dict[int, object]],
    index: int,
    span: List[User],
    payloads: Optional[Dict[str, bytes]],
    use_covers: bool,
) -> BuiltChunk:
    submissions = population.build_round_submissions_batch(
        round_number, current_views, span, payloads=payloads
    )
    covers = None
    if use_covers:
        # Next round's banked covers (§5.3.3): an offline notice where the
        # user is in a conversation, loopbacks elsewhere.
        covers = population.build_round_submissions_batch(
            round_number + 1, next_views, span, offline_notice=True, cover=True
        )
    return BuiltChunk(index=index, users=span, submissions=submissions, covers=covers)


# -- forked worker pool --------------------------------------------------------

def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, length: int) -> bytes:
    parts: List[bytes] = []
    remaining = length
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 16))
        if not chunk:
            raise RuntimeError(
                "population build worker exited before delivering its chunks"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _pack_frame(index: int, tag: int, payload: bytes) -> bytes:
    return index.to_bytes(4, "big") + bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def _read_frame(fd: int) -> Tuple[int, int, bytes]:
    header = _read_exact(fd, 9)
    index = int.from_bytes(header[:4], "big")
    tag = header[4]
    length = int.from_bytes(header[5:9], "big")
    return index, tag, _read_exact(fd, length)


def _encode_exception(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _encode_parts(per_chain: Dict[int, List[ClientSubmission]]) -> List[Tuple[int, bytes]]:
    return [
        (chain_id, encode_submission_batch(submissions))
        for chain_id, submissions in per_chain.items()
    ]


def _decode_parts(
    group, parts: List[Tuple[int, bytes]], cover: bool
) -> Dict[int, List[ClientSubmission]]:
    decoded: Dict[int, List[ClientSubmission]] = {}
    for chain_id, data in parts:
        submissions = decode_submission_batch(group, data)
        if cover:
            # The cover flag is client-side metadata, deliberately absent
            # from the wire; restore it so the banked store matches the
            # monolithic in-process path exactly.
            submissions = [replace(submission, cover=True) for submission in submissions]
        decoded[chain_id] = submissions
    return decoded


def _run_build_worker(
    write_fd: int,
    population: UserPopulation,
    round_number: int,
    current_views: Dict[int, object],
    next_views: Optional[Dict[int, object]],
    spans: List[List[User]],
    indices: Sequence[int],
    payloads: Optional[Dict[str, bytes]],
    use_covers: bool,
) -> None:
    """Worker body: build this worker's chunks, frame each as it finishes."""
    passes = 2 if use_covers else 1
    for index in indices:
        span = spans[index]
        try:
            chunk = _build_one_chunk(
                population, round_number, current_views, next_views,
                index, span, payloads, use_covers,
            )
            counts = population.submission_draw_counts(span, passes=passes)
            payload = pickle.dumps(
                (
                    _encode_parts(chunk.submissions),
                    _encode_parts(chunk.covers) if chunk.covers is not None else None,
                    counts,
                )
            )
            tag = _TAG_CHUNK
        except BaseException as exc:  # shipped to the parent, re-raised there
            tag, payload = _TAG_ERROR, _encode_exception(exc)
        _write_all(write_fd, _pack_frame(index, tag, payload))
        if tag == _TAG_ERROR:
            return


def _built_chunks_forked(
    population: UserPopulation,
    round_number: int,
    current_views: Dict[int, object],
    next_views: Optional[Dict[int, object]],
    spans: List[List[User]],
    payloads: Optional[Dict[str, bytes]],
    use_covers: bool,
    num_workers: int,
) -> Iterator[BuiltChunk]:
    if not hasattr(os, "fork"):  # pragma: no cover - validated at config time
        raise ConfigurationError("population build workers require POSIX fork")
    workers = min(num_workers, len(spans))
    group = population.group
    passes = 2 if use_covers else 1
    procs: List[Tuple[int, int]] = []  # (pid, read_fd), one per worker
    try:
        for worker_index in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    os.close(read_fd)
                    # Close inherited read ends of earlier workers' pipes so
                    # the parent is every pipe's only reader: a parent-side
                    # abort then surfaces to writers as EPIPE instead of a
                    # write blocked on a sibling that never reads.
                    for _, earlier_read_fd in procs:
                        os.close(earlier_read_fd)
                    _run_build_worker(
                        write_fd, population, round_number, current_views,
                        next_views, spans,
                        range(worker_index, len(spans), workers),
                        payloads, use_covers,
                    )
                    os.close(write_fd)
                except BaseException:
                    status = 1
                finally:
                    # Never run the parent's cleanup/atexit machinery twice.
                    os._exit(status)
            os.close(write_fd)
            procs.append((pid, read_fd))

        for index in range(len(spans)):
            _, read_fd = procs[index % workers]
            frame_index, tag, payload = _read_frame(read_fd)
            if tag == _TAG_ERROR:
                raise pickle.loads(payload)
            if tag != _TAG_CHUNK or frame_index != index:
                raise RuntimeError(
                    f"population build worker sent frame {frame_index}/{tag}, "
                    f"expected chunk {index}"
                )
            round_parts, cover_parts, counts = pickle.loads(payload)
            span = spans[index]
            if counts != population.submission_draw_counts(span, passes=passes):
                raise RuntimeError("population build worker cursor mismatch")
            # Replay the worker's draws so the parent's RNG streams advance
            # exactly as the monolithic build would have advanced them.
            population.replay_submission_draws(span, counts)
            yield BuiltChunk(
                index=index,
                users=span,
                submissions=_decode_parts(group, round_parts, cover=False),
                covers=(
                    _decode_parts(group, cover_parts, cover=True)
                    if cover_parts is not None
                    else None
                ),
            )
    finally:
        for pid, read_fd in procs:
            try:
                os.close(read_fd)
            except OSError:
                pass
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass
