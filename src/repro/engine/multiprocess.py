"""Fork-based mix backend: per-chain work in worker processes (DESIGN.md §2.2, §5).

``ParallelBackend`` expresses the paper's horizontal-scaling claim but the
GIL serialises its group arithmetic; :class:`MultiprocessBackend` realises
it.  ``map_chains`` forks one worker per slice of chains — workers inherit
the full deployment state by copy-on-write, so nothing needs to be shipped
*in* — and each worker sends its results back over a pipe, serialised with
the same wire encodings the transport layer uses
(:func:`repro.transport.codec.encode_chain_outcome`): a chain's round
outcome crosses the process boundary exactly as its messages would cross a
network.

Correctness rests on the determinism property of
:class:`~repro.mixnet.ahs.ChainMember`: every (member, round) pair draws
from an independent derived randomness stream, so a forked copy of a chain
computes bit-identically to the parent's copy, and the parent's own chain
state — which the fork leaves untouched — never diverges from what the
reports claim.  The parent's chains simply do not *record* rounds that were
mixed in workers (they hold the batch they accepted until the round is
delivered, and ``_history`` and the members' round records stay unpopulated
for those rounds); the blame-protocol tests, which need that private state,
run on the serial backend.

Two contract details beyond :class:`ExecutionBackend`:

* results that are not :class:`~repro.engine.stages.ChainOutcome` values
  (generic ``map_chains`` uses) fall back to :mod:`pickle`; outcomes carrying
  a blame verdict travel as wire bytes too
  (:func:`repro.transport.codec.encode_blame_verdict`), so eviction
  decisions derived from them are lossless across the process boundary;
* if the chains route their batches through an instrumented transport, each
  worker ships its new :class:`~repro.transport.metrics.LinkRecord` entries
  back with its results and the parent merges them into its ledger, so
  traffic accounting survives the process boundary.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.backends import ExecutionBackend
from repro.engine.stages import ChainOutcome
from repro.errors import ConfigurationError
from repro.transport.codec import (
    UnsupportedPayload,
    decode_chain_outcome,
    encode_chain_outcome,
)
from repro.transport.metrics import LinkRecord, TrafficLedger

__all__ = ["MultiprocessBackend"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Result-frame tags: wire-encoded ChainOutcome, pickled value, pickled
#: exception, and the worker's traffic-ledger delta.
_TAG_OUTCOME = 0
_TAG_PICKLE = 1
_TAG_ERROR = 2
_TAG_LEDGERS = 3

#: Frame index reserved for the ledger delta (not a chain index).
_LEDGER_INDEX = 0xFFFFFFFF


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_all(fd: int) -> bytes:
    parts = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(parts)
        parts.append(chunk)


def _pack_frame(index: int, tag: int, payload: bytes) -> bytes:
    return index.to_bytes(4, "big") + bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def _iter_frames(data: bytes):
    offset = 0
    while offset < len(data):
        if len(data) < offset + 9:
            raise ValueError("truncated worker frame header")
        index = int.from_bytes(data[offset:offset + 4], "big")
        tag = data[offset + 4]
        length = int.from_bytes(data[offset + 5:offset + 9], "big")
        offset += 9
        if len(data) < offset + length:
            raise ValueError("truncated worker frame payload")
        yield index, tag, data[offset:offset + length]
        offset += length


def _instrumented_ledgers(chains: Sequence) -> List[TrafficLedger]:
    """The (deduplicated, ordered) traffic ledgers reachable from ``chains``.

    Computed identically in parent and child — the child inherits the very
    same objects through fork — so ledger deltas can be matched by position.
    """
    ledgers: List[TrafficLedger] = []
    seen = set()
    for chain in chains:
        ledger = getattr(getattr(chain, "transport", None), "ledger", None)
        if isinstance(ledger, TrafficLedger) and id(ledger) not in seen:
            seen.add(id(ledger))
            ledgers.append(ledger)
    return ledgers


def _encode_result(result) -> Tuple[int, bytes]:
    if isinstance(result, ChainOutcome):
        try:
            return _TAG_OUTCOME, encode_chain_outcome(
                result.chain_id, result.accept_rejected, result.result
            )
        except UnsupportedPayload:
            pass
    return _TAG_PICKLE, pickle.dumps(result)


def _encode_exception(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


class MultiprocessBackend(ExecutionBackend):
    """Mix chains in forked worker processes (POSIX only).

    Satisfies the :class:`~repro.engine.backends.ExecutionBackend` contract:
    ordered results, first exception (by chain order) propagated.  Workers
    are forked per call — per-round state is tiny compared to the mixing
    work, and a fresh fork inherits exactly the state a persistent worker
    would have had to synchronise.
    """

    name = "multiprocess"

    #: Worker mutations die with the fork; the engine therefore runs the
    #: precompute stage inline in the parent, and the per-round tables reach
    #: the mix workers through copy-on-write fork inheritance (the
    #: "shipping" of precomputed tables across the process boundary).
    shares_state = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if not hasattr(os, "fork"):
            raise ConfigurationError("the multiprocess backend requires POSIX fork")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("a multiprocess backend needs at least one worker")
        self._max_workers = max_workers

    def map_chains(self, fn: Callable[[_T], _R], chains: Sequence[_T]) -> List[_R]:
        chains = list(chains)
        workers = min(self._max_workers or (os.cpu_count() or 4), len(chains))
        if len(chains) <= 1 or workers <= 1:
            return [fn(chain) for chain in chains]

        ledgers = _instrumented_ledgers(chains)
        slices = [list(range(start, len(chains), workers)) for start in range(workers)]
        procs: List[Tuple[int, int, List[int]]] = []
        for indices in slices:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    os.close(read_fd)
                    _write_all(write_fd, self._run_slice(fn, chains, indices, ledgers))
                    os.close(write_fd)
                except BaseException:
                    status = 1
                finally:
                    # Never run the parent's cleanup/atexit machinery twice.
                    os._exit(status)
            os.close(write_fd)
            procs.append((pid, read_fd, indices))

        results: List[Optional[_R]] = [None] * len(chains)
        errors: List[Optional[BaseException]] = [None] * len(chains)
        pending = list(procs)
        try:
            while pending:
                pid, read_fd, indices = pending.pop(0)
                try:
                    reply = _read_all(read_fd)
                finally:
                    os.close(read_fd)
                    _, status = os.waitpid(pid, 0)
                seen = set()
                for index, tag, payload in _iter_frames(reply):
                    if tag == _TAG_LEDGERS:
                        for position, delta in enumerate(pickle.loads(payload)):
                            if position < len(ledgers):
                                ledgers[position].extend(
                                    LinkRecord.from_tuple(record) for record in delta
                                )
                        continue
                    seen.add(index)
                    if tag == _TAG_OUTCOME:
                        chain_id, accept_rejected, result = decode_chain_outcome(payload)
                        results[index] = ChainOutcome(
                            chain_id=chain_id, accept_rejected=accept_rejected, result=result
                        )
                    elif tag == _TAG_PICKLE:
                        results[index] = pickle.loads(payload)
                    elif tag == _TAG_ERROR:
                        errors[index] = pickle.loads(payload)
                    else:
                        raise RuntimeError(f"unknown worker frame tag {tag}")
                missing = [index for index in indices if index not in seen]
                if missing:
                    raise RuntimeError(
                        f"mix worker {pid} exited with status "
                        f"{os.waitstatus_to_exitcode(status)} "
                        f"without results for chains {missing}"
                    )
        finally:
            # A malformed reply aborts the loop above; still close and reap
            # the untouched workers so repeated failures cannot exhaust the
            # fd table or accumulate zombies.
            for pid, read_fd, _ in pending:
                try:
                    os.close(read_fd)
                except OSError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except OSError:
                    pass
        for index in range(len(chains)):
            if errors[index] is not None:
                raise errors[index]
        return results

    @staticmethod
    def _run_slice(fn, chains, indices: Sequence[int], ledgers: Sequence[TrafficLedger]) -> bytes:
        """Worker body: run ``fn`` over this slice; frame results and ledger delta."""
        marks = [ledger.record_count() for ledger in ledgers]
        frames = []
        for index in indices:
            try:
                tag, payload = _encode_result(fn(chains[index]))
            except BaseException as exc:
                tag, payload = _TAG_ERROR, _encode_exception(exc)
            frames.append(_pack_frame(index, tag, payload))
        deltas = [
            [record.to_tuple() for record in ledger.records_since(mark)]
            for ledger, mark in zip(ledgers, marks)
        ]
        if any(deltas):
            frames.append(_pack_frame(_LEDGER_INDEX, _TAG_LEDGERS, pickle.dumps(deltas)))
        return b"".join(frames)

    def close(self) -> None:
        """Nothing pooled: workers are forked per call."""
