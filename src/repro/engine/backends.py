"""The execution backend for the per-chain stages (DESIGN.md §2.2).

The backend decides *how* the per-chain work of a round stage is executed;
the :class:`~repro.engine.round_engine.RoundEngine` decides *what* that work
is — the client build, intake, precompute and mix of every chain.  The
contract is a single ordered map:

``map_chains(fn, chains)`` must return ``[fn(chain) for chain in chains]`` —
same length, same order — and must propagate the first exception raised by
any ``fn`` call.  ``fn`` touches only the given chain's state (members,
per-round records, its own build columns); chains share no mutable state,
which is exactly the independence the paper's horizontal-scaling claim
rests on, so a backend is free to run them concurrently.

:class:`ParallelBackend` is the one backend.  The calling thread drains the
call's chains together with up to ``available CPUs − 1`` helper threads.
The native kernels release the GIL for each batched call, so the chains'
group arithmetic and AEAD overlap; the Python between the calls (and all of
it on the python tier) still serialises on the GIL.  With ``helpers=0`` it
starts no thread and runs the chains one after another on the caller — the
reference execution order production is tested against, installed with
:meth:`~repro.coordinator.network.Deployment.use_backend`.

Running chains in separate OS processes is the distributed runtime's job
(:mod:`repro.runner`, one process per role over TCP), not a backend's.

Because every member's per-round randomness is an independent derived stream
(see :class:`~repro.mixnet.ahs.ChainMember`), every helper count produces
bit-identical results under a fixed deployment seed.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
import weakref
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError

__all__ = ["ParallelBackend", "available_cpus"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    exposes one (a container or ``taskset`` narrows it), else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Batch:
    """One ``map_chains`` call: its chains are claimed one at a time by
    whichever threads drain it — the caller and any free helper.  Each runs
    in a copy of the caller's context, so a helper's work is charged to the
    caller's round trace (:mod:`repro.trace`)."""

    def __init__(self, fn: Callable, chains: List) -> None:
        self.context = contextvars.copy_context()
        self.fn: Optional[Callable] = fn
        self.chains: Optional[List] = chains
        self.results: Optional[List] = [None] * len(chains)
        self.errors: Dict[int, BaseException] = {}
        self.done = threading.Event()
        self._size = len(chains)
        self._claimed = 0
        self._finished = 0
        self._lock = threading.Lock()

    def drain(self) -> None:
        """Run unclaimed chains until none is left."""
        while True:
            with self._lock:
                index = self._claimed
                if index == self._size:
                    return
                self._claimed += 1
            try:
                self.results[index] = self.context.copy().run(self.fn, self.chains[index])
            except BaseException as exc:
                # Re-raised on the caller; a helper that died holding a claim
                # would leave the caller waiting forever.
                self.errors[index] = exc
            with self._lock:
                self._finished += 1
                if self._finished == self._size:
                    self.done.set()


def _help(work: "queue.SimpleQueue[Optional[_Batch]]") -> None:
    """A helper thread's loop: drain each posted batch until told to stop."""
    while True:
        batch = work.get()
        if batch is None:
            return
        batch.drain()
        del batch  # an idle helper must not pin the last round's data


def _stop(work: "queue.SimpleQueue[Optional[_Batch]]", threads: List[threading.Thread]) -> None:
    for _ in threads:
        work.put(None)


class ParallelBackend:
    """Run chains on the calling thread and a pool of helper threads.

    Each ``map_chains`` call posts its chains as one queue of claims; the
    calling thread drains that queue alongside the helpers, then waits only
    for the chains a helper is already running.  So one CPU (``helpers=0``)
    means no thread at all, two concurrent callers — the stagger thread's
    mix and the coordinator's build — both finish however busy the helpers
    are, and a nested call cannot deadlock.

    ``helpers`` defaults to ``available_cpus() − 1``; helpers start lazily,
    never more than a call has chains to share.  They hold no reference to
    the backend: closing it, or dropping the last reference to it, stops
    them.
    """

    def __init__(self, helpers: Optional[int] = None) -> None:
        if helpers is not None and helpers < 0:
            raise ConfigurationError("a parallel backend cannot have a negative helper count")
        self.helpers = available_cpus() - 1 if helpers is None else helpers
        self._work: "queue.SimpleQueue[Optional[_Batch]]" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        # Concurrent callers may both start helpers.
        self._lock = threading.Lock()
        weakref.finalize(self, _stop, self._work, self._threads)

    def _start_helpers(self, count: int) -> None:
        with self._lock:
            while len(self._threads) < count:
                thread = threading.Thread(
                    target=_help,
                    args=(self._work,),
                    name=f"xrd-chain-{len(self._threads)}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def map_chains(self, fn: Callable[[_T], _R], chains: Sequence[_T]) -> List[_R]:
        chains = list(chains)
        wanted = min(self.helpers, len(chains) - 1)
        if wanted < 1:
            return [fn(chain) for chain in chains]
        self._start_helpers(wanted)
        batch = _Batch(fn, chains)
        for _ in range(wanted):
            self._work.put(batch)
        batch.drain()
        batch.done.wait()
        results, errors = batch.results, batch.errors
        # A helper still busy elsewhere pops this batch later and finds it
        # drained; leave it nothing of the round to hold on to.
        batch.fn = batch.chains = batch.results = batch.context = None
        batch.errors = {}
        if errors:
            raise errors[min(errors)]
        return results

    def close(self) -> None:
        """Stop the helpers; idempotent."""
        with self._lock:
            threads = list(self._threads)
            self._threads.clear()
        _stop(self._work, threads)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
