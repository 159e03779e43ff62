"""Pluggable execution backends for the mix stage (DESIGN.md §2.2).

A backend decides *how* the per-chain mixing work of one round is executed;
the :class:`~repro.engine.round_engine.RoundEngine` decides *what* that work
is.  The contract is a single ordered map:

``map_chains(fn, chains)`` must return ``[fn(chain) for chain in chains]`` —
same length, same order — and must propagate the first exception raised by
any ``fn`` call.  ``fn`` touches only the given chain's state (members,
per-round records) and produces a :class:`~repro.engine.stages.ChainOutcome`;
chains share no mutable state, which is exactly the independence the paper's
horizontal-scaling claim rests on, so backends are free to run them
concurrently.

Two backends are provided:

* :class:`SerialBackend` — one chain after another on the calling thread;
  the default, and the reference semantics.
* :class:`ParallelBackend` — chains dispatched to a thread pool.  The
  native kernels release the GIL for each batched call, so the chains'
  group arithmetic and AEAD overlap; the Python between the calls (and all
  of it on the python tier) still serialises on the GIL.

Running chains in separate OS processes is the distributed runtime's job
(:mod:`repro.runner`, one process per role over TCP), not a backend's.

Because every member's per-round randomness is an independent derived stream
(see :class:`~repro.mixnet.ahs.ChainMember`), every backend produces
bit-identical results under a fixed deployment seed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.errors import ConfigurationError
from repro.registry import ExecutionBackendKind

__all__ = ["ExecutionBackend", "SerialBackend", "ParallelBackend", "make_backend"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class ExecutionBackend:
    """Contract every mix-stage backend implements."""

    name: str = "abstract"

    def map_chains(self, fn: Callable[[_T], _R], chains: Sequence[_T]) -> List[_R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Mix chains one after another — the reference execution order."""

    name = "serial"

    def map_chains(self, fn: Callable[[_T], _R], chains: Sequence[_T]) -> List[_R]:
        return [fn(chain) for chain in chains]


class ParallelBackend(ExecutionBackend):
    """Mix chains concurrently on a thread pool.

    The pool is created lazily and reused across rounds, sized to the
    machine's CPU count capped by the chain count of the first dispatch;
    ``max_workers`` pins it (tests install such a backend with
    :meth:`~repro.coordinator.network.Deployment.use_backend`).
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("a parallel backend needs at least one worker")
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        # The staggered scheduler may run the precompute stage on the
        # coordinator thread while a mix runs on its worker thread; both go
        # through map_chains, so lazy pool creation must be race-free.
        self._pool_lock = threading.Lock()

    def _pool(self, num_tasks: int) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                workers = self._max_workers or min(max(num_tasks, 1), os.cpu_count() or 4)
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="xrd-chain"
                )
            return self._executor

    def map_chains(self, fn: Callable[[_T], _R], chains: Sequence[_T]) -> List[_R]:
        chains = list(chains)
        if len(chains) <= 1:
            return [fn(chain) for chain in chains]
        # Executor.map preserves submission order and re-raises the first
        # worker exception on iteration.
        return list(self._pool(len(chains)).map(fn, chains))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


_CONSTRUCTORS = {
    ExecutionBackendKind.SERIAL: SerialBackend,
    ExecutionBackendKind.PARALLEL: ParallelBackend,
}


def make_backend(kind: Union[str, ExecutionBackendKind]) -> ExecutionBackend:
    """Build the backend an :class:`~repro.registry.ExecutionBackendKind` (or
    its string) names; an unknown name raises :class:`ValueError`."""
    return _CONSTRUCTORS[ExecutionBackendKind(kind)]()
