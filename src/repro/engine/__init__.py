"""Pluggable round-execution engine (DESIGN.md §2).

Splits round orchestration policy (:class:`RoundEngine`, the staged
pipeline) from execution strategy (:class:`ParallelBackend`, production:
each stage's chains on the calling thread plus a helper pool;
:class:`SerialBackend`, the reference order) and scheduling
(:class:`StaggeredScheduler`, the paper's stagger optimisation).  :class:`Deployment
<repro.coordinator.network.Deployment>` is a thin facade over this package.
"""

from repro.engine.backends import (
    ExecutionBackend,
    ParallelBackend,
    SerialBackend,
)
from repro.engine.round_engine import RoundEngine
from repro.engine.stages import ChainOutcome, RoundContext, RoundReport, RoundSpec
from repro.engine.stagger import StaggeredScheduler

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ParallelBackend",
    "RoundEngine",
    "RoundSpec",
    "RoundReport",
    "RoundContext",
    "ChainOutcome",
    "StaggeredScheduler",
]
