"""The round-execution engine (DESIGN.md §2).

Splits round orchestration policy (:class:`RoundEngine`, the staged
pipeline) from execution (:class:`ParallelBackend`: each stage's chains on
the calling thread plus a helper pool, with no helper in the serial
reference) and scheduling (:class:`StaggeredScheduler`, the paper's stagger
optimisation).  :class:`Deployment <repro.coordinator.network.Deployment>`
is a thin facade over this package.
"""

from repro.engine.backends import ParallelBackend
from repro.engine.round_engine import RoundEngine
from repro.engine.stages import ChainOutcome, RoundContext, RoundReport, RoundSpec
from repro.engine.stagger import StaggeredScheduler

__all__ = [
    "ParallelBackend",
    "RoundEngine",
    "RoundSpec",
    "RoundReport",
    "RoundContext",
    "ChainOutcome",
    "StaggeredScheduler",
]
