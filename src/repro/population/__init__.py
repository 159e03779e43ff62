"""The vectorized user-population layer (DESIGN.md §7).

A :class:`UserPopulation` owns every honest user of a deployment as
column-oriented batches — names, chain assignments, per-chain loopback keys —
and exposes whole-chain build and fetch operations so the engine's prepare
and fetch stages run per *chain* instead of per *user*.  It is the only
client executor; the per-user reference it is held bit-identical to lives in
``tests/user_oracle.py``.

:mod:`repro.population.streaming` (DESIGN.md §9) slices those whole-chain
operations into bounded chunks, so peak memory is O(chunk) instead of
O(users).
"""

from repro.population.population import UserPopulation
from repro.population.streaming import BuiltChunk, built_chunks, chunk_spans

__all__ = ["UserPopulation", "BuiltChunk", "built_chunks", "chunk_spans"]
