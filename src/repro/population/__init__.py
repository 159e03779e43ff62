"""The vectorized user-population layer (DESIGN.md §7).

A :class:`UserPopulation` owns every honest user of a deployment as
column-oriented batches — names, chain assignments, per-chain loopback keys —
and exposes whole-chain build and fetch operations so the engine's prepare
and fetch stages run per *chain* instead of per *user*.  The per-user
:class:`~repro.client.user.User` API remains the reference semantics; the
population produces bit-identical outputs (enforced by the engine parity
suite) while feeding the batched crypto fast paths with whole-chain inputs.

:mod:`repro.population.streaming` (DESIGN.md §9) slices those whole-chain
operations into bounded chunks, so peak memory is O(chunk) instead of
O(users).
"""

from repro.population.population import UserPopulation
from repro.population.streaming import BuiltChunk, built_chunks, chunk_spans
from repro.registry import POPULATIONS, PopulationKind

__all__ = ["UserPopulation", "BuiltChunk", "built_chunks", "chunk_spans"]


def _make_object_population(group=None, users=None, num_chains=None):
    # The per-user reference path keeps no population object at all.
    return None


def _make_batched_population(group=None, users=None, num_chains=None):
    return UserPopulation(group, users, num_chains)


if not POPULATIONS.is_known(PopulationKind.OBJECT):  # tolerate module re-import
    POPULATIONS.register(PopulationKind.OBJECT, _make_object_population)
    POPULATIONS.register(PopulationKind.BATCHED, _make_batched_population)
