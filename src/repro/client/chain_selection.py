"""Chain selection (§5.3.1): the √2-approximation intersection scheme.

Users are placed into ``ℓ + 1`` groups; every group is connected to ``ℓ``
*logical* chains built by the paper's inductive construction, which
guarantees that any two groups share at least one chain:

* ``C_1 = (1, …, ℓ)``
* ``C_{i+1} = (C_1[i], C_2[i], …, C_i[i], C_i[ℓ]+1, …, C_i[ℓ]+(ℓ−i))`` for
  ``i = 1 … ℓ`` (1-based indices).

The largest logical chain index is ``ℓ(ℓ+1)/2``.  The paper picks
``ℓ = ⌈√(2n + 0.25) − 0.5⌉`` so this is as close as possible to (and at
least) the number ``n`` of physical chains; logical chains are then mapped
onto physical chains modulo ``n``.  Group membership is derived from the hash
of the user's public key, so every participant can compute everybody's chain
assignment — a requirement for partners to find their intersection chain.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

from repro.errors import ChainSelectionError

__all__ = [
    "ell_for_chains",
    "num_logical_chains",
    "build_group_chain_sets",
    "assign_group",
    "chains_for_group",
    "chains_for_user",
    "intersection_chain",
    "intersection_logical_chain",
    "all_pairs_intersect",
    "expected_chain_load",
]


def ell_for_chains(num_chains: int) -> int:
    """Number of chains ``ℓ`` each user connects to, for ``n`` physical chains.

    This is the paper's ``ℓ = ⌈√(2n + 0.25) − 0.5⌉`` — the smallest ``ℓ``
    with ``ℓ(ℓ+1)/2 ≥ n`` — a √2-approximation of the ``√n`` lower bound.
    """
    if num_chains < 1:
        raise ChainSelectionError("the network needs at least one chain")
    ell = math.ceil(math.sqrt(2 * num_chains + 0.25) - 0.5)
    while ell * (ell + 1) // 2 < num_chains:  # guard against float rounding
        ell += 1
    while ell > 1 and (ell - 1) * ell // 2 >= num_chains:
        ell -= 1
    return ell


def num_logical_chains(ell: int) -> int:
    """Largest logical chain index used by the construction: ``ℓ(ℓ+1)/2``."""
    if ell < 1:
        raise ChainSelectionError("ℓ must be positive")
    return ell * (ell + 1) // 2


def build_group_chain_sets(ell: int) -> Tuple[Tuple[int, ...], ...]:
    """Return the ``ℓ + 1`` ordered logical-chain sets ``C_1 … C_{ℓ+1}`` (1-based ids)."""
    if ell < 1:
        raise ChainSelectionError("ℓ must be positive")
    sets: List[List[int]] = [list(range(1, ell + 1))]
    for i in range(1, ell + 1):
        previous = sets[i - 1]
        prefix = [sets[j][i - 1] for j in range(i)]
        start = previous[ell - 1] + 1
        suffix = list(range(start, start + (ell - i)))
        sets.append(prefix + suffix)
    return tuple(tuple(chain_set) for chain_set in sets)


def assign_group(public_key_bytes: bytes, num_groups: int) -> int:
    """Pseudo-random, publicly computable group assignment from a public key (0-based)."""
    if num_groups < 1:
        raise ChainSelectionError("there must be at least one group")
    digest = hashlib.sha256(b"xrd/group-assignment|" + public_key_bytes).digest()
    return int.from_bytes(digest[:8], "big") % num_groups


def _logical_to_physical(logical: int, num_chains: int) -> int:
    """Map a 1-based logical chain id onto a 0-based physical chain id."""
    return (logical - 1) % num_chains


def chains_for_group(group_index: int, num_chains: int) -> List[int]:
    """Physical chain ids (0-based, length ℓ, possibly with repeats) for a group."""
    ell = ell_for_chains(num_chains)
    sets = build_group_chain_sets(ell)
    if not 0 <= group_index < len(sets):
        raise ChainSelectionError("group index out of range")
    return [_logical_to_physical(logical, num_chains) for logical in sets[group_index]]


def chains_for_user(public_key_bytes: bytes, num_chains: int) -> List[int]:
    """Physical chain ids the owner of ``public_key_bytes`` must send to each round.

    A pure function of the (public key, chain count) pair; the population
    derives every user's at once, from each group's chains
    (``UserPopulation.chain_assignments``).
    """
    ell = ell_for_chains(num_chains)
    return chains_for_group(assign_group(public_key_bytes, ell + 1), num_chains)


def intersection_logical_chain(public_key_a: bytes, public_key_b: bytes, num_chains: int) -> int:
    """Smallest-index *logical* chain shared by the two users' groups.

    The tie-break (smallest index) matches §5.3.2 and is what makes both
    partners pick the same chain independently.
    """
    ell = ell_for_chains(num_chains)
    sets = build_group_chain_sets(ell)
    group_a = assign_group(public_key_a, ell + 1)
    group_b = assign_group(public_key_b, ell + 1)
    common = set(sets[group_a]) & set(sets[group_b])
    if not common:  # pragma: no cover - impossible by construction; defensive
        raise ChainSelectionError("chain sets do not intersect; construction violated")
    return min(common)


def intersection_chain(public_key_a: bytes, public_key_b: bytes, num_chains: int) -> int:
    """Physical chain (0-based) on which the two users exchange conversation messages."""
    logical = intersection_logical_chain(public_key_a, public_key_b, num_chains)
    return _logical_to_physical(logical, num_chains)


def all_pairs_intersect(ell: int) -> bool:
    """Check the construction's invariant: every pair of groups shares a chain."""
    sets = build_group_chain_sets(ell)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not set(sets[i]) & set(sets[j]):
                return False
    return True


def expected_chain_load(num_users: int, num_chains: int) -> float:
    """Expected number of messages per chain per round: ``M·ℓ / n`` (§4.2)."""
    if num_users < 0:
        raise ChainSelectionError("number of users must be non-negative")
    ell = ell_for_chains(num_chains)
    return num_users * ell / num_chains


def group_sizes(user_public_keys: Sequence[bytes], num_chains: int) -> List[int]:
    """Histogram of users per group — used to test load balance."""
    ell = ell_for_chains(num_chains)
    counts = [0] * (ell + 1)
    for public_key in user_public_keys:
        counts[assign_group(public_key, ell + 1)] += 1
    return counts
