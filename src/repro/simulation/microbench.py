"""Microbenchmarks of this library's own primitives.

The measurements feed :meth:`CostModel.from_primitive_costs`, giving a cost
model for *this* substrate on the active crypto-kernel tier.  Comparing it
against :meth:`CostModel.paper_testbed` makes explicit how much of the gap
to the paper's absolute numbers is the substrate (pure Python on the
``python`` tier, C kernels under a Python driver on ``native``) rather than
the protocol itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.aead import aenc
from repro.crypto.group import Ed25519Group
from repro.crypto.kernels import active_kernel
from repro.crypto.nizk import prove_dlog, verify_dlog
from repro.simulation.costmodel import CostModel

__all__ = ["PrimitiveTimings", "measure_primitives", "measured_cost_model"]


@dataclass(frozen=True)
class PrimitiveTimings:
    """Measured per-operation times, in seconds."""

    scalar_mult: float
    aead_fixed: float
    aead_per_byte: float
    nizk_prove: float
    nizk_verify: float
    iterations: int


def _time_it(function, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        function()
    return (time.perf_counter() - start) / iterations


def measure_primitives(iterations: int = 20, group=None) -> PrimitiveTimings:
    """Time the primitives this library actually executes."""
    group = group or Ed25519Group()
    scalar = group.random_scalar()
    point = group.base_mult(group.random_scalar())
    scalar_mult = _time_it(lambda: group.scalar_mult(point, scalar), iterations)

    key = b"\x07" * 32
    small = b"x" * 64
    large = b"x" * 4096
    aead_small = _time_it(lambda: aenc(key, 1, small), iterations)
    aead_large = _time_it(lambda: aenc(key, 1, large), iterations)
    aead_per_byte = max(0.0, (aead_large - aead_small) / (len(large) - len(small)))
    aead_fixed = max(0.0, aead_small - aead_per_byte * len(small))

    proof = prove_dlog(group, group.base(), scalar)
    public = group.base_mult(scalar)
    nizk_prove = _time_it(lambda: prove_dlog(group, group.base(), scalar), max(2, iterations // 2))
    nizk_verify = _time_it(
        lambda: verify_dlog(group, group.base(), public, proof), max(2, iterations // 2)
    )
    return PrimitiveTimings(
        scalar_mult=scalar_mult,
        aead_fixed=aead_fixed,
        aead_per_byte=aead_per_byte,
        nizk_prove=nizk_prove,
        nizk_verify=nizk_verify,
        iterations=iterations,
    )


def measured_cost_model(
    iterations: int = 20, group=None, cores_per_server: int = 1
) -> CostModel:
    """A :class:`CostModel` built from microbenchmarks of this library."""
    timings = measure_primitives(iterations=iterations, group=group)
    return CostModel.from_primitive_costs(
        scalar_mult=timings.scalar_mult,
        aead_fixed=timings.aead_fixed,
        aead_per_byte=timings.aead_per_byte,
        cores_per_server=cores_per_server,
        source=f"measured ({active_kernel().value} kernel tier, {iterations} iterations)",
    )
