"""Microbenchmark sweep for the native crypto kernels (DESIGN.md §11).

Each proven hot kernel is timed per tier at the batch sizes the protocol
actually runs (a chain's round batch: hundreds to tens of thousands of
entries), and the tentpole's speedup floors are asserted directly:

* batched ChaCha20 blocks — native ≥ 2.5× the python tier;
* modp ``scalar_mult_batch`` — native ≥ 2.5× the CPython ``pow`` loop.

Both floors are ratios of two short wall clocks, so they carry the
``wallclock`` marker: tier-1 deselects them, the ``benchmarks`` CI job
selects them.  What repeats exactly — each kernel's output against the
python tier — is tier-1's, in ``tests/test_native_kernels.py``.

The remaining kernels (AEAD seal/open cascade, fixed-point batch, fused
multi-scalar accumulate) are swept and recorded without a floor: their win
rides the same arithmetic, and one representative gate per substrate keeps
the assertion surface small while the table in ``results/kernel_speedups``
documents the rest.  The whole module skips when the extension is absent —
a box without a C compiler still runs every other benchmark.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import render_table
from repro.crypto import kernels
from repro.crypto.aead import adec_batch, aenc_batch
from repro.crypto.chacha20 import chacha20_blocks_batch
from repro.crypto.group import ModPGroup

from benchmarks.conftest import save_result

pytestmark = pytest.mark.skipif(
    not kernels.native_available(),
    reason="_xrdkernels extension not built (no C compiler?)",
)

#: Entries per batch: one mid-size chain batch.  Large enough that per-call
#: dispatch overhead is amortised out of the per-op figures, small enough
#: that the sweep stays CI-sized.
BATCH = 2048

#: Measured speedup floors (see ISSUE 9 acceptance).  The reference box
#: measured ~4.5× for chacha against the since-deleted numpy tier (the
#: python tier is far slower still) and ~9× for modp vs pow; 2.5× leaves
#: room for slower CI arithmetic without letting a disabled kernel pass.
CHACHA_FLOOR = 2.5
MODP_FLOOR = 2.5


@pytest.fixture(autouse=True)
def _kernel_state():
    kernels.reset_kernel_for_tests()
    yield
    kernels.reset_kernel_for_tests()


def _time_per_op(func, ops: int, repeats: int = 3, inner: int = 1) -> float:
    """Best-of-``repeats`` per-op time, ``inner`` calls per timed window.

    The floored comparisons pass ``inner > 1``: one native batch call is
    well under a millisecond, short enough for scheduler jitter to swing
    a single-call measurement ~40% on a busy box — several calls per
    window amortise that out of the minimum.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            func()
        best = min(best, (time.perf_counter() - started) / (ops * inner))
    return best


def _chacha_inputs(count: int):
    keys = [i.to_bytes(4, "big") * 8 for i in range(count)]
    nonces = [i.to_bytes(4, "big") * 3 for i in range(count)]
    counters = list(range(count))
    return keys, nonces, counters


@pytest.mark.wallclock
def test_chacha20_blocks_native_vs_numpy(benchmark):
    """The headline symmetric gate: native blocks ≥ 2.5× the python tier.

    (The name predates the numpy tier's removal; it is kept so the recorded
    baselines stay comparable.)
    """
    keys, nonces, counters = _chacha_inputs(BATCH)

    def run_tier(tier, repeats, inner):
        kernels.set_active_kernel(tier)
        return _time_per_op(
            lambda: chacha20_blocks_batch(keys, nonces, counters),
            BATCH,
            repeats=repeats,
            inner=inner,
        )

    python_per_op = run_tier("python", repeats=3, inner=1)
    kernels.set_active_kernel("native")
    benchmark(chacha20_blocks_batch, keys, nonces, counters)
    native_per_op = run_tier("native", repeats=7, inner=4)
    speedup = python_per_op / native_per_op
    save_result(
        "kernel_chacha_speedup",
        f"ChaCha20 blocks x{BATCH}: python {python_per_op * 1e6:.2f} us/block, "
        f"native {native_per_op * 1e6:.2f} us/block ({speedup:.1f}x)",
    )
    assert speedup >= CHACHA_FLOOR


@pytest.mark.wallclock
def test_modp_scalar_mult_batch_native_vs_pow(benchmark):
    """The headline group gate: native Montgomery ≥ 2.5× CPython ``pow``."""
    group = ModPGroup(bits=96)
    elements = [pow(group.generator, 3 + i, group.prime) for i in range(BATCH)]
    exponent = group.order // 3

    def python_loop():
        return [pow(e, exponent, group.prime) for e in elements]

    python_per_op = _time_per_op(python_loop, BATCH)
    kernels.set_active_kernel("native")
    benchmark(group.scalar_mult_batch, elements, exponent)
    native_per_op = _time_per_op(
        lambda: group.scalar_mult_batch(elements, exponent), BATCH, repeats=5, inner=2
    )
    assert group.scalar_mult_batch(elements, exponent) == python_loop()
    speedup = python_per_op / native_per_op
    save_result(
        "kernel_modp_speedup",
        f"modp scalar_mult_batch x{BATCH} ({group.prime.bit_length()}-bit "
        f"modulus): pow {python_per_op * 1e6:.2f} us/op, native "
        f"{native_per_op * 1e6:.2f} us/op ({speedup:.1f}x)",
    )
    assert speedup >= MODP_FLOOR


def test_kernel_sweep_table(benchmark):
    """Per-kernel per-tier sweep; recorded, not floored (see module docstring)."""
    group = ModPGroup(bits=96)
    keys, nonces, counters = _chacha_inputs(BATCH)
    aead_keys = keys
    plaintexts = [i.to_bytes(4, "big") * 50 for i in range(BATCH)]
    elements = [pow(group.generator, 3 + i, group.prime) for i in range(BATCH)]
    exponents = [(group.order // 7 + i) % group.order for i in range(BATCH)]
    sealed = aenc_batch(aead_keys, 1, plaintexts)

    def accumulate_python():
        value = 1
        for element, exponent in zip(elements, exponents):
            value = value * pow(element, exponent, group.prime) % group.prime
        return value

    cases = [
        ("chacha20 blocks", lambda: chacha20_blocks_batch(keys, nonces, counters)),
        ("aead seal", lambda: aenc_batch(aead_keys, 1, plaintexts)),
        ("aead open", lambda: adec_batch(aead_keys, 1, sealed)),
        ("modp scalar_mult", lambda: group.scalar_mult_batch(elements, exponents[0])),
        ("modp fixed_mult", lambda: group.fixed_point_mult_batch(elements[0], exponents)),
        ("modp accumulate", lambda: group.multi_scalar_accumulate(elements, exponents)),
    ]
    rows = []
    for name, func in cases:
        row = [name]
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            if tier == "python" and name == "modp accumulate":
                per_op = _time_per_op(accumulate_python, BATCH, repeats=1)
            else:
                repeats = 1 if tier == "python" else 3
                per_op = _time_per_op(func, BATCH, repeats=repeats)
            row.append(f"{per_op * 1e6:.2f}")
        rows.append(row)

    def whole_sweep():
        kernels.set_active_kernel("native")
        for _, func in cases:
            func()

    benchmark.pedantic(whole_sweep, rounds=1, iterations=1)
    save_result(
        "kernel_speedups",
        f"Native kernel sweep, {BATCH}-entry batches "
        f"({group.prime.bit_length()}-bit modp group)\n"
        + render_table(["kernel", "python us/op", "native us/op"], rows),
    )
