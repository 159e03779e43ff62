"""The batched-crypto fast path: correctness and the precomputation speedup.

``Ed25519Group`` keeps a fixed-base comb table for ``base_mult``, per-point
window tables for ``scalar_mult``, a shared-recoding batch blinding helper,
and Straus accumulation for ``Σ sᵢ·Pᵢ`` (used by NIZK verification).  All of
them must agree exactly with the reference double-and-add ladder
(``scalar_mult_slow``), and the comb table must actually be faster — the CI
microbench job runs the timing test below as its smoke check.
"""

import random
import time

import pytest

from repro.crypto.group import Ed25519Group, ModPGroup
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def curve():
    return Ed25519Group()


@pytest.fixture()
def fixed_rng():
    return random.Random(20260729)


EDGE_SCALARS = [0, 1, 2, 15, 16, 17, 255, 256]


class TestFixedBaseComb:
    def test_matches_reference_ladder(self, curve, fixed_rng):
        base = curve.base()
        scalars = EDGE_SCALARS + [
            curve.order - 1,
            curve.order,
            curve.order + 7,
            *(fixed_rng.randrange(curve.order) for _ in range(16)),
        ]
        for scalar in scalars:
            assert curve.base_mult(scalar) == curve.scalar_mult_slow(base, scalar)

    def test_zero_gives_identity(self, curve):
        assert curve.base_mult(0).is_identity()
        assert curve.base_mult(curve.order).is_identity()

    def test_scalar_mult_routes_base_point(self, curve, fixed_rng):
        scalar = fixed_rng.randrange(curve.order)
        assert curve.scalar_mult(curve.base(), scalar) == curve.base_mult(scalar)


class TestWindowedScalarMult:
    def test_matches_reference_ladder(self, curve, fixed_rng):
        point = curve.base_mult(0xDEADBEEF)
        for scalar in EDGE_SCALARS + [curve.order - 1] + [
            fixed_rng.randrange(curve.order) for _ in range(12)
        ]:
            assert curve.scalar_mult(point, scalar) == curve.scalar_mult_slow(point, scalar)

    def test_identity_point_short_circuits(self, curve):
        assert curve.scalar_mult(curve.identity(), 12345).is_identity()

    def test_diffie_hellman_agreement_still_holds(self, curve, fixed_rng):
        a = fixed_rng.randrange(1, curve.order)
        b = fixed_rng.randrange(1, curve.order)
        shared_ab = curve.diffie_hellman(curve.base_mult(b), a)
        shared_ba = curve.diffie_hellman(curve.base_mult(a), b)
        assert shared_ab == shared_ba


class TestBatchBlinding:
    def test_batch_matches_individual(self, curve, fixed_rng):
        points = [curve.base_mult(fixed_rng.randrange(1, curve.order)) for _ in range(8)]
        scalar = fixed_rng.randrange(1, curve.order)
        batch = curve.scalar_mult_batch(points, scalar)
        assert batch == [curve.scalar_mult_slow(point, scalar) for point in points]

    def test_batch_handles_zero_scalar_and_identity(self, curve):
        points = [curve.identity(), curve.base()]
        assert all(point.is_identity() for point in curve.scalar_mult_batch(points, 0))
        blinded = curve.scalar_mult_batch(points, 5)
        assert blinded[0].is_identity()
        assert blinded[1] == curve.base_mult(5)


class TestMultiScalarAccumulate:
    def test_matches_sum_of_products(self, curve, fixed_rng):
        points = [curve.base_mult(fixed_rng.randrange(1, curve.order)) for _ in range(5)]
        scalars = [fixed_rng.randrange(curve.order) for _ in range(5)]
        expected = curve.sum(
            curve.scalar_mult_slow(point, scalar) for point, scalar in zip(points, scalars)
        )
        assert curve.multi_scalar_accumulate(points, scalars) == expected

    def test_empty_and_degenerate_terms(self, curve):
        assert curve.multi_scalar_accumulate([], []).is_identity()
        mixed = curve.multi_scalar_accumulate(
            [curve.identity(), curve.base()], [99, 0]
        )
        assert mixed.is_identity()

    def test_length_mismatch_rejected(self, curve):
        with pytest.raises(ConfigurationError):
            curve.multi_scalar_accumulate([curve.base()], [1, 2])

    def test_modp_group_agrees(self, fixed_rng):
        group = ModPGroup(bits=96)
        elements = [group.base_mult(fixed_rng.randrange(1, group.order)) for _ in range(4)]
        scalars = [fixed_rng.randrange(group.order) for _ in range(4)]
        expected = group.sum(
            group.scalar_mult(element, scalar) for element, scalar in zip(elements, scalars)
        )
        assert group.multi_scalar_accumulate(elements, scalars) == expected

    def test_verification_identity(self, curve, fixed_rng):
        """The fused check used by verify_dlog: s·G − c·P == R."""
        secret = fixed_rng.randrange(1, curve.order)
        nonce = fixed_rng.randrange(1, curve.order)
        challenge = fixed_rng.randrange(1, curve.order)
        public = curve.base_mult(secret)
        commitment = curve.base_mult(nonce)
        response = (nonce + challenge * secret) % curve.order
        combined = curve.multi_scalar_accumulate(
            [curve.base(), public], [response, curve.order - challenge]
        )
        assert combined == commitment


class TestPrecomputationSpeed:
    @pytest.mark.wallclock
    def test_base_mult_fast_path_at_least_as_fast_as_double_and_add(self, curve, fixed_rng):
        """CI microbench smoke: the comb table must not lose to the old ladder.

        Measured as the best of several batches so scheduler noise cannot
        flip the comparison; the comb path is ~5x faster in practice, so the
        margin here is very comfortable.
        """
        scalars = [fixed_rng.randrange(1, curve.order) for _ in range(8)]
        base = curve.base()
        curve.base_mult(1)  # warm the comb table

        def best_of(fn, repeats=3):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                for scalar in scalars:
                    fn(scalar)
                timings.append(time.perf_counter() - start)
            return min(timings)

        fast = best_of(curve.base_mult)
        slow = best_of(lambda scalar: curve.scalar_mult_slow(base, scalar))
        assert fast <= slow, f"comb base_mult slower than double-and-add: {fast:.4f}s vs {slow:.4f}s"
