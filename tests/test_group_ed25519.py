"""Tests for the edwards25519 group, on whichever kernel tier is active
(plus, where the tier could matter, on each tier by name)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import group as group_mod
from repro.crypto import kernels
from repro.crypto.group import Ed25519Group
from repro.errors import DecodingError

from tests.test_native_kernels import SMALL_ORDER

GROUP = Ed25519Group()
SCALARS = st.integers(min_value=1, max_value=GROUP.order - 1)


@pytest.fixture(params=["python", "native"])
def each_tier(request):
    """Run a test on the reference tier and on the native one (which, on a
    box with no built extension, quietly re-proves the best lower tier)."""
    import warnings

    kernels.reset_kernel_for_tests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kernels.set_active_kernel(request.param)
    yield request.param
    kernels.reset_kernel_for_tests()


class TestBasePoint:
    def test_base_point_on_curve(self):
        # -x^2 + y^2 = 1 + d x^2 y^2 must hold for the base point.
        p = 2**255 - 19
        x, y = GROUP.base().affine()
        d = (-121665 * pow(121666, -1, p)) % p
        assert (-x * x + y * y - 1 - d * x * x * y * y) % p == 0

    def test_base_point_has_prime_order(self):
        assert GROUP.scalar_mult(GROUP.base(), GROUP.order).is_identity()
        assert not GROUP.scalar_mult(GROUP.base(), 2).is_identity()

    def test_known_base_point_y(self):
        p = 2**255 - 19
        _, y = GROUP.base().affine()
        assert y == (4 * pow(5, -1, p)) % p

    def test_base_encoding_matches_rfc8032(self):
        # The standard encoding of the edwards25519 base point.
        assert GROUP.encode(GROUP.base()).hex() == (
            "5866666666666666666666666666666666666666666666666666666666666666"
        )


#: RFC 8032 section 7.1: (secret key, public key) of the Ed25519 test vectors
#: 1, 2, 3, 1024 and SHA(abc).  The public key is the encoding of [s]B for
#: the clamped hash s of the secret key.
RFC8032_KEYS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"),
    ("f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
     "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"),
    ("833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"),
]


class TestRfc8032Vectors:
    @pytest.mark.parametrize("secret_key, public_key", RFC8032_KEYS)
    def test_base_mult_gives_the_public_key(self, each_tier, secret_key, public_key):
        digest = bytearray(hashlib.sha512(bytes.fromhex(secret_key)).digest()[:32])
        digest[0] &= 248
        digest[31] &= 127
        digest[31] |= 64
        scalar = int.from_bytes(digest, "little")  # above the order: reduced inside
        assert GROUP.encode(GROUP.base_mult(scalar)).hex() == public_key
        assert GROUP.encode(GROUP.scalar_mult(GROUP.base(), scalar)).hex() == public_key


class TestGroupLaws:
    def test_identity_is_neutral(self):
        point = GROUP.base_mult(12345)
        assert GROUP.add(point, GROUP.identity()) == point
        assert GROUP.add(GROUP.identity(), point) == point

    def test_negation(self):
        point = GROUP.base_mult(777)
        assert GROUP.add(point, GROUP.neg(point)).is_identity()

    def test_sub(self):
        a = GROUP.base_mult(10)
        b = GROUP.base_mult(4)
        assert GROUP.sub(a, b) == GROUP.base_mult(6)

    def test_associativity_small(self):
        a, b, c = GROUP.base_mult(3), GROUP.base_mult(5), GROUP.base_mult(9)
        assert GROUP.add(GROUP.add(a, b), c) == GROUP.add(a, GROUP.add(b, c))

    def test_scalar_mult_matches_repeated_addition(self):
        point = GROUP.base()
        total = GROUP.identity()
        for _ in range(7):
            total = GROUP.add(total, point)
        assert total == GROUP.scalar_mult(point, 7)

    def test_scalar_mult_zero_is_identity(self):
        assert GROUP.scalar_mult(GROUP.base(), 0).is_identity()

    def test_sum(self):
        points = [GROUP.base_mult(value) for value in (1, 2, 3, 4)]
        assert GROUP.sum(points) == GROUP.base_mult(10)

    @given(SCALARS, SCALARS)
    @settings(max_examples=10, deadline=None)
    def test_exponent_addition_property(self, a, b):
        left = GROUP.add(GROUP.base_mult(a), GROUP.base_mult(b))
        assert left == GROUP.base_mult((a + b) % GROUP.order)


class TestDiffieHellman:
    def test_shared_secret_agreement(self):
        a = GROUP.random_scalar()
        b = GROUP.random_scalar()
        assert GROUP.diffie_hellman(GROUP.base_mult(b), a) == GROUP.diffie_hellman(
            GROUP.base_mult(a), b
        )

    def test_blinding_commutes(self):
        # (x·B)^bsk1^bsk2 is independent of the blinding order — the property
        # the AHS aggregate check relies on.
        x, bsk1, bsk2 = (GROUP.random_scalar() for _ in range(3))
        point = GROUP.base_mult(x)
        one = GROUP.scalar_mult(GROUP.scalar_mult(point, bsk1), bsk2)
        two = GROUP.scalar_mult(GROUP.scalar_mult(point, bsk2), bsk1)
        assert one == two


class TestEncoding:
    def test_roundtrip(self):
        point = GROUP.base_mult(GROUP.random_scalar())
        assert GROUP.decode(GROUP.encode(point)) == point

    def test_identity_roundtrip(self):
        assert GROUP.decode(GROUP.encode(GROUP.identity())).is_identity()

    def test_encoding_length(self):
        assert len(GROUP.encode(GROUP.base())) == GROUP.element_size

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(DecodingError):
            GROUP.decode(b"\x00" * 31)

    def test_decode_rejects_out_of_range_y(self):
        with pytest.raises(DecodingError):
            GROUP.decode(b"\xff" * 32)

    def test_scalar_codec_roundtrip(self):
        scalar = GROUP.random_scalar()
        assert GROUP.decode_scalar(GROUP.encode_scalar(scalar)) == scalar

    @given(SCALARS)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, scalar):
        point = GROUP.base_mult(scalar)
        assert GROUP.decode(GROUP.encode(point)) == point


class TestSubgroupAndHashing:
    def test_base_multiples_in_prime_subgroup(self, each_tier):
        assert GROUP.is_in_prime_subgroup(GROUP.base())
        assert GROUP.is_in_prime_subgroup(GROUP.base_mult(9999))
        assert GROUP.is_in_prime_subgroup(GROUP.identity())

    @pytest.mark.parametrize("order", sorted(SMALL_ORDER))
    def test_small_order_points_rejected(self, each_tier, order):
        # Regression: the check used to reduce L mod L and accept everything.
        for point in SMALL_ORDER[order]:
            total = GROUP.identity()
            for step in range(1, order + 1):
                total = GROUP.add(total, point)
                assert total.is_identity() == (step == order)
            assert not GROUP.is_in_prime_subgroup(point)

    @pytest.mark.parametrize("order", sorted(SMALL_ORDER))
    def test_prime_order_point_plus_small_order_point_rejected(self, each_tier, order):
        for point in SMALL_ORDER[order]:
            assert not GROUP.is_in_prime_subgroup(GROUP.add(GROUP.base_mult(31337), point))

    def test_hash_to_scalar_deterministic(self):
        assert GROUP.hash_to_scalar(b"a", b"b") == GROUP.hash_to_scalar(b"a", b"b")

    def test_hash_to_scalar_domain_separated(self):
        assert GROUP.hash_to_scalar(b"ab", b"c") != GROUP.hash_to_scalar(b"a", b"bc")

    def test_random_scalar_range(self):
        for _ in range(20):
            assert 1 <= GROUP.random_scalar() < GROUP.order

    def test_point_hash_consistent_with_equality(self):
        a = GROUP.base_mult(5)
        b = GROUP.add(GROUP.base_mult(2), GROUP.base_mult(3))
        assert a == b
        assert hash(a) == hash(b)

    def test_point_not_equal_to_other_types(self):
        assert GROUP.base() != object()


class TestWindowTable:
    """The python tier's 4-bit window tables: the base point's is built once
    and pinned, any other point's lives only as long as the call using it."""

    def test_base_point_table_is_pinned(self):
        table = group_mod._window_table(GROUP.base())
        assert group_mod._window_table(GROUP.base()) is table
        assert table == [GROUP.scalar_mult_slow(GROUP.base(), k) for k in range(1, 16)]

    def test_every_other_point_gets_a_new_table(self):
        encoded = GROUP.encode(GROUP.base_mult(7))
        first, second = GROUP.decode(encoded), GROUP.decode(encoded)
        table = group_mod._window_table(first)
        assert group_mod._window_table(first) is not table
        assert group_mod._window_table(second) == table
        assert table == [GROUP.scalar_mult_slow(first, k) for k in range(1, 16)]

    def test_a_table_leaves_no_module_state_behind(self):
        group_mod._window_table(GROUP.base())
        group_mod._base_comb()
        before = {name: id(value) for name, value in vars(group_mod).items()}
        for scalar in range(2, 10):
            point = GROUP.decode(GROUP.encode(GROUP.base_mult(scalar)))
            group_mod._windowed_mult(point, group_mod._scalar_windows(scalar))
        assert {name: id(value) for name, value in vars(group_mod).items()} == before

    def test_a_copy_of_the_base_point_multiplies_like_it(self):
        """A decoded copy of B is not the pinned object, so it takes the
        per-call table; the product must not depend on which table it was."""
        copy = GROUP.decode(GROUP.encode(GROUP.base()))
        assert copy is not GROUP.base()
        for scalar in (1, 2, 15, 16, 2**200 + 12345, GROUP.order - 1):
            digits = group_mod._scalar_windows(scalar)
            assert group_mod._windowed_mult(copy, digits) == group_mod._windowed_mult(
                GROUP.base(), digits
            )
