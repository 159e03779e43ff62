"""Differential fuzzers and tier plumbing for the native crypto kernels.

Every kernel the ``_xrdkernels`` cffi extension implements is held
bit-identical to its Python reference here, under hypothesis-driven inputs:
random keys/nonces/lengths for the symmetric kernels, moduli across every
limb count and scalars at the group-order edges for the Montgomery kernels,
curve points in every shape (identity, base, small order, unnormalised Z)
against the pure-Python ladders for the edwards25519 kernels, plus the
structural edges (empty batches, single-entry batches, forged tags, short
ciphertexts, rejected point encodings).  The fuzzers call the :mod:`repro.crypto.kernels`
wrappers directly — the same entry points the hot loops dispatch through —
so a mismatch pins the exact kernel, not a composite code path.

The tier-selection machinery (lazy resolution, env override, downgrade
warning) is tested unconditionally; the differential classes skip as a block when the
extension is unavailable (no C compiler), which is itself the documented
degraded mode.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import KDF_LABEL_INNER, KDF_LABEL_OUTER
from repro.crypto import aead, chacha20, kernels
from repro.crypto import group as group_mod
from repro.crypto.aead import adec, aenc
from repro.crypto.chacha20 import chacha20_block
from repro.crypto.group import (
    Ed25519Group,
    ModPGroup,
    reset_window_table_caches,
)
from repro.crypto.kdf import derive_key
from repro.crypto.onion import inner_envelope_key, outer_layer_key, shared_keys_batch
from repro.errors import ConfigurationError, CryptoError, DecodingError
from repro.mixnet.messages import EncodedBatch
from repro.registry import CryptoKernelKind

from tests.conftest import TIERS, forbid, native_dispatches

NATIVE = kernels.native_available()

needs_native = pytest.mark.skipif(
    not NATIVE, reason="_xrdkernels extension not built (no C compiler?)"
)


@pytest.fixture(autouse=True)
def _kernel_state():
    """Every test starts and ends with the lazily-resolved default tier."""
    kernels.reset_kernel_for_tests()
    yield
    kernels.reset_kernel_for_tests()


# -- strategies --------------------------------------------------------------

keys_st = st.binary(min_size=32, max_size=32)
nonces_st = st.binary(min_size=12, max_size=12)
counters_st = st.integers(min_value=0, max_value=2**32 - 1)

#: Odd moduli across every runtime limb count the Montgomery code supports
#: (1–4 × 64-bit), including the deployment curve-scale prime 2^255 − 19
#: and a non-prime odd modulus (the kernel is modular exponentiation, not
#: field arithmetic — the reference ``pow`` accepts any odd modulus).
MODULI = (
    2**61 - 1,
    2**89 - 1,
    2**127 - 1,
    2**192 - 2**64 - 1,
    2**255 - 19,
    (2**96 - 17) * 3,
)


def _elements_st(modulus):
    edge = st.sampled_from([0, 1, modulus - 1])
    return st.lists(
        st.integers(min_value=0, max_value=modulus - 1) | edge,
        min_size=0,
        max_size=12,
    )


def _exponent_st(modulus):
    # The callers reduce mod the group order first, so the kernel contract
    # is any exponent in [0, 2^256); exercise the order edges explicitly.
    order = modulus - 1
    return st.integers(min_value=0, max_value=2**256 - 1) | st.sampled_from(
        [0, 1, order - 1, order, order + 1]
    )


# -- differential fuzzers ----------------------------------------------------


@needs_native
class TestChaChaDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(keys_st, nonces_st, counters_st), min_size=0, max_size=20)
    )
    def test_blocks_match_reference(self, items):
        kernels.set_active_kernel("native")
        keys = [k for k, _, _ in items]
        nonces = [n for _, n, _ in items]
        counters = [c for _, _, c in items]
        native = kernels.chacha20_blocks(keys, nonces, counters)
        reference = b"".join(
            chacha20_block(k, c, n) for k, n, c in zip(keys, nonces, counters)
        )
        assert native == reference

    def test_single_block(self):
        kernels.set_active_kernel("native")
        native = kernels.chacha20_blocks([b"\x01" * 32], [b"\x02" * 12], [2**32 - 1])
        assert native == chacha20_block(b"\x01" * 32, 2**32 - 1, b"\x02" * 12)

    def test_empty_batch(self):
        kernels.set_active_kernel("native")
        assert kernels.chacha20_blocks([], [], []) == b""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(keys_st, nonces_st, counters_st), min_size=1, max_size=40))
    def test_batch_entry_point_is_tier_invariant(self, items):
        """The public ``chacha20_blocks_batch`` is bit-identical across tiers."""
        keys = [k for k, _, _ in items]
        nonces = [n for _, n, _ in items]
        counters = [c for _, _, c in items]
        outputs = []
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            outputs.append(chacha20.chacha20_blocks_batch(keys, nonces, counters))
        assert outputs[0] == outputs[1]


@needs_native
class TestAeadDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(keys_st, nonces_st, st.binary(min_size=0, max_size=200)),
            min_size=0,
            max_size=12,
        ),
        st.binary(min_size=0, max_size=40),
    )
    def test_seal_matches_reference(self, items, aad):
        keys = [k for k, _, _ in items]
        nonces = [n for _, n, _ in items]
        plains = [p for _, _, p in items]
        kernels.set_active_kernel("python")  # aenc runs on the active tier
        reference = [aenc(k, n, p, aad) for k, n, p in zip(keys, nonces, plains)]
        kernels.set_active_kernel("native")
        assert kernels.aead_seal_batch(keys, nonces, plains, aad) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(keys_st, st.binary(min_size=0, max_size=200)),
            min_size=1,
            max_size=12,
        ),
        nonces_st,
        st.binary(min_size=0, max_size=40),
        st.data(),
    )
    def test_open_matches_reference_with_forgeries(self, items, nonce, aad, data):
        kernels.set_active_kernel("python")  # aenc and adec run on the active tier
        keys = [k for k, _ in items]
        sealed = [aenc(k, nonce, p, aad) for k, p in items]
        # Corrupt a random subset: bit-flips (in ciphertext or tag) and
        # truncations below one tag — every one must come back (False, None).
        for index in range(len(sealed)):
            action = data.draw(
                st.sampled_from(["keep", "flip", "truncate"]), label=f"action[{index}]"
            )
            if action == "flip":
                pos = data.draw(
                    st.integers(0, len(sealed[index]) - 1), label=f"pos[{index}]"
                )
                corrupted = bytearray(sealed[index])
                corrupted[pos] ^= 0x01
                sealed[index] = bytes(corrupted)
            elif action == "truncate":
                sealed[index] = sealed[index][: data.draw(st.integers(0, 15))]
        reference = [adec(k, nonce, d, aad) for k, d in zip(keys, sealed)]
        kernels.set_active_kernel("native")
        assert _open_pairs(keys, nonce, sealed, aad) == reference

    def test_wrong_key_rejected(self):
        kernels.set_active_kernel("native")
        sealed = aenc(b"\x01" * 32, b"\x00" * 12, b"secret", b"")
        assert adec(b"\x01" * 32, b"\x00" * 12, sealed) == (True, b"secret")
        [(ok, plain)] = _open_pairs([b"\x02" * 32], b"\x00" * 12, [sealed], b"")
        assert (ok, plain) == (False, None)

    def test_empty_batches(self):
        kernels.set_active_kernel("native")
        assert kernels.aead_seal_batch([], [], [], b"") == []
        assert _open_pairs([], b"\x00" * 12, [], b"") == []

    @pytest.mark.parametrize("length", [0, 1, 64, 300])
    def test_tag_is_compared_whole(self, length):
        """A tag wrong in its first byte and one wrong in its last are the
        same rejection: neither opens, and both cost the same dispatches
        (the kernel's compare reads all 16 bytes either way)."""
        key, nonce = b"\x07" * 32, b"\x00" * 11 + b"\x01"
        sealed = aenc(key, nonce, b"m" * length)
        seen = []
        for position in (length, length + 15):
            forged = bytearray(sealed)
            forged[position] ^= 0x80
            with native_dispatches() as counts:
                assert adec(key, nonce, bytes(forged)) == (False, None)
            seen.append(counts)
        assert seen[0] == seen[1] == {"xrd_aead_open_spans": 1}
        assert adec(key, nonce, sealed) == (True, b"m" * length)


def _open_pairs(keys, nonce, datas, aad):
    """``(ok, plaintext)`` per message from the raw span kernel: message ``i``
    is span ``i`` of the joined messages, under key ``i`` alone."""
    bounds = [sum(map(len, datas[:index])) for index in range(len(datas) + 1)]
    count = len(datas)
    plain, offsets, opened = kernels.aead_open_spans(
        b"".join(datas), bounds[:-1], bounds[1:], b"".join(keys), list(range(count)),
        [1] * count, nonce, aad, b"",
    )
    return [
        (True, plain[offsets[index] + 4:offsets[index + 1]]) if opened[index] else (False, None)
        for index in range(count)
    ]


@st.composite
def span_batches(draw):
    """A buffer holding sealed messages among filler, and the spans over it.

    Spans cover the sealed messages (some with a flipped bit), empty and
    shorter-than-a-tag stretches, and one ending at the buffer's end; each
    has a candidate list of any length from a small key pool — none, the
    right key among wrong ones, duplicates — and random fixed-width heads.
    """
    pool = draw(st.lists(keys_st, min_size=1, max_size=4, unique=True))
    nonce = draw(nonces_st)
    aad = draw(st.binary(max_size=20))
    buf = bytearray(draw(st.binary(max_size=8)))
    spans, rights = [], []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["sealed", "sealed", "flipped", "empty", "short"]))
        right = draw(st.integers(0, len(pool) - 1))
        if kind in ("sealed", "flipped"):
            chunk = bytearray(aenc(pool[right], nonce, draw(st.binary(max_size=150)), aad))
            if kind == "flipped":
                chunk[draw(st.integers(0, len(chunk) - 1))] ^= 0x04
        else:
            chunk = bytearray(draw(st.binary(max_size=0 if kind == "empty" else 15)))
        spans.append((len(buf), len(buf) + len(chunk)))
        rights.append(right)
        buf += chunk
        buf += draw(st.binary(max_size=5))
    if spans and draw(st.booleans()):  # the last span ends at the buffer's end
        del buf[spans[-1][1]:]
    keys, first_keys, key_counts = [], [], []
    for right in rights:
        candidates = draw(st.lists(st.integers(0, len(pool) - 1), max_size=4))
        if draw(st.booleans()):
            candidates.insert(draw(st.integers(0, len(candidates))), right)
        first_keys.append(len(keys))
        key_counts.append(len(candidates))
        keys += [pool[index] for index in candidates]
    count = len(spans)
    heads = draw(st.binary(min_size=count * 3, max_size=count * 3))[:count * draw(st.integers(0, 3))]
    return dict(
        buf=bytes(buf), starts=[start for start, _ in spans], ends=[end for _, end in spans],
        keys=b"".join(keys), first_keys=first_keys, key_counts=key_counts, nonce=nonce,
        aad=aad, heads=heads,
    )


def _scalar_opens(batch):
    """The spans' opens one ``adec`` at a time: the contract, spelled out."""
    count = len(batch["starts"])
    head_len = len(batch["heads"]) // count if count else 0
    plain, offsets, opened = b"", [], bytearray(count)
    for span in range(count):
        offsets.append(len(plain))
        data = batch["buf"][batch["starts"][span]:batch["ends"][span]]
        first = batch["first_keys"][span]
        for trial in range(batch["key_counts"][span]):
            key = batch["keys"][32 * (first + trial):32 * (first + trial + 1)]
            ok, plaintext = adec(key, batch["nonce"], data, batch["aad"])
            if ok:
                opened[span] = trial + 1
                plain += batch["heads"][head_len * span:head_len * (span + 1)]
                plain += len(plaintext).to_bytes(4, "big") + plaintext
                break
    offsets.append(len(plain))
    return plain, offsets, bytes(opened)


def _raw_open(batch):
    return kernels.aead_open_spans(
        batch["buf"], batch["starts"], batch["ends"], batch["keys"], batch["first_keys"],
        batch["key_counts"], batch["nonce"], batch["aad"], batch["heads"],
    )


def _tier_open(batch):
    return aead.open_spans(
        batch["buf"], batch["starts"], batch["ends"], batch["keys"], batch["nonce"],
        first_keys=batch["first_keys"], key_counts=batch["key_counts"], heads=batch["heads"],
        aad=batch["aad"],
    )


#: Ways to put one index of a span batch out of its buffer's range.
BAD_INDICES = (
    ("end past the buffer", lambda b: b["ends"].__setitem__(-1, len(b["buf"]) + 1)),
    ("start past its end", lambda b: b["starts"].__setitem__(-1, b["ends"][-1] + 1)),
    ("negative start", lambda b: b["starts"].__setitem__(-1, -1)),
    ("key range past the keys", lambda b: b["key_counts"].__setitem__(
        -1, len(b["keys"]) // 32 - b["first_keys"][-1] + 1)),
    ("first key past the keys", lambda b: b["first_keys"].__setitem__(-1, 2**40)),
    ("too many candidates", lambda b: b["key_counts"].__setitem__(-1, 256)),
)


class TestOpenSpansDifferential:
    """``open_spans`` against one ``adec`` per trial, on both tiers, and the
    native kernel against the python reference it is held to."""

    @settings(max_examples=80, deadline=None)
    @given(span_batches())
    def test_python_reference_is_the_contract(self, batch):
        kernels.set_active_kernel("python")
        assert tuple(map(list, _tier_open(batch))) == tuple(map(list, _scalar_opens(batch)))

    @needs_native
    @settings(max_examples=120, deadline=None)
    @given(span_batches())
    def test_native_kernel_matches_reference(self, batch):
        kernels.set_active_kernel("python")
        reference = _tier_open(batch)
        kernels.set_active_kernel("native")
        with native_dispatches() as counts:
            assert _raw_open(batch) == reference
        assert counts == ({"xrd_aead_open_spans": 1} if batch["starts"] else {})

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("reason, spoil", BAD_INDICES, ids=[r for r, _ in BAD_INDICES])
    @settings(max_examples=15, deadline=None)
    @given(batch=span_batches().filter(lambda b: b["starts"] and b["keys"]))
    def test_bad_indices_are_refused_on_every_tier(self, tier, reason, spoil, batch):
        spoil(batch)
        if tier == "native":
            kernels.set_active_kernel("native")
            assert _raw_open(batch) is None  # declined before reading anything
        kernels.set_active_kernel(tier)
        with pytest.raises(CryptoError):
            _tier_open(batch)

    def test_a_key_blob_and_a_key_list_open_alike(self):
        keys = [bytes([index]) * 32 for index in range(3)]
        sealed = [aenc(key, 9, bytes([index]) * 40) for index, key in enumerate(keys)]
        bounds = [0, 56, 112, 168]
        for tier in ("python", "native") if NATIVE else ("python",):
            kernels.set_active_kernel(tier)
            opened = aead.open_spans(b"".join(sealed), bounds[:-1], bounds[1:], keys, 9)
            assert opened == aead.open_spans(
                b"".join(sealed), bounds[:-1], bounds[1:], b"".join(keys), 9
            )
            assert opened.opened == b"\x01\x01\x01"


@needs_native
class TestHkdfDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(keys_st, min_size=0, max_size=8),
        # Empty (RFC 5869's default salt), short, exactly one block, and
        # longer than a block (HMAC hashes such a key first).
        st.binary(min_size=0, max_size=40) | st.binary(min_size=63, max_size=140),
        # Up to 54 bytes of context, context || 0x01 and the padding share
        # one SHA-256 block; from 55 on the expand message spills over.
        st.binary(min_size=0, max_size=60) | st.binary(min_size=118, max_size=130),
    )
    def test_matches_derive_key(self, secrets, label, context):
        kernels.set_active_kernel("native")
        native = kernels.hkdf_derive_batch(b"".join(secrets), label, context)
        assert native == b"".join(derive_key(secret, label, context) for secret in secrets)

    def test_single_and_empty_batches(self):
        kernels.set_active_kernel("native")
        assert kernels.hkdf_derive_batch(b"", b"label") == b""
        assert kernels.hkdf_derive_batch(b"\x07" * 32, b"label", b"ctx") == derive_key(
            b"\x07" * 32, b"label", b"ctx"
        )

    @pytest.mark.parametrize("label", [b"", b"k" * 64, b"k" * 65], ids=len)
    @pytest.mark.parametrize("context", [b"", b"c" * 54, b"c" * 55, b"c" * 119], ids=len)
    def test_block_boundaries(self, label, context):
        kernels.set_active_kernel("native")
        secrets = bytes(range(64))
        assert kernels.hkdf_derive_batch(secrets, label, context) == b"".join(
            derive_key(secret, label, context) for secret in (secrets[:32], secrets[32:])
        )

    def test_declines_other_shapes(self):
        kernels.set_active_kernel("native")
        assert kernels.hkdf_derive_batch(b"\x07" * 31, b"label") is None
        assert kernels.hkdf_derive_batch(b"\x07" * 65, b"label") is None
        assert kernels.hkdf_derive_batch(b"\x07" * 32, b"label", length=16) is None
        assert kernels.hkdf_derive_batch(b"\x07" * 32, b"label", length=64) is None


@needs_native
class TestModPDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(MODULI), st.data())
    def test_scalar_mult_batch(self, modulus, data):
        kernels.set_active_kernel("native")
        elements = data.draw(_elements_st(modulus), label="elements")
        exponent = data.draw(_exponent_st(modulus), label="exponent")
        native = kernels.modp_scalar_mult_batch(modulus, elements, exponent)
        assert native == [pow(e, exponent, modulus) for e in elements]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(MODULI), st.data())
    def test_fixed_mult_batch(self, modulus, data):
        kernels.set_active_kernel("native")
        element = data.draw(
            st.integers(min_value=0, max_value=modulus - 1), label="element"
        )
        exponents = data.draw(
            st.lists(_exponent_st(modulus), min_size=0, max_size=12), label="exponents"
        )
        native = kernels.modp_fixed_mult_batch(modulus, element, exponents)
        assert native == [pow(element, x, modulus) for x in exponents]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(MODULI), st.data())
    def test_one_row_as_long_as_the_batch(self, modulus, data):
        kernels.set_active_kernel("native")
        elements = data.draw(_elements_st(modulus), label="elements")
        exponents = data.draw(
            st.lists(_exponent_st(modulus), min_size=len(elements), max_size=len(elements)),
            label="exponents",
        )
        native = kernels.modp_accumulate_rows(modulus, elements, exponents, len(elements))
        expected = 1
        for e, x in zip(elements, exponents):
            expected = expected * pow(e, x, modulus) % modulus
        assert native == ([expected] if elements else None)  # no row of no terms

    def test_single_element_batches(self):
        kernels.set_active_kernel("native")
        p = 2**127 - 1
        assert kernels.modp_scalar_mult_batch(p, [5], 3) == [125]
        assert kernels.modp_fixed_mult_batch(p, 5, [3]) == [125]

    def test_declines_wide_or_even_modulus(self):
        kernels.set_active_kernel("native")
        assert kernels.modp_scalar_mult_batch(2**300 + 1, [2], 2) is None
        assert kernels.modp_scalar_mult_batch(2**64, [2], 2) is None

    def test_declines_out_of_range_element(self):
        # An element at/above the modulus never reaches the Montgomery
        # domain: the kernel rejects it and the wrapper falls back.
        kernels.set_active_kernel("native")
        p = 2**61 - 1
        assert kernels.modp_scalar_mult_batch(p, [p], 3) is None
        assert kernels.modp_scalar_mult_batch(p, [-1], 3) is None


# -- edwards25519 ------------------------------------------------------------

_P = group_mod._P
_L = group_mod._L
CURVE = Ed25519Group()


def _reference_mult(point, scalar):
    """``[scalar]P`` for the integer ``scalar`` (unreduced) by the pure-Python
    window ladder, which never dispatches to a kernel."""
    return group_mod._windowed_mult_with_table(
        group_mod._build_window_table(point), group_mod._scalar_windows(scalar)
    )


def _record(point):
    """What the kernels return for ``point``: ``(encoding, x, y, t)``, affine."""
    x, y = point.affine()
    encoding = bytearray(y.to_bytes(32, "little"))
    encoding[31] |= (x & 1) << 7
    return (bytes(encoding), x, y, x * y % _P)


def _doubled(point, times):
    for _ in range(times):
        point = group_mod._edwards_double(point)
    return point


_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
#: Points of order 2, 4, 4, 8, 8 (the last two by their standard encodings,
#: decoded on the reference path).
SMALL_ORDER = {
    2: [group_mod.Point(0, _P - 1, 1, 0)],
    4: [group_mod.Point(_SQRT_M1, 0, 1, 0), group_mod.Point(_P - _SQRT_M1, 0, 1, 0)],
    8: [
        group_mod._point_from_affine(group_mod._recover_x(y, 0), y)
        for y in (
            int.from_bytes(bytes.fromhex(encoding), "little")
            for encoding in (
                "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
                "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
            )
        )
    ],
}
_SMALL_ORDER_POINTS = [point for points in SMALL_ORDER.values() for point in points]

_EDGE_SCALARS = [0, 1, 2, 15, 16, _L - 1, _L, _L + 1, 2**252, 2**255, 2**256 - 1]
curve_scalars_st = st.integers(min_value=0, max_value=2**256 - 1) | st.sampled_from(
    _EDGE_SCALARS
)


@st.composite
def curve_points_st(draw):
    """A curve point: a special one or a random multiple of the base or of a
    small-order-tainted point, usually with an unnormalised Z."""
    kind = draw(st.sampled_from(["identity", "base", "small", "multiple", "tainted"]))
    if kind == "identity":
        point = group_mod._IDENTITY
    elif kind == "base":
        point = group_mod._BASE_POINT
    elif kind == "small":
        point = draw(st.sampled_from(_SMALL_ORDER_POINTS))
    else:
        point = _reference_mult(
            group_mod._BASE_POINT, draw(st.integers(min_value=1, max_value=_L - 1))
        )
        if kind == "tainted":  # outside the prime-order subgroup
            point = group_mod._edwards_add(point, draw(st.sampled_from(_SMALL_ORDER_POINTS)))
    z = draw(st.sampled_from([1, 2, _P - 1]) | st.integers(min_value=1, max_value=_P - 1))
    return group_mod.Point(point.x * z % _P, point.y * z % _P, point.z * z % _P, point.t * z % _P)


def _first_non_square_y():
    """The smallest y whose x^2 = (y^2 - 1) / (d y^2 + 1) is not a square."""
    y = 2
    while True:
        try:
            group_mod._recover_x(y, 0)
        except CryptoError:
            return y
        y += 1


_NON_SQUARE_Y = _first_non_square_y()

#: Encodings ``Ed25519Group.decode`` rejects, by reason.
REJECTED_ENCODINGS = {
    "y = p": _P.to_bytes(32, "little"),
    "y = p + 1": (_P + 1).to_bytes(32, "little"),
    "y = 2^255 - 1": (2**255 - 1).to_bytes(32, "little"),
    "y = p, sign set": (_P | 1 << 255).to_bytes(32, "little"),
    "all ones": b"\xff" * 32,
    "not a square": _NON_SQUARE_Y.to_bytes(32, "little"),
    "not a square, sign set": (_NON_SQUARE_Y | 1 << 255).to_bytes(32, "little"),
    "x = 0 (y = 1), sign set": (1 | 1 << 255).to_bytes(32, "little"),
    "x = 0 (y = -1), sign set": (_P - 1 | 1 << 255).to_bytes(32, "little"),
}


def test_small_order_fixture_orders():
    for order, points in SMALL_ORDER.items():
        for point in points:
            assert _doubled(point, order.bit_length() - 1).is_identity()
            assert not _doubled(point, order.bit_length() - 2).is_identity()


@needs_native
class TestEd25519Differential:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(curve_points_st(), min_size=0, max_size=5), curve_scalars_st)
    def test_scalar_mult_batch(self, points, scalar):
        kernels.set_active_kernel("native")
        native = kernels.ed25519_scalar_mult_batch(points, scalar)
        assert native == [_record(_reference_mult(point, scalar)) for point in points]

    @settings(max_examples=30, deadline=None)
    @given(curve_points_st(), st.lists(curve_scalars_st, min_size=0, max_size=5))
    def test_fixed_mult_batch(self, point, scalars):
        kernels.set_active_kernel("native")
        native = kernels.ed25519_fixed_mult_batch(point, scalars)
        assert native == [_record(_reference_mult(point, scalar)) for scalar in scalars]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(curve_points_st(), curve_scalars_st), min_size=0, max_size=4))
    def test_one_row_as_long_as_the_batch(self, terms):
        kernels.set_active_kernel("native")
        native = kernels.ed25519_accumulate_rows(
            [point for point, _ in terms], [scalar for _, scalar in terms], len(terms)
        )
        expected = group_mod._IDENTITY
        for point, scalar in terms:
            expected = group_mod._edwards_add(expected, _reference_mult(point, scalar))
        assert native == ([_record(expected)] if terms else None)  # no row of no terms

    @settings(max_examples=30, deadline=None)
    @given(st.lists(curve_points_st(), min_size=0, max_size=8))
    def test_encode_batch(self, points):
        kernels.set_active_kernel("native")
        native = kernels.ed25519_encode_batch(points)
        assert native == [_record(point)[0] for point in points]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.binary(min_size=32, max_size=32)
            | curve_points_st().map(lambda point: _record(point)[0])
            | st.sampled_from(sorted(REJECTED_ENCODINGS.values())),
            min_size=0,
            max_size=8,
        )
    )
    def test_decode_batch(self, encodings):
        kernels.set_active_kernel("python")
        expected = []
        for encoding in encodings:
            try:
                expected.append(_record(CURVE.decode(encoding)))
            except CryptoError:
                expected.append(None)
        kernels.set_active_kernel("native")
        assert kernels.ed25519_decode_batch(encodings) == expected

    def test_single_element_batches(self):
        kernels.set_active_kernel("native")
        base, five = group_mod._BASE_POINT, _record(_reference_mult(group_mod._BASE_POINT, 5))
        assert kernels.ed25519_scalar_mult_batch([base], 5) == [five]
        assert kernels.ed25519_fixed_mult_batch(base, [5]) == [five]
        assert kernels.ed25519_encode_batch([_reference_mult(base, 5)]) == [five[0]]
        assert kernels.ed25519_decode_batch([five[0]]) == [five]

    def test_empty_batches(self):
        kernels.set_active_kernel("native")
        assert kernels.ed25519_scalar_mult_batch([], 5) == []
        assert kernels.ed25519_fixed_mult_batch(group_mod._BASE_POINT, []) == []
        assert kernels.ed25519_encode_batch([]) == []
        assert kernels.ed25519_decode_batch([]) == []

    @pytest.mark.parametrize("reason", sorted(REJECTED_ENCODINGS))
    def test_decode_rejections_agree_with_reference(self, reason):
        encoding = REJECTED_ENCODINGS[reason]
        kernels.set_active_kernel("native")
        assert kernels.ed25519_decode_batch([encoding]) == [None]
        raised = []
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            with pytest.raises(CryptoError) as caught:
                CURVE.decode(encoding)
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]

    def test_decode_declines_wrong_length(self):
        kernels.set_active_kernel("native")
        assert kernels.ed25519_decode_batch([b"\x01" * 31]) is None
        with pytest.raises(DecodingError):
            CURVE.decode(b"\x01" * 31)

    def test_declines_out_of_range_inputs(self):
        # Neither a negative nor a 257-bit integer has a 32-byte encoding:
        # the wrapper falls back rather than guess.
        kernels.set_active_kernel("native")
        base = group_mod._BASE_POINT
        bad = group_mod.Point(-1, 1, 1, 0)
        assert kernels.ed25519_scalar_mult_batch([bad], 5) is None
        assert kernels.ed25519_scalar_mult_batch([base], 2**256) is None
        assert kernels.ed25519_fixed_mult_batch(base, [-1]) is None
        assert kernels.ed25519_encode_batch([bad]) is None

    def test_declines_zero_z(self):
        kernels.set_active_kernel("native")
        assert kernels.ed25519_encode_batch([group_mod.Point(0, 0, 0, 0)]) is None
        assert kernels.ed25519_scalar_mult_batch([group_mod.Point(0, 0, 0, 0)], 3) is None

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(curve_points_st(), min_size=1, max_size=4),
        st.lists(curve_scalars_st, min_size=4, max_size=4),
    )
    def test_group_entry_points_are_tier_invariant(self, points, scalars):
        """``Ed25519Group`` answers identically on the python and native tiers,
        scalars at and above the order included (both reduce first)."""
        answers = []
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            fresh = [group_mod.Point(p.x, p.y, p.z, p.t) for p in points]  # no memo
            results = [
                CURVE.scalar_mult(fresh[0], scalars[0]),
                CURVE.base_mult(scalars[1]),
                *CURVE.scalar_mult_batch(fresh, scalars[2]),
                CURVE.multi_scalar_accumulate(fresh, scalars[: len(fresh)]),
                *CURVE.fixed_point_mult_batch(fresh[0], scalars),
                *CURVE.fixed_point_mult_batch(CURVE.base(), scalars),
            ]
            encodings = [CURVE.encode(point) for point in fresh + results]
            decoded = [CURVE.encode(CURVE.decode(encoding)) for encoding in encodings]
            subgroup = [CURVE.is_in_prime_subgroup(point) for point in fresh]
            answers.append((encodings, decoded, subgroup))
        assert answers[0] == answers[1]

    def test_base_comb_first_use_is_thread_safe(self):
        """Eight threads race to build the base point's comb in a fresh
        process (the kernel runs with the GIL released); every one of them
        must get correct products, whichever table wins."""
        import repro

        code = (
            "import threading\n"
            "from repro.crypto import group, kernels\n"
            "kernels.set_active_kernel('native')\n"
            "barrier, results = threading.Barrier(8), [None] * 8\n"
            "def work(index):\n"
            "    barrier.wait(timeout=60)\n"
            "    results[index] = kernels.ed25519_fixed_mult_batch(\n"
            "        group._BASE_POINT, [index + 1, 2**252 + index])\n"
            "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
            "for thread in threads: thread.start()\n"
            "for thread in threads: thread.join(timeout=60)\n"
            "assert not any(thread.is_alive() for thread in threads)\n"
            "kernels.set_active_kernel('python')\n"
            "curve = group.Ed25519Group()\n"
            "for index, records in enumerate(results):\n"
            "    assert [record[0] for record in records] == [\n"
            "        curve.encode(curve.base_mult(index + 1)),\n"
            "        curve.encode(curve.base_mult(2**252 + index))]\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        env.pop("XRD_NATIVE_DISABLE", None)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr

    def test_results_carry_their_encoding(self):
        kernels.set_active_kernel("native")
        point = CURVE.scalar_mult(CURVE.base_mult(7), 9)
        assert point.z == 1 and point.t == point.x * point.y % _P
        assert point.__dict__["_enc"] == _record(point)[0]
        assert CURVE.decode(point.__dict__["_enc"]).__dict__["_enc"] == point.__dict__["_enc"]


# -- the groups' batch decoder and the base-point route -------------------------

MODP = ModPGroup(bits=96)

_WRONG_LENGTHS = st.binary(max_size=31) | st.binary(min_size=33, max_size=40)

#: Curve encodings of every kind: canonical ones (small-order and
#: off-subgroup points included: ``decode`` accepts them), y >= p with
#: either sign, the rejections by reason (x = 0 with the sign bit set, a
#: non-square), random strings (about half of them non-squares) and wrong
#: lengths.
curve_encodings_st = (
    curve_points_st().map(lambda point: _record(point)[0])
    | st.sampled_from(_SMALL_ORDER_POINTS).map(lambda point: _record(point)[0])
    | st.tuples(st.integers(_P, 2**255 - 1), st.booleans()).map(
        lambda y_sign: (y_sign[0] | y_sign[1] << 255).to_bytes(32, "little")
    )
    | st.sampled_from(sorted(REJECTED_ENCODINGS.values()))
    | st.binary(min_size=32, max_size=32)
    | _WRONG_LENGTHS
)

#: ModP encodings: elements, the range edges around them, any 32 bytes and
#: wrong lengths.
modp_encodings_st = (
    st.integers(1, MODP.order - 1).map(lambda scalar: MODP.encode(MODP.base_mult(scalar)))
    | st.sampled_from([0, 1, MODP.prime - 1, MODP.prime, MODP.prime + 1]).map(MODP.encode)
    | st.binary(min_size=32, max_size=32)
    | _WRONG_LENGTHS
)


def _decoded(group, encodings):
    """``group.decode`` on the python tier, ``None`` where it raises."""
    kernels.set_active_kernel("python")
    points = []
    for encoding in encodings:
        try:
            points.append(group.decode(encoding))
        except DecodingError:
            points.append(None)
    return points


def _comparable(point):
    return point if point is None or isinstance(point, int) else point.affine()


class TestDecodeBatch:
    """``decode_batch`` is ``decode`` with ``None`` for a rejection, on both
    groups and both tiers, held to ``decode`` on the python tier."""

    @staticmethod
    def _check(group, encodings, tier_name):
        expected = _decoded(group, encodings)
        kernels.set_active_kernel(tier_name)
        got = group.decode_batch(encodings)
        assert [_comparable(point) for point in got] == [_comparable(p) for p in expected]
        # An accepted encoding is canonical: the point encodes back to it.
        assert [group.encode(point) for point in got if point is not None] == [
            encoding for encoding, point in zip(encodings, expected) if point is not None
        ]

    @pytest.mark.parametrize("tier_name", TIERS)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(curve_encodings_st, max_size=8))
    def test_curve(self, tier_name, encodings):
        self._check(CURVE, encodings, tier_name)

    @pytest.mark.parametrize("tier_name", TIERS)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(modp_encodings_st, max_size=8))
    def test_modp(self, tier_name, encodings):
        self._check(MODP, encodings, tier_name)

    @needs_native
    def test_one_kernel_call_for_the_curve_batch(self):
        encodings = [
            _record(point)[0] for point in (group_mod._BASE_POINT, *_SMALL_ORDER_POINTS)
        ] + sorted(REJECTED_ENCODINGS.values()) + [b"\x01" * 31, b""]
        with native_dispatches() as counts:
            decoded = CURVE.decode_batch(encodings)
        assert counts == {"xrd_ed25519_decode_batch": 1}
        assert [point is None for point in decoded] == [False] * 6 + [True] * 11

    @pytest.mark.parametrize("tier_name", TIERS)
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("group, bad", [
        *((CURVE, REJECTED_ENCODINGS[reason]) for reason in (
            "y = p", "not a square", "x = 0 (y = 1), sign set",
        )),
        (MODP, b"\xff" * 32),
        (MODP, b"\x00" * 32),
    ], ids=["curve-y-p", "curve-non-square", "curve-x-0", "modp-high", "modp-zero"])
    def test_decode_publics_raises_the_reference_error(self, tier_name, position, group, bad):
        kernels.set_active_kernel("python")
        elements = [group.encode(group.base_mult(scalar)) for scalar in (2, 3, 4)]
        elements[position] = bad
        batch = EncodedBatch.from_parts(group, elements, [b"x", b"", b"yz"])
        with pytest.raises(DecodingError) as reference:
            group.decode(bad)
        kernels.set_active_kernel(tier_name)
        with pytest.raises(DecodingError) as caught:
            batch.decode_publics()
        assert str(caught.value) == str(reference.value)

    @needs_native
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([0, 1, _L - 1, _L]) | st.integers(0, 2**256 - 1), st.booleans())
    def test_native_base_point_mult_takes_the_comb(self, scalar, unnormalised):
        """``scalar_mult`` on the base point (or any copy of it) is
        ``base_mult``: the fixed-base comb, not the variable-base ladder."""
        base = group_mod._BASE_POINT
        if unnormalised:
            base = group_mod.Point(base.x * 2 % _P, base.y * 2 % _P, 2, base.t * 2 % _P)
        kernels.set_active_kernel("python")
        reference = CURVE.scalar_mult(base, scalar)
        assert reference == _reference_mult(group_mod._BASE_POINT, scalar % _L)
        with native_dispatches() as counts:
            product = CURVE.scalar_mult(base, scalar)
        assert counts == {"xrd_ed25519_fixed_mult_batch": 1}
        kernels.set_active_kernel("native")
        assert product == CURVE.base_mult(scalar) == reference
        assert CURVE.encode(product) == _record(reference)[0]


# -- DH -> KDF -> AEAD key pipeline --------------------------------------------


def _group_elements(group, data, count):
    scalars = data.draw(
        st.lists(st.integers(1, group.order - 1), min_size=count, max_size=count),
        label="element logs",
    )
    return [group.base_mult(scalar) for scalar in scalars]


@needs_native
class TestKeyPipeline:
    """The fused mult→keys entry points and the onion batch helper against
    the per-element ``outer_layer_key`` / ``inner_envelope_key``."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([MODP, CURVE]), st.integers(0, 5), st.data())
    def test_group_keys_match_per_element_derivation(self, group, count, data):
        kernels.set_active_kernel("native")
        points = _group_elements(group, data, count)
        scalar = data.draw(st.integers(0, 2 * group.order), label="scalar")
        label = data.draw(st.binary(min_size=0, max_size=80), label="label")
        assert group.scalar_mult_keys(points, scalar, label) == b"".join(
            derive_key(group.encode(group.scalar_mult(p, scalar)), label) for p in points
        )

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([MODP, CURVE]), st.integers(0, 5), st.data())
    def test_onion_helper_is_tier_invariant(self, group, count, data):
        points = _group_elements(group, data, count)
        scalars = data.draw(
            st.lists(st.integers(1, group.order - 1), min_size=count, max_size=count),
            label="scalars",
        )
        scalar = data.draw(st.integers(1, group.order - 1), label="scalar")
        point = group.base_mult(11)
        kernels.set_active_kernel("python")
        expected = [
            b"".join(outer_layer_key(group, group.scalar_mult(p, scalar)) for p in points),
            b"".join(inner_envelope_key(group, group.scalar_mult(p, scalar)) for p in points),
            b"".join(outer_layer_key(group, group.scalar_mult(point, s)) for s in scalars),
            b"".join(inner_envelope_key(group, group.scalar_mult(point, s)) for s in scalars),
        ]
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            assert [
                shared_keys_batch(group, KDF_LABEL_OUTER, points, scalar),
                shared_keys_batch(group, KDF_LABEL_INNER, points, scalar),
                shared_keys_batch(group, KDF_LABEL_OUTER, point, scalars),
                shared_keys_batch(group, KDF_LABEL_INNER, point, scalars),
            ] == expected, tier

    def test_keys_entry_points_decline_what_the_mult_kernels_decline(self):
        kernels.set_active_kernel("native")
        p = MODP.prime
        assert kernels.modp_scalar_mult_keys(p, [p], 3, b"label") is None
        assert kernels.modp_scalar_mult_keys(2**300 + 1, [2], 2, b"label") is None
        bad = group_mod.Point(-1, 1, 1, 0)
        assert kernels.ed25519_scalar_mult_keys([bad], 5, b"label") is None

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.tuples(keys_st, st.binary(min_size=0, max_size=100)), min_size=0, max_size=6)
    )
    def test_aead_batches_take_a_key_blob_on_every_tier(self, items):
        keys = [key for key, _ in items]
        plains = [plain for _, plain in items]
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            sealed = aead.aenc_batch(b"".join(keys), 7, plains)
            assert sealed == aead.aenc_batch(keys, 7, plains)
            assert sealed == [aenc(key, 7, plain) for key, plain in items]
            opened = aead.adec_batch(b"".join(keys), 7, sealed)
            assert opened == aead.adec_batch(keys, 7, sealed)
            assert opened == [(True, plain) for plain in plains]
            bounds = [sum(map(len, sealed[:index])) for index in range(len(sealed) + 1)]
            spans = aead.open_spans(b"".join(sealed), bounds[:-1], bounds[1:], b"".join(keys), 7)
            assert spans == aead.open_spans(b"".join(sealed), bounds[:-1], bounds[1:], keys, 7)
            assert spans.opened == b"\x01" * len(items)


# -- fused onion build -------------------------------------------------


def _build_three_ways(group, tier, num_users, num_chains, layers, paired, notice, cover, seed):
    """One population build as ``to_bytes()`` lists per chain: the batched
    builder as the tier runs it, the same with the fused kernel declined,
    and the per-user oracle user by user."""
    from repro.client.user import ChainKeysView, User
    from repro.crypto.keys import KeyPair
    from repro.crypto.stream import stream_key
    from repro.population import UserPopulation
    from tests.user_oracle import build_round_submissions

    def users():
        rng = random.Random(seed)
        made = [
            User(
                f"user-{i}", group, KeyPair.from_secret(group.random_scalar(rng), group),
                stream_key(rng.random()),
            )
            for i in range(num_users)
        ]
        for left, right in zip(made[0:paired:2], made[1:paired:2]):
            left.start_conversation(right.name, right.public_bytes)
            right.start_conversation(left.name, left.public_bytes)
        return made

    rng = random.Random(seed + 1)
    views = {
        chain_id: ChainKeysView(
            chain_id,
            tuple(group.base_mult(group.random_scalar(rng)) for _ in range(layers)),
            group.base_mult(group.random_scalar(rng)),
        )
        for chain_id in range(num_chains)
    }
    payloads = {f"user-{i}": bytes([i]) * (i % 7) for i in range(num_users)}
    kernels.set_active_kernel(tier)

    def batched(decline_fused):
        made = users()
        population = UserPopulation(group, made, num_chains)
        fused = []
        real = group.onion_build
        group.onion_build = lambda *a: fused.append(None if decline_fused else real(*a)) or fused[-1]
        try:
            built = population.build_round_submissions_batch(
                5, views, made, payloads=payloads, offline_notice=notice, cover=cover
            )
        finally:
            del group.onion_build
        ran = [result is not None for result in fused]
        # Records only: a cover differs from a live submission in its draws,
        # which the bytes carry; the flag itself is not on the wire.
        return {c: [subs.record(i) for i in range(len(subs))] for c, subs in built.items()}, ran

    per_user = {}
    for user in users():
        for submission in build_round_submissions(
            user, 5, num_chains, views, payload=payloads[user.name],
            offline_notice=notice, cover=cover,
        ):
            per_user.setdefault(submission.chain_id, []).append(submission.to_bytes())
    return batched(False), batched(True), per_user


class TestOnionBuildDifferential:
    """The fused build kernel against the per-operation batched path and the
    per-user oracle: conversation, loopback and offline-notice bodies,
    covers, every chain length, empty chains, both groups, both tiers."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("group", [MODP, CURVE], ids=["modp", "ed25519"])
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 13), st.integers(1, 6), st.integers(1, 4), st.integers(0, 13),
        st.booleans(), st.booleans(), st.integers(0, 2**32),
    )
    def test_three_build_paths_agree(self, tier, group, num_users, num_chains, layers,
                                     paired, notice, cover, seed):
        if group is CURVE and tier == "python":
            num_users = min(num_users, 3)  # ~2 ms per Python ladder
        (fused, fused_ran), (unfused, unfused_ran), per_user = _build_three_ways(
            group, tier, num_users, num_chains, layers, paired, notice, cover, seed
        )
        assert fused == unfused == per_user
        assert sum(len(batch) for batch in fused.values()) <= 40
        assert all(fused_ran) == (tier == "native" or not fused_ran)
        assert not any(unfused_ran)

    @needs_native
    @pytest.mark.parametrize("group_name", ["group", "ed_group"])
    def test_one_build_call_per_chain_whatever_its_size(
        self, request, group_name, monkeypatch
    ):
        from repro.client.user import ChainKeysView
        from repro.population.batch_build import PendingColumns, build_chain_submissions

        group = request.getfixturevalue(group_name)
        rng = random.Random(9)
        view = ChainKeysView(2, tuple(group.base_mult(s) for s in (3, 5, 7)), group.base_mult(11))
        forbid(monkeypatch, aenc, aead.aenc_batch, shared_keys_batch)
        monkeypatch.setattr(group, "fixed_point_mult_batch", None)  # the per-operation path
        seen = []
        for size in (1, 8, 40):
            pending = PendingColumns(
                [f"user-{i}" for i in range(size)],
                *([rng.randbytes(width) for _ in range(size)] for width in (32, 32, 256, 32)),
                list(range(size)),
            )
            with native_dispatches() as counts:
                assert len(build_chain_submissions(group, view, 4, pending)) == size
            seen.append(counts)
        name = "xrd_modp_onion_build" if group_name == "group" else "xrd_ed25519_onion_build"
        assert seen[0] == seen[1] == seen[2] == {"xrd_chacha20_blocks": 1, name: 1}

    @needs_native
    def test_declines_before_the_c_call(self, monkeypatch):
        kernels.set_active_kernel("native")
        ffi, lib = kernels._load_native()

        class NoKernel:  # any attribute is a kernel that must not be reached
            def __getattr__(self, name):
                raise AssertionError(f"{name} called on a batch the wrapper must decline")

        key, body = b"k" * 32, b"b" * 256
        good = (MODP.base_mult(5), [MODP.base_mult(7)], 3, [key, key], [key, key], [body, body],
                [[1, 2], [3, 4], [5, 6]])
        curve_head = [CURVE.base_mult(5), [CURVE.base_mult(7)]]
        assert MODP.onion_build(*good) is not None
        assert CURVE.onion_build(*curve_head, *good[2:]) is not None
        monkeypatch.setattr(kernels, "_load_native", lambda: (ffi, NoKernel()))
        for position, bad in (
            (5, [body, body[:-1]]),           # ragged bodies
            (3, [key, key[:-1]]),             # a short seal key
            (3, [key]),                       # a short key column
            (4, [key, key + b"x"]),           # a long recipient
            (6, [[1, 2], [3, 4], [5]]),       # a short scalar column
        ):
            columns = list(good)
            columns[position] = bad
            assert MODP.onion_build(*columns) is None
            assert CURVE.onion_build(*curve_head, *columns[2:]) is None
        # What the C side itself refuses: an element outside the group.
        monkeypatch.undo()
        kernels.set_active_kernel("native")
        assert MODP.onion_build(MODP.prime, *good[1:]) is None
        assert kernels.modp_onion_build(2**300 + 1, 2, *good) is None


# -- accumulate_rows (ABI 4) ---------------------------------------------------


@needs_native
class TestRowsDifferential:
    """The rows kernels against the per-row Python reference: ``k`` terms per
    row for k = 1, 2, 3, empty and single batches, scalars at the order's
    edges, the identity and (on the curve) small-order points, and the
    shapes the wrappers decline."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MODULI), st.integers(1, 3), st.integers(0, 5), st.data())
    def test_modp_rows(self, modulus, k, n, data):
        kernels.set_active_kernel("native")
        elements = data.draw(
            st.lists(
                st.integers(0, modulus - 1) | st.sampled_from([0, 1, modulus - 1]),
                min_size=k * n, max_size=k * n,
            ),
            label="elements",
        )
        exponents = data.draw(
            st.lists(_exponent_st(modulus), min_size=k * n, max_size=k * n), label="exponents"
        )
        expected = []
        for start in range(0, k * n, k):
            value = 1 % modulus
            for element, exponent in zip(elements[start:start + k], exponents[start:start + k]):
                value = value * pow(element, exponent, modulus) % modulus
            expected.append(value)
        assert kernels.modp_accumulate_rows(modulus, elements, exponents, k) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.data())
    def test_ed25519_rows(self, k, n, data):
        kernels.set_active_kernel("native")
        points = data.draw(
            st.lists(curve_points_st(), min_size=k * n, max_size=k * n), label="points"
        )
        scalars = data.draw(
            st.lists(curve_scalars_st, min_size=k * n, max_size=k * n), label="scalars"
        )
        expected = []
        for start in range(0, k * n, k):
            total = group_mod._IDENTITY
            for point, scalar in zip(points[start:start + k], scalars[start:start + k]):
                total = group_mod._edwards_add(total, _reference_mult(point, scalar))
            expected.append(_record(total))
        assert kernels.ed25519_accumulate_rows(points, scalars, k) == expected

    def test_single_and_empty_batches(self):
        kernels.set_active_kernel("native")
        p = 2**127 - 1
        assert kernels.modp_accumulate_rows(p, [], [], 2) == []
        assert kernels.modp_accumulate_rows(p, [5], [3], 1) == [125]
        assert kernels.modp_accumulate_rows(p, [5, 7], [3, 2], 2) == [125 * 49]
        assert kernels.modp_accumulate_rows(p, [5, 7], [3, 2], 1) == [125, 49]
        base = group_mod._BASE_POINT
        five = _record(_reference_mult(base, 5))
        assert kernels.ed25519_accumulate_rows([], [], 2) == []
        assert kernels.ed25519_accumulate_rows([base], [5], 1) == [five]
        assert kernels.ed25519_accumulate_rows([base, base], [2, 3], 2) == [five]
        assert kernels.ed25519_accumulate_rows([base, base], [5, 5], 1) == [five, five]

    def test_rows_share_nothing(self):
        """A row's answer does not depend on its neighbours (tables are per row)."""
        kernels.set_active_kernel("native")
        base = group_mod._BASE_POINT
        other = _reference_mult(base, 9)
        together = kernels.ed25519_accumulate_rows(
            [base, other, other, base], [3, 4, 5, 6], 2
        )
        assert together == [
            *kernels.ed25519_accumulate_rows([base, other], [3, 4], 2),
            *kernels.ed25519_accumulate_rows([other, base], [5, 6], 2),
        ]

    def test_declines_ragged_and_out_of_range(self):
        kernels.set_active_kernel("native")
        p = 2**61 - 1
        base = group_mod._BASE_POINT
        assert kernels.modp_accumulate_rows(p, [2, 3, 4], [1, 1, 1], 2) is None  # not whole rows
        assert kernels.modp_accumulate_rows(p, [2, 3], [1], 2) is None           # scalars short
        assert kernels.modp_accumulate_rows(p, [2, 3], [1, 1], 0) is None
        assert kernels.modp_accumulate_rows(p, [p, 3], [1, 1], 2) is None        # element >= p
        assert kernels.modp_accumulate_rows(p, [2, 3], [1, 2**256], 2) is None
        assert kernels.modp_accumulate_rows(2**300 + 1, [2], [2], 1) is None
        assert kernels.ed25519_accumulate_rows([base] * 3, [1, 1, 1], 2) is None
        assert kernels.ed25519_accumulate_rows([base] * 2, [1], 2) is None
        assert kernels.ed25519_accumulate_rows([base], [1], 0) is None
        assert kernels.ed25519_accumulate_rows([group_mod.Point(-1, 1, 1, 0)], [1], 1) is None
        assert kernels.ed25519_accumulate_rows([base], [2**256], 1) is None
        assert kernels.ed25519_accumulate_rows([group_mod.Point(0, 0, 0, 0)], [1], 1) is None

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["modp", "curve"]), st.integers(1, 3), st.integers(0, 3), st.data())
    def test_group_rows_are_tier_invariant(self, name, k, n, data):
        """``accumulate_rows`` and ``multi_scalar_mult`` answer identically on
        both tiers, scalars at and above the order included (both reduce)."""
        group = MODP if name == "modp" else CURVE
        points = _group_elements(group, data, k * n)
        scalars = data.draw(
            st.lists(
                st.integers(0, 2 * group.order) | st.sampled_from([0, 1, group.order - 1, group.order]),
                min_size=k * n, max_size=k * n,
            ),
            label="scalars",
        )
        answers = []
        for tier in ("python", "native"):
            kernels.set_active_kernel(tier)
            rows = group.accumulate_rows(points, scalars, k)
            singles = group.accumulate_rows(points, scalars, 1)
            answers.append([group.encode(point) for point in rows + singles])
        assert answers[0] == answers[1]
        assert answers[0][n:] == [
            group.encode(group.scalar_mult(point, scalar)) for point, scalar in zip(points, scalars)
        ]

    def test_group_rows_reject_ragged_input(self):
        for group in (MODP, CURVE):
            points = [group.base_mult(3)] * 3
            with pytest.raises(ConfigurationError):
                group.accumulate_rows(points, [1, 2, 3], 2)
            with pytest.raises(ConfigurationError):
                group.accumulate_rows(points, [1, 2], 1)
            with pytest.raises(ConfigurationError):
                group.accumulate_rows(points, [1, 2, 3], 0)


# -- tier selection machinery ------------------------------------------------


class TestTierSelection:
    def test_best_available_resolution(self):
        resolved = kernels.active_kernel()
        if NATIVE:
            assert resolved is CryptoKernelKind.NATIVE
        else:
            assert resolved is CryptoKernelKind.PYTHON

    def test_set_active_kernel_round_trip(self):
        assert kernels.set_active_kernel("python") is CryptoKernelKind.PYTHON
        assert kernels.active_kernel() is CryptoKernelKind.PYTHON
        assert not kernels.native_enabled()

    def test_none_restores_lazy_resolution(self):
        kernels.set_active_kernel("python")
        assert kernels.set_active_kernel(None) is kernels.active_kernel()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("XRD_CRYPTO_KERNEL", "python")
        kernels.reset_kernel_for_tests()
        assert kernels.active_kernel() is CryptoKernelKind.PYTHON

    @pytest.mark.parametrize("tier", TIERS)
    def test_env_selects_each_tier(self, monkeypatch, tier):
        monkeypatch.setenv("XRD_CRYPTO_KERNEL", tier)
        kernels.reset_kernel_for_tests()
        assert kernels.active_kernel() is CryptoKernelKind(tier)
        assert kernels.native_enabled() == (tier == "native")

    def test_env_invalid_value_raises(self, monkeypatch):
        monkeypatch.setenv("XRD_CRYPTO_KERNEL", "turbo")
        kernels.reset_kernel_for_tests()
        with pytest.raises(ConfigurationError):
            kernels.active_kernel()

    def test_numpy_is_not_a_tier(self, monkeypatch):
        """Two tiers, named by the environment gate."""
        monkeypatch.setenv("XRD_CRYPTO_KERNEL", "numpy")
        kernels.reset_kernel_for_tests()
        with pytest.raises(ConfigurationError, match=r"\['python', 'native'\]"):
            kernels.active_kernel()

    def test_numpy_is_never_imported(self):
        """A production round — the benchmark's ``steady`` configuration at
        toy size — runs without numpy ever entering ``sys.modules``."""
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, warnings\n"
            "import repro\n"
            "from benchmarks.e2e.workloads import WORKLOADS, build_config\n"
            "steady = WORKLOADS['steady']\n"
            "config, _ = build_config(steady, 1, steady.toy_users)\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('ignore', RuntimeWarning)  # python-tier downgrade\n"
            "    deployment = repro.Deployment.create(config)\n"
            "assert deployment.run_round().all_chains_delivered()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            (package_root, os.path.dirname(package_root))
        ))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr

    def test_wrappers_return_none_on_python_tier(self):
        kernels.set_active_kernel("python")
        assert kernels.chacha20_blocks([b"\x00" * 32], [b"\x00" * 12], [0]) is None
        assert kernels.aead_seal_batch([b"\x00" * 32], [b"\x00" * 12], [b""], b"") is None
        assert kernels.aead_open_spans(
            b"", [0], [0], b"\x00" * 32, [0], [1], b"\x00" * 12, b"", b""
        ) is None
        assert kernels.hkdf_derive_batch(b"\x00" * 32, b"label") is None
        assert kernels.modp_scalar_mult_batch(2**61 - 1, [2], 2) is None
        assert kernels.modp_accumulate_rows(2**61 - 1, [2], [2], 1) is None
        assert kernels.modp_scalar_mult_keys(2**61 - 1, [2], 2, b"label") is None
        base = group_mod._BASE_POINT
        assert kernels.ed25519_scalar_mult_keys([base], 2, b"label") is None
        assert kernels.ed25519_scalar_mult_batch([base], 2) is None
        assert kernels.ed25519_fixed_mult_batch(base, [2]) is None
        assert kernels.ed25519_accumulate_rows([base], [2], 1) is None
        assert kernels.ed25519_encode_batch([base]) is None
        assert kernels.ed25519_decode_batch([b"\x01" + b"\x00" * 31]) is None

    def test_downgrade_warns_once_when_unavailable(self, monkeypatch):
        from repro import native

        monkeypatch.setenv("XRD_NATIVE_DISABLE", "1")
        native.reset_probe_for_tests()
        try:
            assert not kernels.native_available()
            with pytest.warns(RuntimeWarning, match="falling back"):
                resolved = kernels.set_active_kernel("native")
            assert resolved is CryptoKernelKind.PYTHON
            # The warning fires once per process, not once per call.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kernels.reset_kernel_for_tests()
                kernels._warned_downgrade = True
                kernels.set_active_kernel("native")
        finally:
            monkeypatch.delenv("XRD_NATIVE_DISABLE")
            native.reset_probe_for_tests()

    def test_loader_negative_probe_is_cached(self, monkeypatch):
        from repro import native

        monkeypatch.setenv("XRD_NATIVE_DISABLE", "1")
        native.reset_probe_for_tests()
        try:
            assert native.load() is None
            assert native.load_error() is not None
            monkeypatch.delenv("XRD_NATIVE_DISABLE")
            # Still None without a re-probe: the result is cached.
            assert native.load() is None
        finally:
            native.reset_probe_for_tests()

    @needs_native
    def test_first_kernel_calls_from_many_threads_all_resolve_native(self, monkeypatch):
        """Chains build and mix on several threads from the first round, so
        the first kernel calls can race: a thread arriving while another is
        still probing (the ABI read releases the GIL) must wait for the
        probe, not read it as "no extension" and pin the python tier."""
        from repro import native

        built_abi = native._built_abi

        def slow_built_abi():
            time.sleep(0.05)
            return built_abi()

        monkeypatch.delenv("XRD_CRYPTO_KERNEL", raising=False)
        monkeypatch.setattr(native, "_built_abi", slow_built_abi)
        native.reset_probe_for_tests()
        kernels.reset_kernel_for_tests()  # lazy again, and not yet resolved
        start = threading.Barrier(8, timeout=10)
        seen = []

        def first_call():
            start.wait()
            seen.append(kernels.active_kernel())

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert seen == [CryptoKernelKind.NATIVE] * 8
        finally:
            kernels.reset_kernel_for_tests()

    @needs_native
    def test_loader_reports_abi(self):
        from repro import native

        ffi, lib = native.load()
        assert lib.xrd_abi_version() == native.EXPECTED_ABI

    @needs_native
    def test_stale_build_is_replaced_before_first_import(self, tmp_path):
        """The first process after an ABI bump already runs native.

        A copy of the package gets an extension built from sources one ABI
        behind (stamp included) next to today's sources.  An extension
        module cannot be reloaded, so the loader must spot the stale file
        without importing it, rebuild, and only then import.
        """
        import repro
        from repro import native

        package = tmp_path / "src" / "repro"
        shutil.copytree(
            os.path.dirname(repro.__file__), package,
            ignore=shutil.ignore_patterns("__pycache__", "_xrdkernels*"),
        )
        source = package / "native" / "xrdkernels.c"
        current = source.read_text(encoding="utf-8")
        define = f"#define XRD_KERNELS_ABI {native.EXPECTED_ABI}"
        assert define in current
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
        env.pop("XRD_NATIVE_DISABLE", None)
        env.pop("XRD_CRYPTO_KERNEL", None)

        def run(code):
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=tmp_path,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout.split()

        source.write_text(
            current.replace(define, f"#define XRD_KERNELS_ABI {native.EXPECTED_ABI - 1}"),
            encoding="utf-8",
        )
        run("from repro.native import _build; _build.compile_extension()")
        source.write_text(current, encoding="utf-8")
        probe = (
            "from repro import native\n"
            "from repro.crypto import kernels\n"
            "print(native._built_abi(), kernels.active_kernel().value,"
            " native.load()[1].xrd_abi_version(), native.load_error())"
        )
        stale, tier, abi, error = run(probe)
        assert int(stale) == native.EXPECTED_ABI - 1
        assert (tier, int(abi), error) == ("native", native.EXPECTED_ABI, "None")
        # ... and the second process finds nothing left to do.
        assert run(probe) == [str(native.EXPECTED_ABI), "native", str(native.EXPECTED_ABI), "None"]

    def test_abi_mismatch_after_import_is_recorded(self, monkeypatch):
        """A module that is already in the process cannot be swapped: if it
        reports the wrong ABI the loader says so instead of a bare ``None``."""
        from repro import native

        class _Lib:
            @staticmethod
            def xrd_abi_version():
                return native.EXPECTED_ABI - 1

        monkeypatch.delenv("XRD_NATIVE_DISABLE", raising=False)
        monkeypatch.setattr(native, "_built_abi", lambda: native.EXPECTED_ABI)
        monkeypatch.setattr(native, "_import_extension", lambda: (object(), _Lib))
        native.reset_probe_for_tests()
        try:
            assert native.load() is None
            assert "ABI" in str(native.load_error())
        finally:
            native.reset_probe_for_tests()


# -- error-message satellites ------------------------------------------------


class TestLengthMismatchMessages:
    def test_chacha_batch_reports_all_three_lengths(self):
        with pytest.raises(CryptoError, match=r"2 keys, 1 nonces, 3 counters"):
            chacha20.chacha20_blocks_batch(
                [b"\x00" * 32] * 2, [b"\x00" * 12], [0, 1, 2]
            )

    def test_aenc_batch_reports_lengths(self):
        with pytest.raises(CryptoError, match=r"3 keys, 2 plaintexts"):
            aead.aenc_batch([b"\x00" * 32] * 3, 1, [b"a", b"b"])

    def test_adec_batch_reports_lengths(self):
        with pytest.raises(CryptoError, match=r"1 keys, 2 ciphertexts"):
            aead.adec_batch([b"\x00" * 32], 1, [b"a" * 16, b"b" * 16])

    def test_key_blob_is_counted_in_keys(self):
        with pytest.raises(CryptoError, match=r"3 keys, 2 plaintexts"):
            aead.aenc_batch(b"\x00" * 96, 1, [b"a", b"b"])
        with pytest.raises(CryptoError, match=r"32 bytes"):
            aead.aenc_batch(b"\x00" * 33, 1, [b"a"])


# -- window-table cache satellite --------------------------------------------


class TestWindowTableCache:
    @pytest.fixture(autouse=True)
    def _clean_caches(self):
        reset_window_table_caches()
        yield
        reset_window_table_caches()

    def test_decoded_copies_share_one_table(self):
        group = Ed25519Group()
        encoded = group.encode(group.base_mult(7))
        first = group.decode(encoded)
        second = group.decode(encoded)
        assert first is not second
        group_mod._window_table(first)   # probation
        table = group_mod._window_table(first)  # promoted
        assert group_mod._window_table(second) is table

    def test_unencoded_point_is_never_cached(self):
        kernels.set_active_kernel("python")
        group = Ed25519Group()
        point = group.base_mult(11)  # never encoded: no _enc memo yet
        assert "_enc" not in point.__dict__
        first = group_mod._window_table(point)
        assert group_mod._window_table(point) is not first
        assert "_enc" not in point.__dict__
        assert not group_mod._WINDOW_TABLE_BY_ENCODING
        assert not group_mod._ENCODING_SEEN_ONCE

    def test_reset_clears_everything_but_base(self):
        group = Ed25519Group()
        point = group.decode(group.encode(group.base_mult(13)))
        group_mod._window_table(point)
        group_mod._window_table(point)
        assert group_mod._WINDOW_TABLE_BY_ENCODING
        base_table = group_mod._window_table(group.base())
        reset_window_table_caches()
        assert not group_mod._WINDOW_TABLE_BY_ENCODING
        assert not group_mod._ENCODING_SEEN_ONCE
        assert group_mod._window_table(group.base()) is base_table

    def test_cache_is_bounded(self):
        group = Ed25519Group()
        for scalar in range(2, 2 + group_mod._WINDOW_TABLE_CACHE_LIMIT + 8):
            point = group.decode(group.encode(group.base_mult(scalar)))
            group_mod._window_table(point)
            group_mod._window_table(point)
        assert (
            len(group_mod._WINDOW_TABLE_BY_ENCODING)
            <= group_mod._WINDOW_TABLE_CACHE_LIMIT
        )
