"""Prime-order groups used for all Diffie-Hellman operations in XRD.

The paper assumes "a group of prime order p with a generator g in which
discrete log is hard and the decisional Diffie-Hellman assumption holds"
(§3.1).  Two implementations are provided behind one interface:

* :class:`Ed25519Group` — the edwards25519 curve (RFC 8032 parameters) in
  extended twisted-Edwards coordinates.  All protocol code uses this group
  by default; its prime-order subgroup has the standard ~2^252 order.  The
  pure-Python ladders here are the reference; on the ``native`` kernel tier
  the multiplications, the accumulation and the point codec run in
  ``_xrdkernels`` (DESIGN.md §11) and must agree with them bit for bit.
* :class:`ModPGroup` — the quadratic-residue subgroup of ``Z_p*`` for a
  deterministically generated safe prime.  It is far too small to be secure
  but is convenient for fast property-based tests of group-generic code.

Group elements are represented by :class:`Point` (for the curve) or plain
integers (for the modular group); all operations go through the group object
so protocol code stays agnostic of the representation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.crypto import field
from repro.crypto import kernels as _kernels
from repro.crypto import stream
from repro.errors import ConfigurationError, CryptoError, DecodingError

__all__ = [
    "Point",
    "Ed25519Group",
    "ModPGroup",
]

# --- edwards25519 parameters (RFC 8032) -------------------------------------

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * field.inverse_mod(121666, _P)) % _P
_BASE_Y = (4 * field.inverse_mod(5, _P)) % _P


@dataclass(frozen=True)
class Point:
    """A point on edwards25519 in extended homogeneous coordinates.

    The coordinates satisfy ``x = X/Z``, ``y = Y/Z`` and ``T = XY/Z``.
    Instances are immutable; equality compares the underlying affine point.
    """

    x: int
    y: int
    z: int
    t: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if (self.x * other.z - other.x * self.z) % _P != 0:
            return False
        return (self.y * other.z - other.y * self.z) % _P == 0

    def __hash__(self) -> int:
        return hash(self.affine())

    def affine(self) -> tuple:
        """Return the affine ``(x, y)`` coordinates of this point."""
        z_inv = field.inverse_mod(self.z, _P)
        return ((self.x * z_inv) % _P, (self.y * z_inv) % _P)

    def is_identity(self) -> bool:
        """Return ``True`` when this point is the group identity (0, 1)."""
        return self.x % _P == 0 and (self.y - self.z) % _P == 0


def _point_from_affine(x: int, y: int) -> Point:
    return Point(x % _P, y % _P, 1, (x * y) % _P)


_IDENTITY = Point(0, 1, 1, 0)


def _edwards_add(p: Point, q: Point) -> Point:
    """Complete point addition (add-2008-hwcd-3 for a = -1)."""
    a = ((p.y - p.x) * (q.y - q.x)) % _P
    b = ((p.y + p.x) * (q.y + q.x)) % _P
    c = (p.t * 2 * _D * q.t) % _P
    d = (p.z * 2 * q.z) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return Point((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _edwards_double(p: Point) -> Point:
    """Point doubling (dbl-2008-hwcd for a = -1)."""
    a = (p.x * p.x) % _P
    b = (p.y * p.y) % _P
    c = (2 * p.z * p.z) % _P
    h = a + b
    e = h - ((p.x + p.y) * (p.x + p.y)) % _P
    g = a - b
    f = c + g
    return Point((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _recover_x(y: int, sign: int) -> int:
    """Recover the x coordinate from y and the sign bit (RFC 8032 §5.1.3)."""
    y2 = (y * y) % _P
    u = (y2 - 1) % _P
    v = (_D * y2 + 1) % _P
    x2 = (u * field.inverse_mod(v, _P)) % _P
    if x2 == 0:
        if sign:
            raise DecodingError("invalid point encoding: x would be zero with sign bit set")
        return 0
    try:
        x = field.sqrt_mod_p58(x2, _P)
    except CryptoError:
        raise DecodingError("invalid point encoding: x^2 is not a square") from None
    if x & 1 != sign:
        x = _P - x
    return x


_BASE_POINT = _point_from_affine(_recover_x(_BASE_Y, 0), _BASE_Y)

# --- fixed-base and fixed-point precomputation ------------------------------
#
# The hot paths of the protocol multiply a small set of long-lived points
# (the base point, chain mixing/blinding keys, users' DH keys during proof
# verification) by fresh scalars thousands of times per round.  Two layers
# of precomputation speed this up without changing any observable output:
#
# * the base point's tables, built once per process: a comb
#   ``_BASE_COMB[j][d] = d · 16^j · B`` so a base multiplication is ~63
#   additions and no doublings, and its 4-bit window table;
# * a per-call 4-bit window table (``[P, 2P, …, 15P]``) for any other point,
#   shared by every scalar of a batch, and Straus interleaving for Σ sᵢ·Pᵢ,
#   sharing one doubling chain between all terms (used by NIZK
#   verification, which checks ``s·G − c·P == R``).
#
# No other point's table outlives its call: this tier is the reference, and
# the native kernels build their tables in C.

_WINDOW_BITS = 4
_WINDOW_SIZE = 1 << _WINDOW_BITS  # 16
_SCALAR_WINDOWS = (253 + _WINDOW_BITS - 1) // _WINDOW_BITS  # 64 windows cover any scalar < L

_BASE_COMB: Optional[List[List[Point]]] = None

_BASE_WINDOW_TABLE: Optional[List[Point]] = None


def _point_encoding(point: Point) -> bytes:
    """The canonical 32-byte encoding, memoised on the instance.

    ``Point`` is frozen but not slotted, so the memo rides in the instance
    ``__dict__`` via ``object.__setattr__``; ``encode``/``decode`` seed it
    for free on every point that touches the wire.
    """
    enc = point.__dict__.get("_enc")
    if enc is None:
        x, y = point.affine()
        data = bytearray(y.to_bytes(32, "little"))
        if x & 1:
            data[31] |= 0x80
        enc = bytes(data)
        object.__setattr__(point, "_enc", enc)
    return enc


def _point_from_record(record: "_kernels.Ed25519Record") -> Point:
    """A native kernel's affine result as a :class:`Point`, encoding memoised."""
    encoding, x, y, t = record
    point = Point(x, y, 1, t)
    object.__setattr__(point, "_enc", encoding)
    return point


def _window_table(point: Point) -> List[Point]:
    """Return ``[1·P, 2·P, …, 15·P]``: the base point's pinned table, or a new one."""
    global _BASE_WINDOW_TABLE
    if point is not _BASE_POINT:
        return _build_window_table(point)
    if _BASE_WINDOW_TABLE is None:  # the hottest point in every verification
        _BASE_WINDOW_TABLE = _build_window_table(point)
    return _BASE_WINDOW_TABLE


def _build_window_table(point: Point) -> List[Point]:
    table = [point]
    for _ in range(_WINDOW_SIZE - 2):
        table.append(_edwards_add(table[-1], point))
    return table


def _scalar_windows(scalar: int) -> List[int]:
    """Split a scalar below 2^256 into ``_SCALAR_WINDOWS`` 4-bit digits, LSB first."""
    return [(scalar >> (_WINDOW_BITS * j)) & (_WINDOW_SIZE - 1) for j in range(_SCALAR_WINDOWS)]


def _base_comb() -> List[List[Point]]:
    """Build (once) the fixed-base comb table ``comb[j][d] = d · 16^j · B``."""
    global _BASE_COMB
    if _BASE_COMB is None:
        comb: List[List[Point]] = []
        row_base = _BASE_POINT
        for _ in range(_SCALAR_WINDOWS):
            row = [row_base]
            for _ in range(_WINDOW_SIZE - 2):
                row.append(_edwards_add(row[-1], row_base))
            comb.append(row)
            for _ in range(_WINDOW_BITS):
                row_base = _edwards_double(row_base)
        _BASE_COMB = comb
    return _BASE_COMB


def _windowed_mult_with_table(table: List[Point], digits: List[int]) -> Point:
    """The 4-bit window ladder over a prebuilt table — the one copy of it."""
    result = _IDENTITY
    for digit in reversed(digits):
        result = _edwards_double(_edwards_double(_edwards_double(_edwards_double(result))))
        if digit:
            result = _edwards_add(result, table[digit - 1])
    return result


def _windowed_mult(point: Point, digits: List[int]) -> Point:
    """Multiply ``point`` by the scalar whose 4-bit digits (LSB first) are given."""
    return _windowed_mult_with_table(_window_table(point), digits)


_LENGTH = struct.Struct(">Q").pack


def _hash_to_scalars(prefix: Sequence[bytes], rows: Iterable[Sequence[bytes]],
                     byteorder: str, order: int) -> List[int]:
    """``hash_to_scalar(*prefix, *row)`` for every row (the transcript is
    ``len ‖ part`` per part): the shared prefix is hashed once, and each row
    is one ``copy`` of that state and one ``update`` over its joined parts."""
    head = hashlib.sha512(b"".join([_LENGTH(len(part)) + part for part in prefix]))
    copy, from_bytes = head.copy, int.from_bytes
    scalars = []
    for row in rows:
        hasher = copy()
        hasher.update(b"".join([_LENGTH(len(part)) + part for part in row]))
        scalars.append(from_bytes(hasher.digest(), byteorder) % order)
    return scalars


def _decode_each(decode, encodings: Sequence[bytes]) -> list:
    """``[decode(data) for data in encodings]``, ``None`` where it raises
    :class:`DecodingError` — the reference form of ``decode_batch``."""
    points = []
    for data in encodings:
        try:
            points.append(decode(data))
        except DecodingError:
            points.append(None)
    return points


def _check_rows(points: Sequence, scalars: Sequence[int], k: int) -> None:
    if k < 1 or len(points) != len(scalars) or len(points) % k:
        raise ConfigurationError(
            f"rows of {k} need as many scalars as points, in whole rows "
            f"(got {len(points)} points, {len(scalars)} scalars)"
        )


def _random_scalar(group, rng: Optional[object]) -> int:
    """A uniformly random non-zero scalar of ``group``.

    ``rng`` is any object with a ``randrange`` method (the tests' seeded
    generators, the analytic models); without one the scalar is the first
    draw of a fresh stream key.  Protocol code draws from its own stream key
    (:mod:`repro.crypto.stream`) instead.
    """
    if rng is None:
        return stream.fresh_scalar(group)
    while True:
        value = rng.randrange(group.order)
        if value != 0:
            return value


class Ed25519Group:
    """The prime-order subgroup of edwards25519 used for all XRD DH operations."""

    #: Size of an encoded element in bytes.
    element_size = 32
    #: Size of an encoded scalar in bytes.
    scalar_size = 32

    def __init__(self) -> None:
        self.order = _L
        self.prime = _P

    # -- scalars -------------------------------------------------------------

    def random_scalar(self, rng: Optional[object] = None) -> int:
        """A uniformly random non-zero scalar (see :func:`_random_scalar`)."""
        return _random_scalar(self, rng)

    def encode_scalar(self, scalar: int) -> bytes:
        """Encode a scalar as 32 little-endian bytes."""
        return (scalar % self.order).to_bytes(self.scalar_size, "little")

    def decode_scalar(self, data: bytes) -> int:
        """Decode a 32-byte little-endian scalar."""
        if len(data) != self.scalar_size:
            raise DecodingError(f"scalar encoding must be {self.scalar_size} bytes")
        return int.from_bytes(data, "little") % self.order

    # -- elements ------------------------------------------------------------

    def identity(self) -> Point:
        """Return the group identity element."""
        return _IDENTITY

    def base(self) -> Point:
        """Return the standard base point of the prime-order subgroup."""
        return _BASE_POINT

    def add(self, left: Point, right: Point) -> Point:
        """Return the group operation (point addition) of two elements."""
        return _edwards_add(left, right)

    def neg(self, point: Point) -> Point:
        """Return the inverse element of ``point``."""
        return Point((-point.x) % _P, point.y, point.z, (-point.t) % _P)

    def sub(self, left: Point, right: Point) -> Point:
        """Return ``left - right`` (the "division" used by the blame analysis)."""
        return self.add(left, self.neg(right))

    def sum(self, points: Iterable[Point]) -> Point:
        """Return the aggregate (sum) of the points, used by AHS verification."""
        total = _IDENTITY
        for point in points:
            total = _edwards_add(total, point)
        return total

    def scalar_mult(self, point: Point, scalar: int) -> Point:
        """Return ``scalar * point`` using a 4-bit fixed-window ladder.

        Multiplications by the standard base point are routed to the
        precomputed comb table of :meth:`base_mult` (natively too: the comb
        is constant time in the scalar, like the ladder).
        """
        scalar %= self.order
        if point is _BASE_POINT or point == _BASE_POINT:
            return self.base_mult(scalar)
        native = _kernels.ed25519_scalar_mult_batch([point], scalar)
        if native is not None:
            return _point_from_record(native[0])
        if scalar == 0 or point.is_identity():
            return _IDENTITY
        return _windowed_mult(point, _scalar_windows(scalar))

    def scalar_mult_slow(self, point: Point, scalar: int) -> Point:
        """Reference double-and-add ladder (kept for tests and benchmarks)."""
        scalar %= self.order
        if scalar == 0 or point.is_identity():
            return _IDENTITY
        result = _IDENTITY
        addend = point
        while scalar:
            if scalar & 1:
                result = _edwards_add(result, addend)
            addend = _edwards_double(addend)
            scalar >>= 1
        return result

    def base_mult(self, scalar: int) -> Point:
        """Return ``scalar * B`` via the fixed-base comb table (additions only)."""
        scalar %= self.order
        native = _kernels.ed25519_fixed_mult_batch(_BASE_POINT, [scalar])
        if native is not None:
            return _point_from_record(native[0])
        if scalar == 0:
            return _IDENTITY
        comb = _base_comb()
        result = _IDENTITY
        index = 0
        while scalar:
            digit = scalar & (_WINDOW_SIZE - 1)
            if digit:
                result = _edwards_add(result, comb[index][digit - 1])
            scalar >>= _WINDOW_BITS
            index += 1
        return result

    def scalar_mult_batch(self, points: Sequence[Point], scalar: int) -> List[Point]:
        """Return ``[scalar · P for P in points]``, recoding the scalar once.

        This is the blinding fast path of :meth:`ChainMember.process_round
        <repro.mixnet.ahs.ChainMember.process_round>`: one chain member
        multiplies every submission's DH key by the same blinding secret.
        """
        scalar %= self.order
        native = _kernels.ed25519_scalar_mult_batch(points, scalar)
        if native is not None:
            return [_point_from_record(record) for record in native]
        if scalar == 0:
            return [_IDENTITY for _ in points]
        digits = _scalar_windows(scalar)
        return [
            _IDENTITY if point.is_identity() else _windowed_mult(point, digits)
            for point in points
        ]

    def fixed_point_mult_batch(self, point: Point, scalars: Sequence[int]) -> List[Point]:
        """Return ``[s·P for s in scalars]`` — one point, many scalars.

        The dual of :meth:`scalar_mult_batch`, and the shape of the
        population layer's whole-chain client crypto: every user of a chain
        multiplies the *same* public key (the aggregate inner key, or one
        mixing key) by her own fresh scalar.  The point's window table
        (natively: its comb) is built once for the whole batch;
        ``scalar_mult`` would rebuild it per call.
        """
        reduced = [scalar % self.order for scalar in scalars]
        native = _kernels.ed25519_fixed_mult_batch(point, reduced)
        if native is not None:
            return [_point_from_record(record) for record in native]
        if point is _BASE_POINT or point == _BASE_POINT:
            return [self.base_mult(scalar) for scalar in reduced]
        if point.is_identity():
            return [_IDENTITY for _ in reduced]
        table = _window_table(point)
        return [
            _IDENTITY
            if scalar == 0
            else _windowed_mult_with_table(table, _scalar_windows(scalar))
            for scalar in reduced
        ]

    def scalar_mult_keys(self, points: Sequence[Point], scalar: int,
                         label: bytes) -> Optional[bytes]:
        """The KDF keys of ``[scalar · P for P in points]`` as one blob, or ``None``.

        DH, encode and KDF without leaving the native kernels; ``None``
        means there is no fused path and the caller runs the three steps.
        """
        return _kernels.ed25519_scalar_mult_keys(points, scalar % self.order, label)

    def onion_build(self, inner_public: Point, mixing_publics: Sequence[Point], round_number: int,
                    seal_keys, recipients, bodies, scalars) -> Optional["_kernels.OnionColumns"]:
        """One chain's onions, ``g^x`` and ``g^k`` in one native call, or ``None``.

        ``scalars`` is the three columns ``(y, x, k)``; ``None`` means there
        is no fused path and the caller builds operation by operation.
        """
        reduced = [[scalar % self.order for scalar in column] for column in scalars]
        return _kernels.ed25519_onion_build(
            inner_public, mixing_publics, round_number, seal_keys, recipients, bodies, reduced
        )

    def multi_scalar_accumulate(self, points: Sequence[Point], scalars: Sequence[int]) -> Point:
        """Return ``Σ sᵢ·Pᵢ`` with one shared doubling chain (Straus's trick)."""
        if len(points) != len(scalars):
            raise ConfigurationError("points and scalars must have the same length")
        native = _kernels.ed25519_accumulate_rows(
            points, [scalar % self.order for scalar in scalars], len(points)
        )
        if native is not None:
            return _point_from_record(native[0])
        terms = []
        for point, scalar in zip(points, scalars):
            scalar %= self.order
            if scalar == 0 or point.is_identity():
                continue
            terms.append((_window_table(point), _scalar_windows(scalar)))
        if not terms:
            return _IDENTITY
        result = _IDENTITY
        for index in range(_SCALAR_WINDOWS - 1, -1, -1):
            result = _edwards_double(_edwards_double(_edwards_double(_edwards_double(result))))
            for table, digits in terms:
                digit = digits[index]
                if digit:
                    result = _edwards_add(result, table[digit - 1])
        return result

    def accumulate_rows(self, points: Sequence[Point], scalars: Sequence[int],
                        k: int) -> List[Point]:
        """``n`` independent ``k``-term accumulations: row ``i`` is ``Σ_j s_ij·P_ij``.

        Entries ``i·k … i·k + k − 1`` of both inputs make row ``i``.  ``k = 1``
        multiplies many points by as many scalars; ``k = 2`` evaluates one
        Schnorr or Chaum-Pedersen verification equation per row.  One
        native call for the whole batch, else
        :meth:`multi_scalar_accumulate` row by row.
        """
        _check_rows(points, scalars, k)
        reduced = [scalar % self.order for scalar in scalars]
        native = _kernels.ed25519_accumulate_rows(points, reduced, k)
        if native is not None:
            return [_point_from_record(record) for record in native]
        return [
            self.multi_scalar_accumulate(points[start:start + k], reduced[start:start + k])
            for start in range(0, len(points), k)
        ]

    def diffie_hellman(self, public: Point, secret: int) -> Point:
        """Return the Diffie-Hellman shared element ``DH(public, secret)``."""
        return self.scalar_mult(public, secret)

    # -- encoding ------------------------------------------------------------

    def encode(self, point: Point) -> bytes:
        """Encode a point in the standard 32-byte compressed form."""
        if "_enc" not in point.__dict__:
            native = _kernels.ed25519_encode_batch([point])
            if native is not None:
                object.__setattr__(point, "_enc", native[0])
        return _point_encoding(point)

    def decode(self, data: bytes) -> Point:
        """Decode a 32-byte compressed point.

        Raises :class:`DecodingError` for malformed encodings.  The caller is
        responsible for rejecting points outside the prime-order subgroup
        where that matters (the protocol only ever transmits multiples of the
        base point, and tests verify subgroup membership explicitly).
        """
        if len(data) != self.element_size:
            raise DecodingError(f"element encoding must be {self.element_size} bytes")
        native = _kernels.ed25519_decode_batch([data])
        if native is not None and native[0] is not None:
            return _point_from_record(native[0])
        # The reference path; also where an encoding the kernel rejected
        # gets its exception.
        sign = data[31] >> 7
        y = int.from_bytes(bytes(data[:31]) + bytes([data[31] & 0x7F]), "little")
        if y >= _P:
            raise DecodingError("point y coordinate out of range")
        x = _recover_x(y, sign)
        point = _point_from_affine(x, y)
        # The input bytes ARE the canonical encoding (encode(decode(d)) == d
        # for any accepted d), so memoise them: re-encoding later would cost
        # an affine inversion.
        object.__setattr__(point, "_enc", bytes(data))
        return point

    def decode_batch(self, encodings: Sequence[bytes]) -> List[Optional[Point]]:
        """Decode many encodings: per entry its point, or ``None`` exactly
        where :meth:`decode` raises.

        One native call for every 32-byte encoding (any other length is
        ``None`` without reaching the kernel), else :meth:`decode` one by one.
        """
        sized = [index for index, data in enumerate(encodings) if len(data) == self.element_size]
        native = _kernels.ed25519_decode_batch([encodings[index] for index in sized])
        if native is None:
            return _decode_each(self.decode, encodings)
        points: List[Optional[Point]] = [None] * len(encodings)
        for index, record in zip(sized, native):
            if record is not None:
                points[index] = _point_from_record(record)
        return points

    def is_in_prime_subgroup(self, point: Point) -> bool:
        """Return ``True`` when ``point`` lies in the prime-order subgroup.

        ``[L]P`` with the order *unreduced*: :meth:`scalar_mult` reduces its
        scalar mod ``L`` first, which would turn this into ``[0]P`` and
        accept every point on the curve, small-order ones included.
        """
        native = _kernels.ed25519_scalar_mult_batch([point], self.order)
        if native is not None:
            return _point_from_record(native[0]).is_identity()
        table = _build_window_table(point)
        return _windowed_mult_with_table(table, _scalar_windows(self.order)).is_identity()

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash a transcript into a scalar (Fiat-Shamir challenge derivation)."""
        hasher = hashlib.sha512()
        for part in parts:
            hasher.update(len(part).to_bytes(8, "big"))
            hasher.update(part)
        return int.from_bytes(hasher.digest(), "little") % self.order

    def hash_to_scalars(self, prefix: Sequence[bytes],
                        rows: Iterable[Sequence[bytes]]) -> List[int]:
        """``[hash_to_scalar(*prefix, *row) for row in rows]``, hashing the
        shared prefix once (the batched Fiat-Shamir challenges)."""
        return _hash_to_scalars(prefix, rows, "little", self.order)


class ModPGroup:
    """Quadratic-residue subgroup of ``Z_p*`` for a deterministically found safe prime.

    Elements are plain integers in ``[1, p-1]``.  This group is *not* secure
    (the primes are tiny); it exists so that property-based tests of
    group-generic protocol code can run orders of magnitude faster than with
    the curve.  The interface mirrors :class:`Ed25519Group`.
    """

    def __init__(self, bits: int = 96, seed: str = "xrd-modp") -> None:
        self.prime = field.find_safe_prime(bits, seed=seed)
        self.order = (self.prime - 1) // 2
        self.generator = field.find_generator_of_prime_subgroup(self.prime)
        # Encode elements in the same 32-byte width as the curve group so the
        # fixed-size wire formats are identical regardless of the group used.
        self.element_size = 32
        self.scalar_size = 32
        if (self.prime.bit_length() + 7) // 8 > self.element_size:
            raise ConfigurationError("ModPGroup primes above 256 bits are not supported")

    # -- scalars -------------------------------------------------------------

    def random_scalar(self, rng: Optional[object] = None) -> int:
        return _random_scalar(self, rng)

    def encode_scalar(self, scalar: int) -> bytes:
        return (scalar % self.order).to_bytes(self.scalar_size, "big")

    def decode_scalar(self, data: bytes) -> int:
        return int.from_bytes(data, "big") % self.order

    # -- elements ------------------------------------------------------------

    def identity(self) -> int:
        return 1

    def base(self) -> int:
        return self.generator

    def add(self, left: int, right: int) -> int:
        return (left * right) % self.prime

    def neg(self, element: int) -> int:
        return field.inverse_mod(element, self.prime)

    def sub(self, left: int, right: int) -> int:
        return (left * field.inverse_mod(right, self.prime)) % self.prime

    def sum(self, elements: Iterable[int]) -> int:
        total = 1
        for element in elements:
            total = (total * element) % self.prime
        return total

    def scalar_mult(self, element: int, scalar: int) -> int:
        return pow(element, scalar % self.order, self.prime)

    def base_mult(self, scalar: int) -> int:
        return pow(self.generator, scalar % self.order, self.prime)

    def scalar_mult_batch(self, elements: Sequence[int], scalar: int) -> List[int]:
        exponent = scalar % self.order
        native = _kernels.modp_scalar_mult_batch(self.prime, elements, exponent)
        if native is not None:
            return native
        return [pow(element, exponent, self.prime) for element in elements]

    def fixed_point_mult_batch(self, element: int, scalars: Sequence[int]) -> List[int]:
        """Return ``[element^s for s in scalars]`` — one base, many exponents.

        The population layer's shape: every user of a chain exponentiates
        the same mixing (or aggregate inner) key by her own scalar.  The
        native kernel builds the base's comb once for the batch, as deep as
        its longest exponent (DESIGN.md §11.4).
        """
        exponents = [scalar % self.order for scalar in scalars]
        native = _kernels.modp_fixed_mult_batch(self.prime, element, exponents)
        if native is not None:
            return native
        return [pow(element, exponent, self.prime) for exponent in exponents]

    def scalar_mult_keys(self, elements: Sequence[int], scalar: int,
                         label: bytes) -> Optional[bytes]:
        """The KDF keys of ``[element^scalar for element in elements]`` as one blob, or ``None``.

        DH, encode and KDF without leaving the native kernels; ``None``
        means there is no fused path and the caller runs the three steps.
        """
        return _kernels.modp_scalar_mult_keys(
            self.prime, elements, scalar % self.order, label
        )

    def onion_build(self, inner_public: int, mixing_publics: Sequence[int], round_number: int,
                    seal_keys, recipients, bodies, scalars) -> Optional["_kernels.OnionColumns"]:
        """Mirrors :meth:`Ed25519Group.onion_build`."""
        reduced = [[scalar % self.order for scalar in column] for column in scalars]
        return _kernels.modp_onion_build(
            self.prime, self.generator, inner_public, mixing_publics,
            round_number, seal_keys, recipients, bodies, reduced,
        )

    def multi_scalar_accumulate(self, elements: Sequence[int], scalars: Sequence[int]) -> int:
        if len(elements) != len(scalars):
            raise ConfigurationError("elements and scalars must have the same length")
        exponents = [scalar % self.order for scalar in scalars]
        native = _kernels.modp_accumulate_rows(self.prime, elements, exponents, len(elements))
        if native is not None:
            return native[0]
        total = 1
        for element, exponent in zip(elements, exponents):
            total = (total * pow(element, exponent, self.prime)) % self.prime
        return total

    def accumulate_rows(self, elements: Sequence[int], scalars: Sequence[int],
                        k: int) -> List[int]:
        """``n`` independent ``k``-term accumulations: row ``i`` is ``Π_j e_ij^s_ij``.

        Mirrors :meth:`Ed25519Group.accumulate_rows`.
        """
        _check_rows(elements, scalars, k)
        exponents = [scalar % self.order for scalar in scalars]
        native = _kernels.modp_accumulate_rows(self.prime, elements, exponents, k)
        if native is not None:
            return native
        return [
            self.multi_scalar_accumulate(elements[start:start + k], exponents[start:start + k])
            for start in range(0, len(elements), k)
        ]

    def diffie_hellman(self, public: int, secret: int) -> int:
        return self.scalar_mult(public, secret)

    def encode(self, element: int) -> bytes:
        return int(element).to_bytes(self.element_size, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != self.element_size:
            raise DecodingError(f"element encoding must be {self.element_size} bytes")
        value = int.from_bytes(data, "big")
        if not 1 <= value < self.prime:
            raise DecodingError("element out of range")
        return value

    def decode_batch(self, encodings: Sequence[bytes]) -> List[Optional[int]]:
        """Mirrors :meth:`Ed25519Group.decode_batch` (no kernel: decoding is a range check)."""
        return _decode_each(self.decode, encodings)

    def is_in_prime_subgroup(self, element: int) -> bool:
        return pow(element, self.order, self.prime) == 1

    def hash_to_scalar(self, *parts: bytes) -> int:
        hasher = hashlib.sha512()
        for part in parts:
            hasher.update(len(part).to_bytes(8, "big"))
            hasher.update(part)
        return int.from_bytes(hasher.digest(), "big") % self.order

    def hash_to_scalars(self, prefix: Sequence[bytes],
                        rows: Iterable[Sequence[bytes]]) -> List[int]:
        """Mirrors :meth:`Ed25519Group.hash_to_scalars` (big-endian, as :meth:`hash_to_scalar`)."""
        return _hash_to_scalars(prefix, rows, "big", self.order)
