"""Crypto kernel tier selection and native-call wrappers (DESIGN.md §11).

Two tiers run the batched hot loops, bit-identically:

* ``python`` — the scalar reference implementations, the oracle;
* ``native`` — the ``_xrdkernels`` cffi extension for the proven hot
  kernels (ChaCha20, the AEAD cascade, batched HKDF, the modp ladders, and
  the edwards25519 ladders, comb, accumulation rows and point codec), falling back
  *per function* to the python tier for anything it does not cover (or
  cannot run, e.g. a >256-bit modulus).

The active tier is process-global state, resolved lazily on first query
from, in priority order: an explicit :func:`set_active_kernel` call, the
``XRD_CRYPTO_KERNEL`` environment variable, then ``auto`` (best
available).  Requesting ``native`` when the extension cannot be loaded
downgrades with a single :class:`RuntimeWarning` — never an error — so
the repo installs and passes tier-1 on a machine with no C compiler.

The wrappers in this module (:func:`chacha20_blocks`,
:func:`aead_seal_batch`, ...) return ``None`` when the native path is
unavailable or declines the input; callers treat ``None`` as "use the
reference path".  That convention keeps every fallback decision local to
one ``if`` at each call site and makes the differential fuzzers trivial
to aim at the raw kernels.
"""

from __future__ import annotations

import os
import warnings
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro import native, trace
from repro.constants import AEAD_NONCE_SIZE, KDF_LABEL_INNER, KDF_LABEL_OUTER
from repro.errors import ConfigurationError
from repro.registry import CryptoKernelKind

__all__ = [
    "active_kernel",
    "set_active_kernel",
    "resolve_kernel",
    "native_enabled",
    "native_available",
    "chacha20_blocks",
    "aead_seal_batch",
    "aead_open_batch",
    "hkdf_derive_batch",
    "modp_scalar_mult_batch",
    "modp_scalar_mult_keys",
    "modp_fixed_mult_batch",
    "modp_accumulate_rows",
    "modp_onion_build",
    "ed25519_scalar_mult_batch",
    "ed25519_scalar_mult_keys",
    "ed25519_fixed_mult_batch",
    "ed25519_accumulate_rows",
    "ed25519_onion_build",
    "ed25519_encode_batch",
    "ed25519_decode_batch",
]

#: Largest modulus the native Montgomery kernels accept (4×64-bit limbs,
#: matching the 32-byte ModPGroup element encoding).
_MODP_LIMIT_BITS = 256

_active: Optional[CryptoKernelKind] = None
_warned_downgrade = False


def _best_available() -> CryptoKernelKind:
    if _load_native() is not None:
        return CryptoKernelKind.NATIVE
    return CryptoKernelKind.PYTHON


def _load_native():
    return native.load()


def _downgrade_warning(requested: str, got: CryptoKernelKind) -> None:
    global _warned_downgrade
    if _warned_downgrade:
        return
    _warned_downgrade = True
    cause = native.load_error()
    detail = f" ({cause})" if cause is not None else ""
    warnings.warn(
        f"crypto kernel {requested!r} requested but the _xrdkernels extension "
        f"is unavailable{detail}; falling back to {got.value!r}",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel(requested: Union[str, CryptoKernelKind, None]) -> CryptoKernelKind:
    """Map a requested tier (or ``None``/``"auto"``) to a usable one.

    ``native`` degrades to ``python`` (with one warning) when the extension
    is unavailable; ``python`` is always usable.
    """
    if requested is None or requested == "auto":
        return _best_available()
    kind = CryptoKernelKind(requested)
    if kind is CryptoKernelKind.NATIVE and _load_native() is None:
        _downgrade_warning(str(requested), CryptoKernelKind.PYTHON)
        return CryptoKernelKind.PYTHON
    return kind


def active_kernel() -> CryptoKernelKind:
    """The tier currently steering the batched hot loops.

    The first call resolves it under the loader's probe lock, so threads
    that make their first kernel call together all see the same tier.
    """
    global _active
    kind = _active
    if kind is not None:
        return kind
    with native.probe_lock:
        if _active is None:
            env = os.environ.get("XRD_CRYPTO_KERNEL", "auto").strip().lower()
            if env not in ("auto", "") and env not in set(CryptoKernelKind):
                raise ConfigurationError(
                    f"XRD_CRYPTO_KERNEL must be one of "
                    f"{[k.value for k in CryptoKernelKind]} or 'auto', got {env!r}"
                )
            _active = resolve_kernel(env if env else "auto")
        return _active


def set_active_kernel(kind: Union[str, CryptoKernelKind, None]) -> CryptoKernelKind:
    """Select the kernel tier for this process; returns the resolved tier.

    ``None`` re-enables lazy resolution (environment / auto).  The tier is
    process-global: it applies to every deployment in the process.
    """
    global _active
    with native.probe_lock:
        _active = None if kind is None else resolve_kernel(kind)
        return active_kernel()


def native_enabled() -> bool:
    return active_kernel() is CryptoKernelKind.NATIVE


def native_available() -> bool:
    """Whether the extension itself is loadable (independent of the tier)."""
    return _load_native() is not None


def _handle():
    if not native_enabled():
        return None
    return _load_native()


def _dispatch(entry: str, count: int, pack: Callable[[], Sequence]) -> Optional[bool]:
    """The one call into the extension: pack, check, call, decline.

    ``pack`` builds kernel ``entry``'s arguments: a ``bytearray`` is an
    output buffer, a list an integer array.  ``None`` — run the reference
    path — when the native tier is off or unavailable, when an integer does
    not fit its C width, or when the kernel declines (a non-zero return);
    ``True`` once the kernel ran.  An empty batch (``count == 0``) calls
    nothing.  A call that ran counts in the active trace as
    ``dispatch.<entry>`` (DESIGN.md §13).
    """
    handle = _handle()
    if handle is None:
        return None
    if not count:
        return True
    ffi, lib = handle
    try:
        args = [
            ffi.from_buffer(arg, require_writable=True) if isinstance(arg, bytearray) else arg
            for arg in pack()
        ]
    except OverflowError:  # an integer outside its C width: the reference path takes it
        return None
    if getattr(lib, entry)(*args) != 0:
        return None
    trace.count(f"dispatch.{entry}")
    return True


# -- native-call wrappers: ``None`` is "run the reference path" -------------


def chacha20_blocks(keys: Sequence[bytes], nonces: Sequence[bytes],
                    counters: Sequence[int]) -> Optional[bytes]:
    """Concatenated 64-byte keystream blocks, or ``None``.

    Inputs must already be validated (32-byte keys, 12-byte nonces,
    uint32 counters) — this mirrors where the dispatch sits inside
    ``chacha20_blocks_batch``.
    """
    count = len(keys)
    out = bytearray(64 * count)
    if not _dispatch("xrd_chacha20_blocks", count, lambda: (
            b"".join(keys), b"".join(nonces), list(counters), count, out)):
        return None
    return bytes(out)


def _offsets(lengths: Sequence[int]) -> List[int]:
    return list(accumulate(lengths, initial=0))


#: AEAD keys for a batch: one contiguous blob of 32-byte keys (what the KDF
#: kernels return) or a sequence of them.
KeyBatch = Union[bytes, Sequence[bytes]]


def _key_blob(keys: KeyBatch) -> bytes:
    return keys if isinstance(keys, bytes) else b"".join(keys)


def aead_seal_batch(keys: KeyBatch, nonces: Sequence[bytes],
                    plaintexts: Sequence[bytes], aad: bytes) -> Optional[List[bytes]]:
    """Whole-batch ChaCha20-Poly1305 seal (ct || tag per message), or ``None``."""
    count = len(plaintexts)
    key_blob = _key_blob(keys)
    if len(key_blob) != 32 * count:
        return None
    out_offs = _offsets([len(pt) + 16 for pt in plaintexts])
    out = bytearray(out_offs[-1])
    if not _dispatch("xrd_aead_seal_batch", count, lambda: (
            key_blob, b"".join(nonces), count,
            b"".join(plaintexts), _offsets([len(pt) for pt in plaintexts]),
            aad, len(aad), out, out_offs)):
        return None
    return [bytes(out[out_offs[i]:out_offs[i + 1]]) for i in range(count)]


def aead_open_batch(keys: KeyBatch, nonces: Sequence[bytes],
                    datas: Sequence[bytes], aad: bytes,
                    ) -> Optional[List[Tuple[bool, Optional[bytes]]]]:
    """Whole-batch verify-then-decrypt cascade, or ``None``.

    Per message: ``(True, plaintext)`` on tag match, ``(False, None)``
    otherwise (including data shorter than one tag) — the exact contract
    of the reference ``adec``.
    """
    count = len(datas)
    key_blob = _key_blob(keys)
    if len(key_blob) != 32 * count:
        return None
    pt_offs = _offsets([max(0, len(d) - 16) for d in datas])
    plain = bytearray(pt_offs[-1])
    ok = bytearray(count)
    if not _dispatch("xrd_aead_open_batch", count, lambda: (
            key_blob, b"".join(nonces), count,
            b"".join(datas), _offsets([len(d) for d in datas]),
            aad, len(aad), plain, pt_offs, ok)):
        return None
    return [
        (True, bytes(plain[pt_offs[i]:pt_offs[i + 1]])) if ok[i] else (False, None)
        for i in range(count)
    ]


# -- HKDF-SHA256 --------------------------------------------------------------
#
# The step between the DH kernels and the AEAD kernels.  Keys come back as
# one blob of 32-byte keys, in input order — the layout ``aead_seal_batch``
# and ``aead_open_batch`` pass to C as is — so a DH → KDF → AEAD pipeline
# creates no per-element Python object between its three kernel calls.


def _hkdf(secrets: Union[bytes, bytearray], stride: int,
          label: bytes, context: bytes) -> Optional[bytes]:
    """Keys for the 32-byte secrets that start every ``stride`` bytes of ``secrets``."""
    count = len(secrets) // stride
    out = bytearray(32 * count)
    if not _dispatch("xrd_hkdf_sha256_batch", count, lambda: (
            label, len(label), context, len(context), secrets, stride, count, out)):
        return None
    return bytes(out)


def hkdf_derive_batch(secrets: bytes, label: bytes, context: bytes = b"",
                      length: int = 32) -> Optional[bytes]:
    """``derive_key(secret, label, context)`` for each 32-byte secret, or ``None``.

    ``secrets`` is one blob of 32-byte encoded group elements; the result
    is the blob of their keys.  The kernel has one shape, 32 bytes in and
    32 bytes out: any other ``length``, or a blob that is not whole
    secrets, is declined.
    """
    if length != 32 or len(secrets) % 32:
        return None
    return _hkdf(secrets, 32, label, context)


# -- modp ---------------------------------------------------------------------
#
# The many-bases kernel has two wrappers over one call: ``*_batch`` returns
# the elements as the integers the group works in, ``*_keys`` hands the
# kernel's output (already the 32-byte wire encodings) to the KDF kernel and
# returns the key blob (``derive_key(encoding, label)``, empty context: what
# ``kdf.shared_key_from_element`` derives).  Every integer crosses as 32
# big-endian bytes; one outside [0, 2^256) is left to ``pow()``.


def _modp_ready(prime: int) -> bool:
    return prime.bit_length() <= _MODP_LIMIT_BITS and prime % 2 == 1


def _modp_blob(values: Sequence[int]) -> bytes:
    return b"".join(value.to_bytes(32, "big") for value in values)


def _modp_ints(blob: bytearray) -> List[int]:
    return [int.from_bytes(blob[offset:offset + 32], "big") for offset in range(0, len(blob), 32)]


def _modp_scalar_mult(prime: int, elements: Sequence[int],
                      exponent: int) -> Optional[bytearray]:
    count = len(elements)
    out = bytearray(32 * count)
    if not _modp_ready(prime) or not _dispatch("xrd_modp_scalar_mult_batch", count, lambda: (
            prime.to_bytes(32, "big"), _modp_blob(elements), count,
            exponent.to_bytes(32, "big"), out)):
        return None
    return out


def modp_scalar_mult_batch(prime: int, elements: Sequence[int],
                           exponent: int) -> Optional[List[int]]:
    """``[pow(e, exponent, prime) for e in elements]`` natively, or ``None``.

    ``exponent`` must already be reduced into ``[0, 2^256)`` (callers
    reduce mod the group order first, as the reference path does).
    """
    out = _modp_scalar_mult(prime, elements, exponent)
    return None if out is None else _modp_ints(out)


def modp_scalar_mult_keys(prime: int, elements: Sequence[int], exponent: int,
                          label: bytes) -> Optional[bytes]:
    """The KDF keys of :func:`modp_scalar_mult_batch`'s elements as one blob, or ``None``."""
    out = _modp_scalar_mult(prime, elements, exponent)
    return None if out is None else _hkdf(out, 32, label, b"")


def modp_fixed_mult_batch(prime: int, element: int,
                          exponents: Sequence[int]) -> Optional[List[int]]:
    """``[pow(element, x, prime) for x in exponents]`` natively, or ``None``."""
    count = len(exponents)
    out = bytearray(32 * count)
    if not _modp_ready(prime) or not _dispatch("xrd_modp_fixed_mult_batch", count, lambda: (
            prime.to_bytes(32, "big"), element.to_bytes(32, "big"),
            _modp_blob(exponents), count, out)):
        return None
    return _modp_ints(out)


def modp_accumulate_rows(prime: int, elements: Sequence[int], exponents: Sequence[int],
                         k: int) -> Optional[List[int]]:
    """``n`` independent ``k``-term products of powers natively, or ``None``.

    Row ``i`` is ``prod(pow(elements[i*k + j], exponents[i*k + j], prime)
    for j in range(k))``, each row one Straus pass (one squaring chain for
    its ``k`` terms).  Both inputs must hold whole rows.
    """
    if k < 1 or len(elements) % k or len(exponents) != len(elements) or not _modp_ready(prime):
        return None
    n = len(elements) // k
    out = bytearray(32 * n)
    if not _dispatch("xrd_modp_accumulate_rows", n, lambda: (
            prime.to_bytes(32, "big"), _modp_blob(elements), _modp_blob(exponents), k, n, out)):
        return None
    return _modp_ints(out)


# -- edwards25519 -----------------------------------------------------------
#
# Points go in as anything with integer ``x, y, z, t`` attributes (extended
# coordinates, any z != 0) and come back as affine records
# ``(encoding, x, y, t)`` with z = 1 implied: the kernels normalise every
# result with one shared inversion, so the canonical 32-byte encoding is a
# by-product and the caller never pays for it again.  Scalars are used as
# the integers they are, in [0, 2^256) — callers reduce mod the group order
# first where the reference path does; a coordinate or scalar outside that
# range is declined.

#: An affine point with its encoding: ``(encoding, x, y, t)``.
Ed25519Record = Tuple[bytes, int, int, int]

_Y_MASK = (1 << 255) - 1


def _ed25519_pack(points: Sequence[object]) -> bytes:
    return b"".join(
        coordinate.to_bytes(32, "little")
        for point in points
        for coordinate in (point.x, point.y, point.z, point.t)  # type: ignore[attr-defined]
    )


def _ed25519_scalars(scalars: Sequence[int]) -> bytes:
    return b"".join(scalar.to_bytes(32, "little") for scalar in scalars)


def _ed25519_records(out: bytearray, count: int) -> List[Ed25519Record]:
    records = []
    for offset in range(0, 96 * count, 96):
        encoding = bytes(out[offset:offset + 32])
        records.append((
            encoding,
            int.from_bytes(out[offset + 32:offset + 64], "little"),
            int.from_bytes(encoding, "little") & _Y_MASK,
            int.from_bytes(out[offset + 64:offset + 96], "little"),
        ))
    return records


def _ed25519_scalar_mult(points: Sequence[object], scalar: int) -> Optional[bytearray]:
    count = len(points)
    out = bytearray(96 * count)
    if not _dispatch("xrd_ed25519_scalar_mult_batch", count, lambda: (
            _ed25519_pack(points), count, scalar.to_bytes(32, "little"), out)):
        return None
    return out


def ed25519_scalar_mult_batch(points: Sequence[object],
                              scalar: int) -> Optional[List[Ed25519Record]]:
    """``[scalar · P for P in points]`` natively, or ``None``.

    Constant time in ``scalar`` (a chain member's blinding or mixing
    secret): a fixed 64-window ladder with masked table selects.
    """
    out = _ed25519_scalar_mult(points, scalar)
    return None if out is None else _ed25519_records(out, len(points))


def ed25519_scalar_mult_keys(points: Sequence[object], scalar: int,
                             label: bytes) -> Optional[bytes]:
    """The KDF keys of :func:`ed25519_scalar_mult_batch`'s points as one blob, or ``None``.

    A record opens with its point's encoding, so the KDF kernel reads the
    records where they lie.
    """
    out = _ed25519_scalar_mult(points, scalar)
    return None if out is None else _hkdf(out, 96, label, b"")


def ed25519_fixed_mult_batch(point: object,
                             scalars: Sequence[int]) -> Optional[List[Ed25519Record]]:
    """``[s · point for s in scalars]`` natively, or ``None``.

    Constant time in the scalars (users' ephemeral secrets).  Each is 64
    additions over the point's comb; the kernel recognises the standard
    base point and keeps its comb for the process, and builds any other
    point's (about four ladders' worth) for the one call.
    """
    count = len(scalars)
    out = bytearray(96 * count)
    if not _dispatch("xrd_ed25519_fixed_mult_batch", count, lambda: (
            _ed25519_pack([point]), _ed25519_scalars(scalars), count, out)):
        return None
    return _ed25519_records(out, count)


def ed25519_accumulate_rows(points: Sequence[object], scalars: Sequence[int],
                            k: int) -> Optional[List[Ed25519Record]]:
    """``n`` independent ``k``-term sums ``Σ_j s_ij·P_ij`` natively, or ``None``.

    Row ``i`` takes entries ``i*k … i*k + k - 1`` of both inputs, which must
    hold whole rows.  Rows of one term are multiplications and run the
    constant-time ladder (a prover's nonces take this shape); rows of two
    or more are Straus accumulations in variable time — the verifier's
    side of the NIZKs, over public points and public scalars only.
    """
    if k < 1 or len(points) % k or len(scalars) != len(points):
        return None
    n = len(points) // k
    out = bytearray(96 * n)
    if not _dispatch("xrd_ed25519_accumulate_rows", n, lambda: (
            _ed25519_pack(points), _ed25519_scalars(scalars), k, n, out)):
        return None
    return _ed25519_records(out, n)


def ed25519_encode_batch(points: Sequence[object]) -> Optional[List[bytes]]:
    """The canonical 32-byte encodings, one inversion for the batch, or ``None``."""
    count = len(points)
    out = bytearray(32 * count)
    if not _dispatch("xrd_ed25519_encode_batch", count, lambda: (
            _ed25519_pack(points), count, out)):
        return None
    return [bytes(out[offset:offset + 32]) for offset in range(0, 32 * count, 32)]


def ed25519_decode_batch(encodings: Sequence[bytes],
                         ) -> Optional[List[Optional[Ed25519Record]]]:
    """Decode 32-byte encodings natively, or ``None``.

    Per encoding: its affine record, or ``None`` for exactly the encodings
    ``Ed25519Group.decode`` rejects (``decode`` re-runs the reference path
    on those, for its exception).
    """
    if any(len(encoding) != 32 for encoding in encodings):
        return None
    count = len(encodings)
    out = bytearray(96 * count)
    ok = bytearray(count)
    if not _dispatch("xrd_ed25519_decode_batch", count, lambda: (
            b"".join(encodings), count, out, ok)):
        return None
    return [
        record if accepted else None
        for record, accepted in zip(_ed25519_records(out, count), ok)
    ]


# -- fused onion build ----------------------------------------------------------
#
# One call per (chain, chunk): everything ``population/batch_build.py`` does
# between the users' stream draws and the Schnorr challenges (DESIGN.md §11.4).
# The columns are one 32-byte seal key, one 32-byte recipient, one body of
# the common length and three reduced scalars ``(y, x, k)`` per entry;
# anything else is declined before the C call.

#: The finished onions, then the encodings of every ``g^x`` and every ``g^k``.
OnionColumns = Tuple[List[bytes], List[bytes], List[bytes]]


def _onion_build(entry: str, head: Callable[[], List[bytes]], byteorder: str, layers: int,
                 round_number: int, seal_keys: Sequence[bytes], recipients: Sequence[bytes],
                 bodies: Sequence[bytes], scalars: Sequence[Sequence[int]],
                 ) -> Optional[OnionColumns]:
    """Run kernel ``entry`` (its group's arguments packed by ``head``) over one chain's columns."""
    count = len(bodies)
    body_len = len(bodies[0]) if count else 0
    if (any(len(column) != count for column in (seal_keys, recipients, *scalars))
            or any(len(item) != 32 for item in (*seal_keys, *recipients))
            or any(len(body) != body_len for body in bodies)):
        return None
    stride = body_len + 96 + 16 * layers
    out, publics = bytearray(stride * count), bytearray(96 * count)
    if not _dispatch(entry, count, lambda: (
            *head(), layers, round_number.to_bytes(AEAD_NONCE_SIZE, "big"),
            KDF_LABEL_INNER, len(KDF_LABEL_INNER), KDF_LABEL_OUTER, len(KDF_LABEL_OUTER),
            count, body_len, b"".join(seal_keys), b"".join(recipients), b"".join(bodies),
            b"".join(s.to_bytes(32, byteorder) for row in zip(*scalars) for s in row),
            out, publics)):
        return None
    onions, keys = memoryview(out), memoryview(publics)  # sliced with one copy each
    return (
        [bytes(onions[offset:offset + stride]) for offset in range(0, stride * count, stride)],
        [bytes(keys[offset + 32:offset + 64]) for offset in range(0, 96 * count, 96)],
        [bytes(keys[offset + 64:offset + 96]) for offset in range(0, 96 * count, 96)],
    )


def modp_onion_build(prime: int, generator: int, inner_public: int,
                     mixing_publics: Sequence[int], *columns) -> Optional[OnionColumns]:
    """One chain's onions, ``g^x`` and ``g^k`` in one native call, or ``None``.

    ``columns`` is ``round_number, seal_keys, recipients, bodies, (y, x, k)``.
    """
    if not _modp_ready(prime):
        return None
    return _onion_build(
        "xrd_modp_onion_build",
        lambda: [*(value.to_bytes(32, "big") for value in (prime, generator, inner_public)),
                 _modp_blob(mixing_publics)],
        "big", len(mixing_publics), *columns,
    )


def ed25519_onion_build(inner_public: object, mixing_publics: Sequence[object],
                        *columns) -> Optional[OnionColumns]:
    """:func:`modp_onion_build` on the curve: constant time in the scalars."""
    return _onion_build(
        "xrd_ed25519_onion_build",
        lambda: [_ed25519_pack([inner_public]), _ed25519_pack(mixing_publics)],
        "little", len(mixing_publics), *columns,
    )


def reset_kernel_for_tests() -> None:
    """Forget the resolved tier and downgrade warning (test hook only)."""
    global _active, _warned_downgrade
    with native.probe_lock:
        _active = None
        _warned_downgrade = False
