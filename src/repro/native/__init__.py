"""Loader for the optional ``_xrdkernels`` C extension.

:func:`load` never raises: it returns the cffi ``(ffi, lib)`` pair when a
usable extension is importable (building it lazily, once, when cffi and a
C compiler are available), or ``None`` when it is not.  All policy about
*whether* to use the native kernels lives in
:mod:`repro.crypto.kernels`; this module only answers "can we?".
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import re
import threading
from typing import Optional, Tuple

# ABI stamp expected from xrd_abi_version(); mirrors XRD_KERNELS_ABI in
# xrdkernels.c so a stale prebuilt .so is rebuilt instead of trusted.
EXPECTED_ABI = 8

_MODULE = "repro.native._xrdkernels"
# The string xrdkernels.c compiles in next to xrd_abi_version().
_ABI_STAMP = re.compile(rb"xrd-kernels-abi:(\d+)\0")

_state: dict = {"probed": False, "handle": None, "error": None}

#: Held for the whole probe, so a thread that calls :func:`load` while
#: another is still probing (the ABI read and the build release the GIL)
#: waits for the handle instead of reading a half-finished probe as "no
#: extension".  Re-entrant: :mod:`repro.crypto.kernels` resolves the tier
#: under it too, and that resolution calls :func:`load`.
probe_lock = threading.RLock()


def _import_extension():
    module = importlib.import_module(_MODULE)
    return module.ffi, module.lib


def _built_abi() -> Optional[int]:
    """The ABI of the built extension on disk, read without importing it.

    An extension module cannot be unloaded or reloaded, so a stale build
    has to be recognised *before* the import: once it is in the process,
    a rebuild only helps the next one.  ``None`` means no built module;
    0 means one from before the stamp existed (ABI 1).
    """
    try:
        spec = importlib.util.find_spec(_MODULE)
        if spec is None or not spec.origin:
            return None
        with open(spec.origin, "rb") as handle:
            stamp = _ABI_STAMP.search(handle.read())
    except (ImportError, OSError, ValueError):
        return None
    return int(stamp.group(1)) if stamp else 0


def _try_build() -> bool:
    """One in-place build attempt; quiet failure when the toolchain is absent."""
    try:
        from repro.native import _build

        _build.compile_extension()
        importlib.invalidate_caches()  # the finder may have cached the old listing
        return True
    except Exception as exc:  # cffi missing, no compiler, read-only tree...
        _state["error"] = exc
        return False


def load() -> Optional[Tuple[object, object]]:
    """Return ``(ffi, lib)`` for the native kernels, or ``None``.

    The result (including a negative one) is cached for the process; a
    failed probe is never retried so the import/build cost is paid at
    most once.
    """
    if _state["probed"]:
        return _state["handle"]
    with probe_lock:
        if not _state["probed"]:
            _state["handle"] = _probe()
            _state["probed"] = True
    return _state["handle"]


def _probe() -> Optional[Tuple[object, object]]:
    if os.environ.get("XRD_NATIVE_DISABLE"):  # escape hatch for tests
        _state["error"] = RuntimeError("disabled via XRD_NATIVE_DISABLE")
        return None
    # Missing, or stale from an older checkout: build before the import.
    if _built_abi() != EXPECTED_ABI and not _try_build():
        return None
    try:
        ffi, lib = _import_extension()
        abi = lib.xrd_abi_version()
    except Exception as exc:  # build said ok but import failed, or malformed
        _state["error"] = exc
        return None
    if abi != EXPECTED_ABI:
        _state["error"] = RuntimeError(
            f"_xrdkernels reports ABI {abi}, expected {EXPECTED_ABI}: "
            "xrdkernels.c and repro/native/__init__.py disagree"
        )
        return None
    handle = _known_answers(ffi, lib)
    if handle is None:
        _state["error"] = RuntimeError(
            "_xrdkernels failed its known-answer check: the lane kernels this CPU "
            "resolved to disagree with the reference"
        )
    return handle


#: sha256 of the known-answer run's keys and sealed messages, as the python
#: tier computes them (tests/test_native_kernels.py holds the pin to it).
KNOWN_ANSWER = "ed5e81d67972045830036eb01a58a873d1f5a2d5b81cb601d2d6a6124c28ba8b"


def known_answer_inputs(lanes: int):
    """The fixed vectors: ``lanes + 1`` secrets, plaintexts of ragged
    lengths (0 to 5 · lanes bytes), the nonce, the HKDF label and the AAD."""
    count = lanes + 1
    secrets = bytes((7 * index + 3) & 0xFF for index in range(32 * count))
    plains = [bytes([index]) * (5 * index) for index in range(count)]
    return secrets, plains, bytes(range(12)), b"xrd/known-answer", b"aad"


def _known_answers(ffi, lib) -> Optional[Tuple[object, object]]:
    """``(ffi, lib)`` if one HKDF batch and one AEAD seal and open of
    ``XRD_LANES + 1`` entries give :data:`KNOWN_ANSWER`, else ``None``.

    The dynamic loader picks the lane kernels' clone for this CPU, and no
    test may have run that clone, so the loader checks it once before
    trusting it.  Never raises: anything unexpected is a failed check.
    """
    try:
        secrets, plains, nonce, label, aad = known_answer_inputs(lib.XRD_LANES)
        count = len(plains)
        keys = ffi.new("uint8_t[]", 32 * count)
        pt_offsets = [sum(map(len, plains[:index])) for index in range(count + 1)]
        out_offsets = [offset + 16 * index for index, offset in enumerate(pt_offsets)]
        sealed = ffi.new("uint8_t[]", out_offsets[-1])
        plain = ffi.new("uint8_t[]", out_offsets[-1] + 4 * count)
        offsets, opened = ffi.new("uint64_t[]", count + 1), ffi.new("uint8_t[]", count)
        if (lib.xrd_hkdf_sha256_batch(label, len(label), b"", 0, secrets, 32, count, keys)
                or lib.xrd_aead_seal_batch(keys, nonce * count, count, b"".join(plains),
                                           pt_offsets, aad, len(aad), sealed, out_offsets)
                or lib.xrd_aead_open_spans(sealed, out_offsets[-1], count, out_offsets[:-1],
                                           out_offsets[1:], keys, count, list(range(count)),
                                           [1] * count, nonce, aad, len(aad), b"", 0, plain,
                                           len(plain), offsets, opened)):
            return None
        digest = hashlib.sha256(bytes(ffi.buffer(keys)) + bytes(ffi.buffer(sealed))).hexdigest()
        expected = b"".join(len(pt).to_bytes(4, "big") + pt for pt in plains)
        if (digest == KNOWN_ANSWER and bytes(ffi.buffer(opened)) == b"\x01" * count
                and bytes(ffi.buffer(plain, offsets[count])) == expected):
            return ffi, lib
    except Exception:  # a malformed module: as good as a wrong answer
        pass
    return None


def load_error() -> Optional[BaseException]:
    """The exception from the most recent failed probe/build, if any."""
    return _state["error"]


def reset_probe_for_tests() -> None:
    """Forget the cached probe result (test hook only)."""
    with probe_lock:
        _state.update(probed=False, handle=None, error=None)
