"""Loader for the optional ``_xrdkernels`` C extension.

:func:`load` never raises: it returns the cffi ``(ffi, lib)`` pair when a
usable extension is importable (building it lazily, once, when cffi and a
C compiler are available), or ``None`` when it is not.  All policy about
*whether* to use the native kernels lives in
:mod:`repro.crypto.kernels`; this module only answers "can we?".
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import re
import threading
from typing import Optional, Tuple

# ABI stamp expected from xrd_abi_version(); mirrors XRD_KERNELS_ABI in
# xrdkernels.c so a stale prebuilt .so is rebuilt instead of trusted.
EXPECTED_ABI = 7

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
    return ffi, lib


def load_error() -> Optional[BaseException]:
    """The exception from the most recent failed probe/build, if any."""
    return _state["error"]


def reset_probe_for_tests() -> None:
    """Forget the cached probe result (test hook only)."""
    with probe_lock:
        _state.update(probed=False, handle=None, error=None)
