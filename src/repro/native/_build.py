"""cffi out-of-line builder for the ``_xrdkernels`` extension.

Run directly (``python -m repro.native._build``) or implicitly through
:mod:`repro.native`'s lazy first-use build.  The C source lives next to
this file in ``xrdkernels.c``; the compiled module is written into the
package directory so a plain source checkout self-hosts the extension
without a packaging step.
"""

from __future__ import annotations

import os

#: The Python-visible ABI is declared once, in xrdkernels.c: the prototypes
#: between these two marker comments are handed to cffi as the cdef.
_CDEF_MARKERS = ("/* xrd-cdef-begin */", "/* xrd-cdef-end */")

_HERE = os.path.dirname(os.path.abspath(__file__))


def make_ffi():
    """Build the FFI object (requires cffi; import deferred on purpose)."""
    from cffi import FFI

    ffi = FFI()
    with open(os.path.join(_HERE, "xrdkernels.c"), "r", encoding="utf-8") as fh:
        source = fh.read()
    begin, end = (source.index(marker) for marker in _CDEF_MARKERS)
    ffi.cdef(source[begin + len(_CDEF_MARKERS[0]):end])
    ffi.set_source("repro.native._xrdkernels", source)
    return ffi


ffibuilder = None  # populated lazily; setup.py expects a module-level name


def _get_ffibuilder():
    global ffibuilder
    if ffibuilder is None:
        ffibuilder = make_ffi()
    return ffibuilder


def compile_extension(verbose: bool = False) -> str:
    """Compile in place; returns the path of the built module."""
    return _get_ffibuilder().compile(tmpdir=os.path.dirname(os.path.dirname(_HERE)),
                                     verbose=verbose)


if __name__ == "__main__":  # pragma: no cover - manual build entry point
    print(compile_extension(verbose=True))
