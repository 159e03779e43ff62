"""cffi out-of-line builder for the ``_xrdkernels`` extension.

Run directly (``python -m repro.native._build``) or implicitly through
:mod:`repro.native`'s lazy first-use build.  The C source lives next to
this file in ``xrdkernels.c``; the compiled module is written into the
package directory so a plain source checkout self-hosts the extension
without a packaging step.
"""

from __future__ import annotations

import os

# The cdef below is the single source of truth for the Python-visible
# ABI; it must match the declarations in xrdkernels.c exactly.
CDEF = """
int xrd_abi_version(void);
int xrd_chacha20_blocks(const uint8_t *keys, const uint8_t *nonces,
                        const uint32_t *counters, size_t count, uint8_t *out);
int xrd_aead_seal_batch(const uint8_t *keys, const uint8_t *nonces, size_t count,
                        const uint8_t *plains, const uint64_t *pt_offsets,
                        const uint8_t *aad, size_t aad_len,
                        uint8_t *out, const uint64_t *out_offsets);
int xrd_aead_open_batch(const uint8_t *keys, const uint8_t *nonces, size_t count,
                        const uint8_t *datas, const uint64_t *ct_offsets,
                        const uint8_t *aad, size_t aad_len,
                        uint8_t *plain_out, const uint64_t *pt_offsets,
                        uint8_t *ok_out);
int xrd_hkdf_sha256_batch(const uint8_t *label, size_t label_len,
                          const uint8_t *context, size_t context_len,
                          const uint8_t *secrets, size_t stride, size_t count,
                          uint8_t *out);
int xrd_modp_scalar_mult_batch(const uint8_t *prime, const uint8_t *elements,
                               size_t count, const uint8_t *exponent,
                               uint8_t *out);
int xrd_modp_fixed_mult_batch(const uint8_t *prime, const uint8_t *element,
                              const uint8_t *exponents, size_t count,
                              uint8_t *out);
int xrd_modp_accumulate_rows(const uint8_t *prime, const uint8_t *elements,
                             const uint8_t *exponents, size_t k, size_t n,
                             uint8_t *out);
int xrd_ed25519_scalar_mult_batch(const uint8_t *points, size_t count,
                                  const uint8_t *scalar, uint8_t *out);
int xrd_ed25519_fixed_mult_batch(const uint8_t *point, const uint8_t *scalars,
                                 size_t count, uint8_t *out);
int xrd_ed25519_accumulate_rows(const uint8_t *points, const uint8_t *scalars,
                                size_t k, size_t n, uint8_t *out);
int xrd_ed25519_encode_batch(const uint8_t *points, size_t count, uint8_t *out);
int xrd_ed25519_decode_batch(const uint8_t *encodings, size_t count,
                             uint8_t *out, uint8_t *ok_out);
"""

_HERE = os.path.dirname(os.path.abspath(__file__))


def make_ffi():
    """Build the FFI object (requires cffi; import deferred on purpose)."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CDEF)
    with open(os.path.join(_HERE, "xrdkernels.c"), "r", encoding="utf-8") as fh:
        source = fh.read()
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
