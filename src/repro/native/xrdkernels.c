/* Native crypto kernels for the batched hot loops (DESIGN.md §11).
 *
 * Seven kernel families, mirroring the pure-Python reference
 * implementations bit for bit:
 *
 *   - batched ChaCha20 keystream blocks (RFC 8439 §2.3);
 *   - ChaCha20-Poly1305 AEAD: seal over whole batches, and open over
 *     spans of a buffer the caller holds, each under the first of its
 *     candidate keys whose tag verifies (verify-before-decrypt: one
 *     counter-0 block per trial, payload keystream only for the match);
 *   - batched HKDF-SHA256 (RFC 5869; kdf.py's derive_key): the step from a
 *     32-byte encoded Diffie-Hellman element to its 32-byte AEAD key, one
 *     label and context for the whole batch;
 *   - Montgomery-form modular exponentiation over the small modp test
 *     group: many-bases-one-exponent (scalar_mult_batch),
 *     one-base-many-exponents (fixed_point_mult_batch), and rows of
 *     product-of-powers accumulations (accumulate_rows);
 *   - edwards25519 (the Ed25519Group of crypto/group.py): the same three
 *     shapes as 4-bit fixed-window ladders, a fixed-point comb and rows of
 *     Straus accumulations over 5x51-bit field limbs, plus the batched
 *     point codec;
 *   - the fused onion build (one per group): a whole chain's client
 *     submissions — bodies, inner envelope, outer layers, g^x and g^k —
 *     sealed in place in one fixed-stride buffer, composed of the bodies
 *     above.
 *
 * Every entry point operates on whole batches behind one C call, so the
 * cffi wrapper releases the GIL for the duration.  All multi-byte modp
 * values are 32-byte big-endian, exactly the ModPGroup wire encoding;
 * curve coordinates and scalars are 32-byte little-endian, exactly the
 * Ed25519Group one; ChaCha20 keys/nonces are the raw 32/12-byte strings.
 * Return codes: 0 on success, negative on malformed input (the Python
 * dispatcher falls back to the reference path on any nonzero return).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Bumped whenever a signature or semantic changes; the loader refuses a
 * stale prebuilt module and rebuilds it.  The stamp string lets the loader
 * read the ABI of a built module from its file, without importing it (an
 * imported extension cannot be replaced within the process). */
#define XRD_KERNELS_ABI 6
#define XRD_STR2(x) #x
#define XRD_STR(x) XRD_STR2(x)

__attribute__((used)) const char xrd_abi_stamp[] =
    "xrd-kernels-abi:" XRD_STR(XRD_KERNELS_ABI);

/* The Python-visible ABI, in its only copy: _build.py hands cffi the text
 * between the two marker comments as the cdef. */
/* xrd-cdef-begin */
int xrd_abi_version(void);
int xrd_chacha20_blocks(const uint8_t *keys, const uint8_t *nonces,
                        const uint32_t *counters, size_t count, uint8_t *out);
int xrd_aead_seal_batch(const uint8_t *keys, const uint8_t *nonces, size_t count,
                        const uint8_t *plains, const uint64_t *pt_offsets,
                        const uint8_t *aad, size_t aad_len,
                        uint8_t *out, const uint64_t *out_offsets);
int xrd_aead_open_spans(const uint8_t *buf, size_t buf_len, size_t count,
                        const uint64_t *starts, const uint64_t *ends,
                        const uint8_t *keys, size_t key_count,
                        const uint64_t *first_key, const uint64_t *key_counts,
                        const uint8_t *nonce, const uint8_t *aad, size_t aad_len,
                        const uint8_t *heads, size_t head_len,
                        uint8_t *out, size_t out_len, uint64_t *out_offsets,
                        uint8_t *opened);
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
int xrd_modp_onion_build(const uint8_t *prime, const uint8_t *generator,
                         const uint8_t *inner_public, const uint8_t *mixing_publics,
                         size_t layers, const uint8_t *nonce,
                         const uint8_t *inner_label, size_t inner_label_len,
                         const uint8_t *outer_label, size_t outer_label_len,
                         size_t count, size_t body_len,
                         const uint8_t *seal_keys, const uint8_t *recipients,
                         const uint8_t *bodies, const uint8_t *scalars,
                         uint8_t *out, uint8_t *publics);
int xrd_ed25519_onion_build(const uint8_t *inner_public, const uint8_t *mixing_publics,
                            size_t layers, const uint8_t *nonce,
                            const uint8_t *inner_label, size_t inner_label_len,
                            const uint8_t *outer_label, size_t outer_label_len,
                            size_t count, size_t body_len,
                            const uint8_t *seal_keys, const uint8_t *recipients,
                            const uint8_t *bodies, const uint8_t *scalars,
                            uint8_t *out, uint8_t *publics);
int xrd_ed25519_encode_batch(const uint8_t *points, size_t count, uint8_t *out);
int xrd_ed25519_decode_batch(const uint8_t *encodings, size_t count,
                             uint8_t *out, uint8_t *ok_out);
/* xrd-cdef-end */

int xrd_abi_version(void) { return XRD_KERNELS_ABI; }

static void *alloc_array(size_t count, size_t size) {
    return malloc((count ? count : 1) * size);
}

/* ------------------------------------------------------------------ */
/* ChaCha20 (RFC 8439)                                                */
/* ------------------------------------------------------------------ */

static uint32_t le32(const uint8_t *p) {
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static void st32(uint8_t *p, uint32_t v) {
    p[0] = (uint8_t)v;
    p[1] = (uint8_t)(v >> 8);
    p[2] = (uint8_t)(v >> 16);
    p[3] = (uint8_t)(v >> 24);
}

static void st32_be(uint8_t *p, uint32_t v) {
    p[0] = (uint8_t)(v >> 24);
    p[1] = (uint8_t)(v >> 16);
    p[2] = (uint8_t)(v >> 8);
    p[3] = (uint8_t)v;
}

#define ROTL32(v, n) (((v) << (n)) | ((v) >> (32 - (n))))
#define QR(a, b, c, d)                          \
    a += b; d ^= a; d = ROTL32(d, 16);          \
    c += d; b ^= c; b = ROTL32(b, 12);          \
    a += b; d ^= a; d = ROTL32(d, 8);           \
    c += d; b ^= c; b = ROTL32(b, 7);

static void chacha_block(const uint8_t key[32], uint32_t counter,
                         const uint8_t nonce[12], uint8_t out[64]) {
    uint32_t s[16], w[16];
    int i;
    s[0] = 0x61707865u; s[1] = 0x3320646Eu; s[2] = 0x79622D32u; s[3] = 0x6B206574u;
    for (i = 0; i < 8; i++) s[4 + i] = le32(key + 4 * i);
    s[12] = counter;
    for (i = 0; i < 3; i++) s[13 + i] = le32(nonce + 4 * i);
    memcpy(w, s, sizeof(s));
    for (i = 0; i < 10; i++) {
        QR(w[0], w[4], w[8],  w[12])
        QR(w[1], w[5], w[9],  w[13])
        QR(w[2], w[6], w[10], w[14])
        QR(w[3], w[7], w[11], w[15])
        QR(w[0], w[5], w[10], w[15])
        QR(w[1], w[6], w[11], w[12])
        QR(w[2], w[7], w[8],  w[13])
        QR(w[3], w[4], w[9],  w[14])
    }
    for (i = 0; i < 16; i++) st32(out + 4 * i, w[i] + s[i]);
}

/* XOR `len` bytes of message against the keystream starting at `counter`. */
static void chacha_xor(const uint8_t key[32], const uint8_t nonce[12],
                       uint32_t counter, const uint8_t *in, size_t len,
                       uint8_t *out) {
    uint8_t block[64];
    while (len) {
        size_t n = len < 64 ? len : 64, i;
        chacha_block(key, counter++, nonce, block);
        for (i = 0; i < n; i++) out[i] = in[i] ^ block[i];
        in += n; out += n; len -= n;
    }
}

int xrd_chacha20_blocks(const uint8_t *keys, const uint8_t *nonces,
                        const uint32_t *counters, size_t count, uint8_t *out) {
    size_t i;
    for (i = 0; i < count; i++)
        chacha_block(keys + 32 * i, counters[i], nonces + 12 * i, out + 64 * i);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Poly1305 (donna-32 style: 5x26-bit limbs, 64-bit accumulators)     */
/* ------------------------------------------------------------------ */

typedef struct {
    uint32_t r[5];
    uint32_t h[5];
    uint32_t pad[4];
    uint8_t buffer[16];
    size_t leftover;
} poly1305_ctx;

static void poly1305_init(poly1305_ctx *st, const uint8_t key[32]) {
    st->r[0] = (le32(key + 0)) & 0x3ffffff;
    st->r[1] = (le32(key + 3) >> 2) & 0x3ffff03;
    st->r[2] = (le32(key + 6) >> 4) & 0x3ffc0ff;
    st->r[3] = (le32(key + 9) >> 6) & 0x3f03fff;
    st->r[4] = (le32(key + 12) >> 8) & 0x00fffff;
    st->h[0] = st->h[1] = st->h[2] = st->h[3] = st->h[4] = 0;
    st->pad[0] = le32(key + 16);
    st->pad[1] = le32(key + 20);
    st->pad[2] = le32(key + 24);
    st->pad[3] = le32(key + 28);
    st->leftover = 0;
}

static void poly1305_blocks(poly1305_ctx *st, const uint8_t *m, size_t bytes,
                            uint32_t hibit) {
    uint32_t r0 = st->r[0], r1 = st->r[1], r2 = st->r[2], r3 = st->r[3], r4 = st->r[4];
    uint32_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
    uint32_t h0 = st->h[0], h1 = st->h[1], h2 = st->h[2], h3 = st->h[3], h4 = st->h[4];
    while (bytes >= 16) {
        uint64_t d0, d1, d2, d3, d4;
        uint32_t c;
        h0 += (le32(m + 0)) & 0x3ffffff;
        h1 += (le32(m + 3) >> 2) & 0x3ffffff;
        h2 += (le32(m + 6) >> 4) & 0x3ffffff;
        h3 += (le32(m + 9) >> 6) & 0x3ffffff;
        h4 += (le32(m + 12) >> 8) | hibit;
        d0 = (uint64_t)h0 * r0 + (uint64_t)h1 * s4 + (uint64_t)h2 * s3
           + (uint64_t)h3 * s2 + (uint64_t)h4 * s1;
        d1 = (uint64_t)h0 * r1 + (uint64_t)h1 * r0 + (uint64_t)h2 * s4
           + (uint64_t)h3 * s3 + (uint64_t)h4 * s2;
        d2 = (uint64_t)h0 * r2 + (uint64_t)h1 * r1 + (uint64_t)h2 * r0
           + (uint64_t)h3 * s4 + (uint64_t)h4 * s3;
        d3 = (uint64_t)h0 * r3 + (uint64_t)h1 * r2 + (uint64_t)h2 * r1
           + (uint64_t)h3 * r0 + (uint64_t)h4 * s4;
        d4 = (uint64_t)h0 * r4 + (uint64_t)h1 * r3 + (uint64_t)h2 * r2
           + (uint64_t)h3 * r1 + (uint64_t)h4 * r0;
        c = (uint32_t)(d0 >> 26); h0 = (uint32_t)d0 & 0x3ffffff;
        d1 += c; c = (uint32_t)(d1 >> 26); h1 = (uint32_t)d1 & 0x3ffffff;
        d2 += c; c = (uint32_t)(d2 >> 26); h2 = (uint32_t)d2 & 0x3ffffff;
        d3 += c; c = (uint32_t)(d3 >> 26); h3 = (uint32_t)d3 & 0x3ffffff;
        d4 += c; c = (uint32_t)(d4 >> 26); h4 = (uint32_t)d4 & 0x3ffffff;
        h0 += c * 5; c = h0 >> 26; h0 &= 0x3ffffff;
        h1 += c;
        m += 16; bytes -= 16;
    }
    st->h[0] = h0; st->h[1] = h1; st->h[2] = h2; st->h[3] = h3; st->h[4] = h4;
}

static void poly1305_update(poly1305_ctx *st, const uint8_t *m, size_t bytes) {
    if (st->leftover) {
        size_t want = 16 - st->leftover;
        if (want > bytes) want = bytes;
        memcpy(st->buffer + st->leftover, m, want);
        st->leftover += want;
        m += want; bytes -= want;
        if (st->leftover < 16) return;
        poly1305_blocks(st, st->buffer, 16, 1u << 24);
        st->leftover = 0;
    }
    if (bytes >= 16) {
        size_t whole = bytes & ~(size_t)15;
        poly1305_blocks(st, m, whole, 1u << 24);
        m += whole; bytes -= whole;
    }
    if (bytes) {
        memcpy(st->buffer, m, bytes);
        st->leftover = bytes;
    }
}

static void poly1305_finish(poly1305_ctx *st, uint8_t tag[16]) {
    uint32_t h0, h1, h2, h3, h4, c;
    uint32_t g0, g1, g2, g3, g4, mask;
    uint64_t f;
    if (st->leftover) {
        size_t i = st->leftover;
        st->buffer[i++] = 1;
        for (; i < 16; i++) st->buffer[i] = 0;
        poly1305_blocks(st, st->buffer, 16, 0);
        st->leftover = 0;
    }
    h0 = st->h[0]; h1 = st->h[1]; h2 = st->h[2]; h3 = st->h[3]; h4 = st->h[4];
    c = h1 >> 26; h1 &= 0x3ffffff; h2 += c;
    c = h2 >> 26; h2 &= 0x3ffffff; h3 += c;
    c = h3 >> 26; h3 &= 0x3ffffff; h4 += c;
    c = h4 >> 26; h4 &= 0x3ffffff; h0 += c * 5;
    c = h0 >> 26; h0 &= 0x3ffffff; h1 += c;
    g0 = h0 + 5; c = g0 >> 26; g0 &= 0x3ffffff;
    g1 = h1 + c; c = g1 >> 26; g1 &= 0x3ffffff;
    g2 = h2 + c; c = g2 >> 26; g2 &= 0x3ffffff;
    g3 = h3 + c; c = g3 >> 26; g3 &= 0x3ffffff;
    g4 = h4 + c - (1u << 26);
    mask = (g4 >> 31) - 1;
    g0 &= mask; g1 &= mask; g2 &= mask; g3 &= mask; g4 &= mask;
    mask = ~mask;
    h0 = (h0 & mask) | g0; h1 = (h1 & mask) | g1; h2 = (h2 & mask) | g2;
    h3 = (h3 & mask) | g3; h4 = (h4 & mask) | g4;
    h0 = (h0) | (h1 << 26);
    h1 = (h1 >> 6) | (h2 << 20);
    h2 = (h2 >> 12) | (h3 << 14);
    h3 = (h3 >> 18) | (h4 << 8);
    f = (uint64_t)h0 + st->pad[0]; h0 = (uint32_t)f;
    f = (uint64_t)h1 + st->pad[1] + (f >> 32); h1 = (uint32_t)f;
    f = (uint64_t)h2 + st->pad[2] + (f >> 32); h2 = (uint32_t)f;
    f = (uint64_t)h3 + st->pad[3] + (f >> 32); h3 = (uint32_t)f;
    st32(tag + 0, h0); st32(tag + 4, h1); st32(tag + 8, h2); st32(tag + 12, h3);
}

/* ------------------------------------------------------------------ */
/* ChaCha20-Poly1305 AEAD batches (encrypt-then-MAC, RFC 8439 §2.8)   */
/* ------------------------------------------------------------------ */

/* tag = Poly1305(pad16(aad) || pad16(ct) || le64(|aad|) || le64(|ct|))
 * under the one-time key from the message's counter-0 block. */
static void aead_tag(const uint8_t otk[32], const uint8_t *aad, size_t aad_len,
                     const uint8_t *ct, size_t ct_len, uint8_t tag[16]) {
    static const uint8_t zeros[16] = {0};
    uint8_t lengths[16];
    poly1305_ctx st;
    poly1305_init(&st, otk);
    poly1305_update(&st, aad, aad_len);
    if (aad_len % 16) poly1305_update(&st, zeros, 16 - aad_len % 16);
    poly1305_update(&st, ct, ct_len);
    if (ct_len % 16) poly1305_update(&st, zeros, 16 - ct_len % 16);
    st32(lengths + 0, (uint32_t)aad_len);
    st32(lengths + 4, (uint32_t)((uint64_t)aad_len >> 32));
    st32(lengths + 8, (uint32_t)ct_len);
    st32(lengths + 12, (uint32_t)((uint64_t)ct_len >> 32));
    poly1305_update(&st, lengths, 16);
    poly1305_finish(&st, tag);
}

/* dst[0 .. len + 16) = ciphertext || tag of the len bytes at src; src may
 * be dst itself (the onion build seals its layers in place). */
static void aead_seal(const uint8_t key[32], const uint8_t nonce[12],
                      const uint8_t *aad, size_t aad_len,
                      const uint8_t *src, size_t len, uint8_t *dst) {
    uint8_t otk_block[64];
    chacha_xor(key, nonce, 1, src, len, dst);
    chacha_block(key, 0, nonce, otk_block);
    aead_tag(otk_block, aad, aad_len, dst, len, dst + len);
}

/* 1 iff the two tags are equal, in time independent of where they differ. */
static int tag_equal(const uint8_t a[16], const uint8_t b[16]) {
    uint32_t diff = 0;
    int i;
    for (i = 0; i < 16; i++) diff |= (uint32_t)(a[i] ^ b[i]);
    return (int)((diff - 1) >> 31);
}

int xrd_aead_seal_batch(const uint8_t *keys, const uint8_t *nonces, size_t count,
                        const uint8_t *plains, const uint64_t *pt_offsets,
                        const uint8_t *aad, size_t aad_len,
                        uint8_t *out, const uint64_t *out_offsets) {
    size_t i;
    for (i = 0; i < count; i++) {
        size_t pt_len = (size_t)(pt_offsets[i + 1] - pt_offsets[i]);
        if (out_offsets[i + 1] - out_offsets[i] != pt_len + 16) return -1;
        aead_seal(keys + 32 * i, nonces + 12 * i, aad, aad_len,
                  plains + pt_offsets[i], pt_len, out + out_offsets[i]);
    }
    return 0;
}

/* Open spans of `buf` in place.  Span i is buf[starts[i], ends[i]) and its
 * candidates are the 32-byte keys first_key[i] .. first_key[i] + key_counts[i]
 * of `keys`, tried in order; opened[i] = 1 + the candidate whose tag
 * verified, 0 when none did (a span shorter than a tag never does).  Output
 * slot i, at out_offsets[i] (out_offsets[count] is the end), is empty when
 * span i did not open, else its head (head_len bytes of `heads`) ||
 * be32(plaintext length) || plaintext.  Every index is checked against its
 * buffer before anything is read: any bad one declines. */
int xrd_aead_open_spans(const uint8_t *buf, size_t buf_len, size_t count,
                        const uint64_t *starts, const uint64_t *ends,
                        const uint8_t *keys, size_t key_count,
                        const uint64_t *first_key, const uint64_t *key_counts,
                        const uint8_t *nonce, const uint8_t *aad, size_t aad_len,
                        const uint8_t *heads, size_t head_len,
                        uint8_t *out, size_t out_len, uint64_t *out_offsets,
                        uint8_t *opened) {
    size_t i, c, need = 0, at = 0;
    uint8_t otk_block[64], tag[16];
    for (i = 0; i < count; i++) {
        if (starts[i] > ends[i] || ends[i] > buf_len || key_counts[i] > 255
            || first_key[i] > key_count || key_counts[i] > key_count - first_key[i])
            return -1;
        need += head_len + 4 + (size_t)(ends[i] - starts[i]);
        if (need > out_len) return -1;
    }
    memset(opened, 0, count);
    for (i = 0; i < count; i++) {
        const uint8_t *data = buf + starts[i];
        size_t data_len = (size_t)(ends[i] - starts[i]);
        out_offsets[i] = at;
        for (c = 0; c < key_counts[i] && data_len >= 16; c++) {
            const uint8_t *key = keys + 32 * (first_key[i] + c);
            chacha_block(key, 0, nonce, otk_block);
            aead_tag(otk_block, aad, aad_len, data, data_len - 16, tag);
            if (!tag_equal(tag, data + data_len - 16)) continue;
            if (head_len) memcpy(out + at, heads + head_len * i, head_len);
            st32_be(out + at + head_len, (uint32_t)(data_len - 16));
            chacha_xor(key, nonce, 1, data, data_len - 16, out + at + head_len + 4);
            at += head_len + 4 + data_len - 16;
            opened[i] = (uint8_t)(c + 1);
            break;
        }
    }
    out_offsets[count] = at;
    return 0;
}

/* ------------------------------------------------------------------ */
/* HKDF-SHA256 batches (RFC 5869): encoded DH element -> AEAD key      */
/* ------------------------------------------------------------------ */

/* Nothing here branches on, or indexes by, a byte of the secrets or of
 * anything derived from them; the only data-dependent control flow is on
 * lengths, which are public. */

static uint32_t be32(const uint8_t *p) {
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8)
         | (uint32_t)p[3];
}

static const uint32_t SHA256_K[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

#define ROTR32(v, n) (((v) >> (n)) | ((v) << (32 - (n))))

static void sha256_compress(uint32_t state[8], const uint8_t block[64]) {
    uint32_t w[64];
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    int i;
    for (i = 0; i < 16; i++) w[i] = be32(block + 4 * i);
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROTR32(w[i - 15], 7) ^ ROTR32(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROTR32(w[i - 2], 17) ^ ROTR32(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    for (i = 0; i < 64; i++) {
        uint32_t t1 = h + (ROTR32(e, 6) ^ ROTR32(e, 11) ^ ROTR32(e, 25))
                    + ((e & f) ^ (~e & g)) + SHA256_K[i] + w[i];
        uint32_t t2 = (ROTR32(a, 2) ^ ROTR32(a, 13) ^ ROTR32(a, 22))
                    + ((a & b) ^ (a & c) ^ (b & c));
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

typedef struct {
    uint32_t state[8];
    uint64_t length;     /* bytes absorbed so far */
    uint8_t buffer[64];  /* the length % 64 bytes not yet compressed */
} sha256_ctx;

static void sha256_init(sha256_ctx *ctx) {
    static const uint32_t initial[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    memcpy(ctx->state, initial, sizeof(initial));
    ctx->length = 0;
}

static void sha256_update(sha256_ctx *ctx, const uint8_t *data, size_t len) {
    size_t held = (size_t)(ctx->length % 64);
    if (!len) return;
    ctx->length += len;
    if (held) {
        size_t want = 64 - held;
        if (want > len) want = len;
        memcpy(ctx->buffer + held, data, want);
        data += want; len -= want;
        if (held + want < 64) return;
        sha256_compress(ctx->state, ctx->buffer);
    }
    for (; len >= 64; data += 64, len -= 64) sha256_compress(ctx->state, data);
    if (len) memcpy(ctx->buffer, data, len);
}

static void sha256_final(sha256_ctx *ctx, uint8_t out[32]) {
    size_t held = (size_t)(ctx->length % 64);
    uint64_t bits = ctx->length * 8;
    int i;
    ctx->buffer[held++] = 0x80;
    if (held > 56) {
        memset(ctx->buffer + held, 0, 64 - held);
        sha256_compress(ctx->state, ctx->buffer);
        held = 0;
    }
    memset(ctx->buffer + held, 0, 56 - held);
    st32_be(ctx->buffer + 56, (uint32_t)(bits >> 32));
    st32_be(ctx->buffer + 60, (uint32_t)bits);
    sha256_compress(ctx->state, ctx->buffer);
    for (i = 0; i < 8; i++) st32_be(out + 4 * i, ctx->state[i]);
}

/* An HMAC key as the two hash states that have absorbed key ^ ipad and
 * key ^ opad: every MAC under the key starts from a copy of them. */
typedef struct { sha256_ctx inner, outer; } hmac_key;

static void hmac_set_key(hmac_key *mac, const uint8_t *key, size_t key_len) {
    uint8_t block[64] = {0};
    int i;
    if (key_len > 64) {  /* a key longer than a block is hashed first */
        sha256_init(&mac->inner);
        sha256_update(&mac->inner, key, key_len);
        sha256_final(&mac->inner, block);
    } else if (key_len) {
        memcpy(block, key, key_len);
    }
    for (i = 0; i < 64; i++) block[i] ^= 0x36;
    sha256_init(&mac->inner);
    sha256_update(&mac->inner, block, 64);
    for (i = 0; i < 64; i++) block[i] ^= 0x36 ^ 0x5c;
    sha256_init(&mac->outer);
    sha256_update(&mac->outer, block, 64);
}

/* out = HMAC(key, m) for the message m that `inner` (a copy of the key's
 * inner state) has absorbed. */
static void hmac_finish(const hmac_key *mac, sha256_ctx *inner, uint8_t out[32]) {
    sha256_ctx outer = mac->outer;
    sha256_final(inner, out);
    sha256_update(&outer, out, 32);
    sha256_final(&outer, out);
}

/* out = HKDF(salt, IKM = the 32 bytes at secret, info = context, L = 32):
 * extract, then the one block of expand, T(1) = HMAC(PRK, context || 0x01).
 * The salt comes as its two key states, computed once for a batch; each
 * element then costs six compressions while context || 0x01 fits one
 * block. */
static void hkdf_derive(const hmac_key *salt, const uint8_t secret[32],
                        const uint8_t *context, size_t context_len,
                        uint8_t out[32]) {
    static const uint8_t block_index = 1;
    hmac_key prk_key;
    sha256_ctx inner = salt->inner;
    uint8_t prk[32];
    sha256_update(&inner, secret, 32);
    hmac_finish(salt, &inner, prk);
    hmac_set_key(&prk_key, prk, 32);
    inner = prk_key.inner;
    sha256_update(&inner, context, context_len);
    sha256_update(&inner, &block_index, 1);
    hmac_finish(&prk_key, &inner, out);
}

/* out[32 i ..] = hkdf_derive of the secret at secrets + stride i under
 * salt = label.  An empty label is RFC 5869's default salt (a zero key
 * either way).  `stride` is 32 for packed encodings and 96 for the curve
 * kernels' records, whose first 32 bytes are the encoding. */
int xrd_hkdf_sha256_batch(const uint8_t *label, size_t label_len,
                          const uint8_t *context, size_t context_len,
                          const uint8_t *secrets, size_t stride, size_t count,
                          uint8_t *out) {
    hmac_key salt;
    size_t i;
    if (stride < 32) return -1;
    hmac_set_key(&salt, label, label_len);
    for (i = 0; i < count; i++)
        hkdf_derive(&salt, secrets + stride * i, context, context_len, out + 32 * i);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Montgomery-form modular exponentiation (modp group, p < 2^256)     */
/* ------------------------------------------------------------------ */

#define MAXL 4  /* 4 x 64-bit limbs cover the 32-byte element encoding */

typedef struct {
    uint64_t p[MAXL];
    uint64_t one[MAXL];  /* R mod p (the Montgomery representation of 1) */
    uint64_t rr[MAXL];   /* R^2 mod p (converts into Montgomery form)    */
    uint64_t n0;         /* -p^-1 mod 2^64                               */
    int n;               /* active limb count                            */
} mont_ctx;

/* 32-byte big-endian -> little-endian limbs. */
static void be_load(const uint8_t in[32], uint64_t out[MAXL]) {
    int i, j;
    for (i = 0; i < MAXL; i++) {
        uint64_t v = 0;
        for (j = 0; j < 8; j++) v = (v << 8) | in[(MAXL - 1 - i) * 8 + j];
        out[i] = v;
    }
}

static void be_store(const uint64_t in[MAXL], uint8_t out[32]) {
    int i, j;
    for (i = 0; i < MAXL; i++) {
        uint64_t v = in[i];
        for (j = 7; j >= 0; j--) {
            out[(MAXL - 1 - i) * 8 + j] = (uint8_t)v;
            v >>= 8;
        }
    }
}

static int limb_geq(const uint64_t *a, const uint64_t *b, int n) {
    int i;
    for (i = n - 1; i >= 0; i--) {
        if (a[i] > b[i]) return 1;
        if (a[i] < b[i]) return 0;
    }
    return 1;
}

static void limb_sub(uint64_t *a, const uint64_t *b, int n) {
    uint64_t borrow = 0;
    int i;
    for (i = 0; i < n; i++) {
        unsigned __int128 d = (unsigned __int128)a[i] - b[i] - borrow;
        a[i] = (uint64_t)d;
        borrow = (uint64_t)(d >> 64) & 1;
    }
}

/* Newton iteration for -p^-1 mod 2^64 (p odd). */
static uint64_t inv64(uint64_t p0) {
    uint64_t x = p0;
    int i;
    for (i = 0; i < 5; i++) x *= 2 - p0 * x;
    return (uint64_t)0 - x;
}

/* CIOS Montgomery multiplication: out = a * b * R^-1 mod p. */
static void mont_mul(uint64_t *out, const uint64_t *a, const uint64_t *b,
                     const mont_ctx *m) {
    uint64_t t[MAXL + 2] = {0};
    const uint64_t *p = m->p;
    int n = m->n, i, j;
    for (i = 0; i < n; i++) {
        unsigned __int128 c = 0;
        uint64_t mi;
        for (j = 0; j < n; j++) {
            c = (unsigned __int128)a[i] * b[j] + t[j] + (uint64_t)c;
            t[j] = (uint64_t)c;
            c >>= 64;
        }
        c = (unsigned __int128)t[n] + (uint64_t)c;
        t[n] = (uint64_t)c;
        t[n + 1] = (uint64_t)(c >> 64);
        mi = t[0] * m->n0;
        c = (unsigned __int128)mi * p[0] + t[0];
        c >>= 64;
        for (j = 1; j < n; j++) {
            c = (unsigned __int128)mi * p[j] + t[j] + (uint64_t)c;
            t[j - 1] = (uint64_t)c;
            c >>= 64;
        }
        c = (unsigned __int128)t[n] + (uint64_t)c;
        t[n - 1] = (uint64_t)c;
        t[n] = t[n + 1] + (uint64_t)(c >> 64);
    }
    if (t[n] || limb_geq(t, p, n)) limb_sub(t, p, n);
    for (i = 0; i < n; i++) out[i] = t[i];
    for (; i < MAXL; i++) out[i] = 0;
}

/* value = 2 * value mod p, for value < p. */
static void mod_double(uint64_t *v, const uint64_t *p, int n) {
    uint64_t carry = 0;
    int i;
    for (i = 0; i < n; i++) {
        uint64_t next = (v[i] << 1) | carry;
        carry = v[i] >> 63;
        v[i] = next;
    }
    if (carry || limb_geq(v, p, n)) limb_sub(v, p, n);
}

static int mont_init(mont_ctx *m, const uint8_t prime[32]) {
    uint64_t p[MAXL];
    int n = MAXL, i;
    be_load(prime, p);
    while (n > 1 && p[n - 1] == 0) n--;
    if ((p[0] & 1) == 0) return -1;           /* modulus must be odd */
    if (n == 1 && p[0] <= 2) return -1;
    m->n = n;
    memcpy(m->p, p, sizeof(p));
    m->n0 = inv64(p[0]);
    /* one = R mod p by 64n modular doublings of 1; rr = R^2 mod p by
     * 64n more (R * 2^(64n) = R^2). */
    memset(m->one, 0, sizeof(m->one));
    m->one[0] = 1;
    for (i = 0; i < 64 * n; i++) mod_double(m->one, p, n);
    memcpy(m->rr, m->one, sizeof(m->rr));
    for (i = 0; i < 64 * n; i++) mod_double(m->rr, p, n);
    return 0;
}

/* Build the 4-bit window table [1, b, b^2, ..., b^15] in Montgomery form. */
static void mont_pow_table(const mont_ctx *m, const uint64_t *base_m,
                           uint64_t table[16][MAXL]) {
    int i;
    memcpy(table[0], m->one, sizeof(table[0]));
    memcpy(table[1], base_m, sizeof(table[1]));
    for (i = 2; i < 16; i++) mont_mul(table[i], table[i - 1], base_m, m);
}

/* acc (Montgomery form) = base^exp via a left-to-right 4-bit window over
 * the 32-byte big-endian exponent, using a prebuilt table. */
static void mont_pow_with_table(const mont_ctx *m, uint64_t table[16][MAXL],
                                const uint8_t exp[32], uint64_t *acc) {
    int started = 0, i, half;
    memcpy(acc, m->one, MAXL * sizeof(uint64_t));
    for (i = 0; i < 32; i++) {
        for (half = 0; half < 2; half++) {
            int d = half ? (exp[i] & 0xF) : (exp[i] >> 4);
            if (!started) {
                if (!d) continue;
                memcpy(acc, table[d], MAXL * sizeof(uint64_t));
                started = 1;
                continue;
            }
            mont_mul(acc, acc, acc, m);
            mont_mul(acc, acc, acc, m);
            mont_mul(acc, acc, acc, m);
            mont_mul(acc, acc, acc, m);
            if (d) mont_mul(acc, acc, table[d], m);
        }
    }
}

/* Load one 32-byte big-endian element, requiring element < p. */
static int load_element(const mont_ctx *m, const uint8_t *enc, uint64_t *out_m) {
    uint64_t v[MAXL];
    int i;
    be_load(enc, v);
    for (i = m->n; i < MAXL; i++)
        if (v[i]) return -1;
    if (limb_geq(v, m->p, m->n)) return -1;
    mont_mul(out_m, v, m->rr, m);  /* into Montgomery form */
    return 0;
}

static void store_element(const mont_ctx *m, const uint64_t *val_m, uint8_t *out) {
    uint64_t one[MAXL] = {1, 0, 0, 0}, v[MAXL];
    mont_mul(v, val_m, one, m);  /* out of Montgomery form */
    be_store(v, out);
}

int xrd_modp_scalar_mult_batch(const uint8_t *prime, const uint8_t *elements,
                               size_t count, const uint8_t *exponent,
                               uint8_t *out) {
    mont_ctx m;
    uint64_t table[16][MAXL], base_m[MAXL], acc[MAXL];
    size_t i;
    if (mont_init(&m, prime) != 0) return -1;
    for (i = 0; i < count; i++) {
        if (load_element(&m, elements + 32 * i, base_m) != 0) return -2;
        mont_pow_table(&m, base_m, table);
        mont_pow_with_table(&m, table, exponent, acc);
        store_element(&m, acc, out + 32 * i);
    }
    return 0;
}

/* One base, many exponents, one window table: out[out_stride i ..] =
 * element ^ (the exponent at exponents + exp_stride i).  `group` is the
 * mont_ctx (the onion build's column signature, shared with the curve). */
static int modp_fixed_mult(const void *group, const uint8_t *element,
                           const uint8_t *exponents, size_t exp_stride,
                           size_t count, uint8_t *out, size_t out_stride) {
    const mont_ctx *m = group;
    uint64_t table[16][MAXL], base_m[MAXL], acc[MAXL];
    size_t i;
    if (load_element(m, element, base_m) != 0) return -2;
    mont_pow_table(m, base_m, table);
    for (i = 0; i < count; i++) {
        mont_pow_with_table(m, table, exponents + exp_stride * i, acc);
        store_element(m, acc, out + out_stride * i);
    }
    return 0;
}

int xrd_modp_fixed_mult_batch(const uint8_t *prime, const uint8_t *element,
                              const uint8_t *exponents, size_t count,
                              uint8_t *out) {
    mont_ctx m;
    if (mont_init(&m, prime) != 0) return -1;
    return modp_fixed_mult(&m, element, exponents, 32, count, out, 32);
}

/* acc (Montgomery form) = product of table[j]'s base ^ exponents[j] over
 * `count` terms: Straus's trick, one squaring chain shared by every term's
 * 4-bit windows (32-byte big-endian exponents, leading zero windows
 * skipped). */
static void mont_straus(const mont_ctx *m, uint64_t (*tables)[16][MAXL],
                        const uint8_t *exponents, size_t count, uint64_t *acc) {
    int started = 0, i, half;
    size_t j;
    memcpy(acc, m->one, MAXL * sizeof(uint64_t));
    for (i = 0; i < 32; i++) {
        for (half = 0; half < 2; half++) {
            if (started) {
                mont_mul(acc, acc, acc, m);
                mont_mul(acc, acc, acc, m);
                mont_mul(acc, acc, acc, m);
                mont_mul(acc, acc, acc, m);
            }
            for (j = 0; j < count; j++) {
                int d = half ? (exponents[32 * j + i] & 0xF) : (exponents[32 * j + i] >> 4);
                if (d) {
                    mont_mul(acc, acc, tables[j][d], m);
                    started = 1;
                }
            }
        }
    }
}

/* n independent k-term accumulations: out[i] = product over j < k of
 * elements[i k + j] ^ exponents[i k + j].  k = 1 is many bases, many
 * exponents; k = 2 is one Schnorr or Chaum-Pedersen verification equation
 * per row; n = 1 is the fused product of a whole batch.  The caller has
 * checked that both inputs hold k n entries. */
int xrd_modp_accumulate_rows(const uint8_t *prime, const uint8_t *elements,
                             const uint8_t *exponents, size_t k, size_t n,
                             uint8_t *out) {
    mont_ctx m;
    uint64_t (*tables)[16][MAXL], base_m[MAXL], acc[MAXL];
    size_t row, j;
    if (mont_init(&m, prime) != 0) return -1;
    tables = alloc_array(k, sizeof(*tables));
    if (!tables) return -3;
    for (row = 0; row < n; row++) {
        for (j = 0; j < k; j++) {
            if (load_element(&m, elements + 32 * (row * k + j), base_m) != 0) {
                free(tables);
                return -2;
            }
            mont_pow_table(&m, base_m, tables[j]);
        }
        mont_straus(&m, tables, exponents + 32 * row * k, k, acc);
        store_element(&m, acc, out + 32 * row);
    }
    free(tables);
    return 0;
}

/* ------------------------------------------------------------------ */
/* edwards25519: field arithmetic mod 2^255 - 19 on 5 x 51-bit limbs  */
/* ------------------------------------------------------------------ */

/* Limb bounds.  fe_mul, fe_sq and fe_sub take limbs below 2^54 (the
 * multiplications have room to 2^59) and return limbs below 2^52; fe_add
 * does not carry.  Every formula below adds at most three such results
 * before the next multiplication or subtraction, so nothing passes 2^54.
 * No operation branches on, or indexes by, a limb's value. */

typedef unsigned __int128 u128;
typedef uint64_t fe[5];

#define MASK51 ((((uint64_t)1) << 51) - 1)

static const fe FE_D = {
    0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
    0x739c663a03cbbULL, 0x52036cee2b6ffULL};
static const fe FE_D2 = {
    0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
    0x6738cc7407977ULL, 0x2406d9dc56dffULL};
static const fe FE_SQRTM1 = {
    0x61b274a0ea0b0ULL, 0x0d5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
    0x78595a6804c9eULL, 0x2b8324804fc1dULL};

static void fe_copy(fe out, const fe a) { memcpy(out, a, sizeof(fe)); }

static void fe_set(fe out, uint64_t value) {
    memset(out, 0, sizeof(fe));
    out[0] = value;
}

static void fe_add(fe out, const fe a, const fe b) {
    int i;
    for (i = 0; i < 5; i++) out[i] = a[i] + b[i];
}

/* out = a - b, carried: 16p is added first so no limb goes negative. */
static void fe_sub(fe out, const fe a, const fe b) {
    uint64_t t0 = a[0] + 16 * (MASK51 - 18) - b[0];
    uint64_t t1 = a[1] + 16 * MASK51 - b[1];
    uint64_t t2 = a[2] + 16 * MASK51 - b[2];
    uint64_t t3 = a[3] + 16 * MASK51 - b[3];
    uint64_t t4 = a[4] + 16 * MASK51 - b[4];
    t1 += t0 >> 51;
    t2 += t1 >> 51;
    t3 += t2 >> 51;
    t4 += t3 >> 51;
    out[0] = (t0 & MASK51) + 19 * (t4 >> 51);
    out[1] = t1 & MASK51;
    out[2] = t2 & MASK51;
    out[3] = t3 & MASK51;
    out[4] = t4 & MASK51;
}

/* Carry five 128-bit column sums into limbs below 2^52. */
static void fe_carry_wide(fe out, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
    t1 += t0 >> 51;
    t2 += t1 >> 51;
    t3 += t2 >> 51;
    t4 += t3 >> 51;
    t0 = ((uint64_t)t0 & MASK51) + (t4 >> 51) * 19;
    out[0] = (uint64_t)t0 & MASK51;
    out[1] = ((uint64_t)t1 & MASK51) + (uint64_t)(t0 >> 51);
    out[2] = (uint64_t)t2 & MASK51;
    out[3] = (uint64_t)t3 & MASK51;
    out[4] = (uint64_t)t4 & MASK51;
}

static void fe_mul(fe out, const fe a, const fe b) {
    uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
    uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;
    fe_carry_wide(out,
        (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 + (u128)a4 * b1_19,
        (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 + (u128)a4 * b2_19,
        (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 + (u128)a4 * b3_19,
        (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19,
        (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0);
}

static void fe_sq(fe out, const fe a) {
    uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1, a2_2 = 2 * a2, a3_2 = 2 * a3;
    uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
    fe_carry_wide(out,
        (u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19,
        (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19,
        (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3_2 * a4_19,
        (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19,
        (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2);
}

static void fe_sq_times(fe out, const fe a, int count) {
    fe_sq(out, a);
    while (--count) fe_sq(out, out);
}

static uint64_t load64_le(const uint8_t *p) {
    return (uint64_t)le32(p) | ((uint64_t)le32(p + 4) << 32);
}

static void store64_le(uint8_t *p, uint64_t v) {
    st32(p, (uint32_t)v);
    st32(p + 4, (uint32_t)(v >> 32));
}

/* Any 256-bit little-endian integer, as is: values at or above p are valid
 * (unreduced) limbs, so a coordinate needs no range check. */
static void fe_frombytes(fe out, const uint8_t in[32]) {
    uint64_t w0 = load64_le(in), w1 = load64_le(in + 8);
    uint64_t w2 = load64_le(in + 16), w3 = load64_le(in + 24);
    out[0] = w0 & MASK51;
    out[1] = ((w0 >> 51) | (w1 << 13)) & MASK51;
    out[2] = ((w1 >> 38) | (w2 << 26)) & MASK51;
    out[3] = ((w2 >> 25) | (w3 << 39)) & MASK51;
    out[4] = w3 >> 12;
}

/* The canonical encoding: the unique representative in [0, p). */
static void fe_tobytes(uint8_t out[32], const fe in) {
    uint64_t t[5], q;
    int pass, i;
    memcpy(t, in, sizeof(t));
    for (pass = 0; pass < 2; pass++) {  /* limbs below 2^51 after the second */
        for (i = 0; i < 4; i++) {
            t[i + 1] += t[i] >> 51;
            t[i] &= MASK51;
        }
        t[0] += 19 * (t[4] >> 51);
        t[4] &= MASK51;
    }
    /* q = 1 iff t >= p: the carry out of t + 19. */
    q = (t[0] + 19) >> 51;
    for (i = 1; i < 5; i++) q = (t[i] + q) >> 51;
    t[0] += 19 * q;
    for (i = 0; i < 4; i++) {
        t[i + 1] += t[i] >> 51;
        t[i] &= MASK51;
    }
    t[4] &= MASK51;
    store64_le(out, t[0] | (t[1] << 51));
    store64_le(out + 8, (t[1] >> 13) | (t[2] << 38));
    store64_le(out + 16, (t[2] >> 26) | (t[3] << 25));
    store64_le(out + 24, (t[3] >> 39) | (t[4] << 12));
}

static int fe_iszero(const fe a) {
    uint8_t bytes[32], acc = 0;
    int i;
    fe_tobytes(bytes, a);
    for (i = 0; i < 32; i++) acc |= bytes[i];
    return acc == 0;
}

/* out = z^(2^250 - 1) and z11 = z^11: the shared head of both exponents. */
static void fe_pow_2_250_1(fe out, fe z11, const fe z) {
    fe t0, t1, t2;
    fe_sq(t0, z);                                   /* 2 */
    fe_sq_times(t1, t0, 2);                         /* 8 */
    fe_mul(t1, z, t1);                              /* 9 */
    fe_mul(z11, t0, t1);                            /* 11 */
    fe_sq(t0, z11);                                 /* 22 */
    fe_mul(t0, t1, t0);                             /* 2^5 - 1 */
    fe_sq_times(t1, t0, 5);   fe_mul(t0, t1, t0);   /* 2^10 - 1 */
    fe_sq_times(t1, t0, 10);  fe_mul(t1, t1, t0);   /* 2^20 - 1 */
    fe_sq_times(t2, t1, 20);  fe_mul(t1, t2, t1);   /* 2^40 - 1 */
    fe_sq_times(t1, t1, 10);  fe_mul(t0, t1, t0);   /* 2^50 - 1 */
    fe_sq_times(t1, t0, 50);  fe_mul(t1, t1, t0);   /* 2^100 - 1 */
    fe_sq_times(t2, t1, 100); fe_mul(t1, t2, t1);   /* 2^200 - 1 */
    fe_sq_times(t1, t1, 50);  fe_mul(out, t1, t0);  /* 2^250 - 1 */
}

/* out = z^(p - 2) = z^(2^255 - 21): the inverse (0 for z = 0). */
static void fe_invert(fe out, const fe z) {
    fe t, z11;
    fe_pow_2_250_1(t, z11, z);
    fe_sq_times(t, t, 5);
    fe_mul(out, t, z11);
}

/* out = z^((p - 5) / 8) = z^(2^252 - 3). */
static void fe_pow22523(fe out, const fe z) {
    fe t, z11;
    fe_pow_2_250_1(t, z11, z);
    fe_sq_times(t, t, 2);
    fe_mul(out, t, z);
}

/* ------------------------------------------------------------------ */
/* edwards25519: points, window tables, ladders                       */
/* ------------------------------------------------------------------ */

/* Extended coordinates (x = X/Z, y = Y/Z, T = XY/Z), and the addend form
 * the unified addition wants: (Y + X, Y - X, 2Z, 2dT).  The formulas are
 * group.py's (add-2008-hwcd-3 and dbl-2008-hwcd for a = -1), which are
 * complete on this curve: they need no special case for the identity, for
 * equal operands or for the small-order points. */
typedef struct { fe X, Y, Z, T; } ge;
typedef struct { fe YpX, YmX, Z2, T2d; } ge_cached;

#define WINDOWS 64  /* 4-bit digits of a 256-bit scalar */

static const ge GE_BASE = {
    {0x62d608f25d51aULL, 0x412a4b4f6592aULL, 0x75b7171a4b31dULL,
     0x1ff60527118feULL, 0x216936d3cd6e5ULL},
    {0x6666666666658ULL, 0x4ccccccccccccULL, 0x1999999999999ULL,
     0x3333333333333ULL, 0x6666666666666ULL},
    {1, 0, 0, 0, 0},
    {0x68ab3a5b7dda3ULL, 0x00eea2a5eadbbULL, 0x2af8df483c27eULL,
     0x332b375274732ULL, 0x67875f0fd78b7ULL}};

static void ge_identity(ge *r) {
    fe_set(r->X, 0);
    fe_set(r->Y, 1);
    fe_set(r->Z, 1);
    fe_set(r->T, 0);
}

static void ge_frombytes(ge *r, const uint8_t in[128]) {
    fe_frombytes(r->X, in);
    fe_frombytes(r->Y, in + 32);
    fe_frombytes(r->Z, in + 64);
    fe_frombytes(r->T, in + 96);
}

static void ge_to_cached(ge_cached *r, const ge *p) {
    fe_add(r->YpX, p->Y, p->X);
    fe_sub(r->YmX, p->Y, p->X);
    fe_add(r->Z2, p->Z, p->Z);
    fe_mul(r->T2d, p->T, FE_D2);
}

/* r = p + q; r may alias p. */
static void ge_add(ge *r, const ge *p, const ge_cached *q) {
    fe a, b, c, d, e, f, g, h;
    fe_sub(a, p->Y, p->X);
    fe_mul(a, a, q->YmX);
    fe_add(b, p->Y, p->X);
    fe_mul(b, b, q->YpX);
    fe_mul(c, p->T, q->T2d);
    fe_mul(d, p->Z, q->Z2);
    fe_sub(e, b, a);
    fe_sub(f, d, c);
    fe_add(g, d, c);
    fe_add(h, b, a);
    fe_mul(r->X, e, f);
    fe_mul(r->Y, g, h);
    fe_mul(r->Z, f, g);
    fe_mul(r->T, e, h);
}

/* r = 2p; r may alias p.  T is only read by ge_add and ge_to_cached, so
 * the doublings that feed another doubling skip it. */
static void ge_double(ge *r, const ge *p, int with_t) {
    fe a, b, c, e, f, g, h;
    fe_sq(a, p->X);
    fe_sq(b, p->Y);
    fe_sq(c, p->Z);
    fe_add(c, c, c);
    fe_add(h, a, b);
    fe_add(e, p->X, p->Y);
    fe_sq(e, e);
    fe_sub(e, h, e);
    fe_sub(g, a, b);
    fe_add(f, c, g);
    fe_mul(r->X, e, f);
    fe_mul(r->Y, g, h);
    fe_mul(r->Z, f, g);
    if (with_t) fe_mul(r->T, e, h);
}

/* r = 16p, T included. */
static void ge_times16(ge *r, const ge *p) {
    ge_double(r, p, 0);
    ge_double(r, r, 0);
    ge_double(r, r, 0);
    ge_double(r, r, 1);
}

/* table[k] = k * p for k = 0..15. */
static void ge_window_table(ge_cached table[16], const ge *p) {
    ge multiple;
    int k;
    ge_identity(&multiple);
    ge_to_cached(&table[0], &multiple);
    ge_to_cached(&table[1], p);
    multiple = *p;
    for (k = 2; k < 16; k++) {
        ge_add(&multiple, &multiple, &table[1]);
        ge_to_cached(&table[k], &multiple);
    }
}

static unsigned scalar_digit(const uint8_t scalar[32], int index) {
    return (scalar[index >> 1] >> ((index & 1) * 4)) & 15;
}

/* out = table[digit], reading every entry: the digit of a secret scalar
 * reaches neither a branch nor an address. */
static void ge_cached_select(ge_cached *out, const ge_cached table[16], unsigned digit) {
    unsigned k;
    int i;
    memset(out, 0, sizeof(*out));
    for (k = 0; k < 16; k++) {
        uint64_t mask = (uint64_t)0 - ((((uint64_t)(k ^ digit)) - 1) >> 63);
        for (i = 0; i < 5; i++) {
            out->YpX[i] |= table[k].YpX[i] & mask;
            out->YmX[i] |= table[k].YmX[i] & mask;
            out->Z2[i] |= table[k].Z2[i] & mask;
            out->T2d[i] |= table[k].T2d[i] & mask;
        }
    }
}

/* r = scalar * P for the 256-bit little-endian scalar taken as an integer
 * (no reduction mod L), P given by its window table.  Constant time: 64
 * windows of four doublings, one masked select and one addition each. */
static void ge_ladder(ge *r, const ge_cached table[16], const uint8_t scalar[32]) {
    ge_cached addend;
    int index;
    ge_identity(r);
    for (index = WINDOWS - 1; index >= 0; index--) {
        ge_times16(r, r);
        ge_cached_select(&addend, table, scalar_digit(scalar, index));
        ge_add(r, r, &addend);
    }
}

/* comb[j][k] = k * 16^j * P: a multiplication becomes 64 additions. */
typedef ge_cached ge_comb[WINDOWS][16];

static void ge_comb_build(ge_comb comb, const ge *p) {
    ge row = *p;
    int j;
    for (j = 0; j < WINDOWS; j++) {
        ge_window_table(comb[j], &row);
        ge_times16(&row, &row);
    }
}

static void ge_comb_mult(ge *r, ge_comb comb, const uint8_t scalar[32]) {
    ge_cached addend;
    int j;
    ge_identity(r);
    for (j = 0; j < WINDOWS; j++) {
        ge_cached_select(&addend, comb[j], scalar_digit(scalar, j));
        ge_add(r, r, &addend);
    }
}

/* The base point's comb: built on first use, never at import.  Threads
 * race to publish a finished table; the losers free theirs. */
static ge_comb *base_comb_ptr;

static ge_comb *base_comb(void) {
    ge_comb *comb = __atomic_load_n(&base_comb_ptr, __ATOMIC_ACQUIRE);
    ge_comb *expected = NULL;
    if (comb) return comb;
    comb = malloc(sizeof(ge_comb));
    if (!comb) return NULL;
    ge_comb_build(*comb, &GE_BASE);
    if (__atomic_compare_exchange_n(&base_comb_ptr, &expected, comb, 0,
                                    __ATOMIC_RELEASE, __ATOMIC_ACQUIRE))
        return comb;
    free(comb);
    return expected;
}

static int ge_is_base(const ge *p) {
    fe left, right;
    fe_mul(left, p->X, GE_BASE.Z);
    fe_mul(right, GE_BASE.X, p->Z);
    fe_sub(left, left, right);
    if (!fe_iszero(left)) return 0;
    fe_mul(left, p->Y, GE_BASE.Z);
    fe_mul(right, GE_BASE.Y, p->Z);
    fe_sub(left, left, right);
    return fe_iszero(left);
}

/* Normalise `count` points with one inversion (Montgomery's trick) and
 * write them out every `stride` bytes: 96-byte records  encoding | x | t
 * (y is the encoding with its top bit cleared, z = 1), or the 32-byte
 * encoding alone.  Overwrites each point's T.  Fails on a zero Z, which no
 * curve point has. */
static int ge_emit_affine(ge *points, size_t count, uint8_t *out, size_t stride,
                          int with_coordinates) {
    fe running, inverse, zinv, x, y;
    uint8_t xbytes[32];
    size_t i;
    fe_set(running, 1);
    for (i = 0; i < count; i++) {  /* T[i] = Z[0] * ... * Z[i-1] */
        if (fe_iszero(points[i].Z)) return -2;
        fe_copy(points[i].T, running);
        fe_mul(running, running, points[i].Z);
    }
    fe_invert(inverse, running);
    for (i = count; i-- > 0;) {
        uint8_t *record = out + i * stride;
        fe_mul(zinv, inverse, points[i].T);
        fe_mul(inverse, inverse, points[i].Z);
        fe_mul(x, points[i].X, zinv);
        fe_mul(y, points[i].Y, zinv);
        fe_tobytes(xbytes, x);
        fe_tobytes(record, y);
        record[31] |= (uint8_t)((xbytes[0] & 1) << 7);
        if (with_coordinates) {
            memcpy(record + 32, xbytes, 32);
            fe_mul(x, x, y);
            fe_tobytes(record + 64, x);
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* edwards25519: batch entry points                                   */
/* ------------------------------------------------------------------ */

/* Points are 128 bytes (X | Y | Z | T, 32-byte little-endian each, any
 * Z != 0); scalars are 32-byte little-endian integers, used unreduced;
 * results are the 96-byte records of ge_emit_affine.  The two kernels
 * that take secret scalars run in time independent of them. */

int xrd_ed25519_scalar_mult_batch(const uint8_t *points, size_t count,
                                  const uint8_t *scalar, uint8_t *out) {
    ge_cached table[16];
    ge point, *results = alloc_array(count, sizeof(ge));
    size_t i;
    int rc;
    if (!results) return -3;
    for (i = 0; i < count; i++) {
        ge_frombytes(&point, points + 128 * i);
        ge_window_table(table, &point);
        ge_ladder(&results[i], table, scalar);
    }
    rc = ge_emit_affine(results, count, out, 96, 1);
    free(results);
    return rc;
}

/* One point, many scalars: 64 additions each over the point's comb.  The
 * base point's comb is the process-wide one; any other point pays about
 * four ladders for its own, which the second scalar already repays.
 * Scalars are read every `scalar_stride` bytes, results written (as
 * ge_emit_affine writes them) every `out_stride`. */
static int ge_fixed_mult(const uint8_t *point, const uint8_t *scalars,
                         size_t scalar_stride, size_t count,
                         uint8_t *out, size_t out_stride, int with_coordinates) {
    ge_comb *comb, *own_comb = NULL;
    ge base, *results;
    size_t i;
    int rc = -3, standard = !point;  /* NULL: the standard base point */
    if (point) {
        ge_frombytes(&base, point);
        standard = ge_is_base(&base);
    }
    if (standard) {
        comb = base_comb();
    } else {
        comb = own_comb = malloc(sizeof(ge_comb));
        if (comb) ge_comb_build(*comb, &base);
    }
    results = alloc_array(count, sizeof(ge));
    if (comb && results) {
        for (i = 0; i < count; i++)
            ge_comb_mult(&results[i], *comb, scalars + scalar_stride * i);
        rc = ge_emit_affine(results, count, out, out_stride, with_coordinates);
    }
    free(results);
    free(own_comb);
    return rc;
}

int xrd_ed25519_fixed_mult_batch(const uint8_t *point, const uint8_t *scalars,
                                 size_t count, uint8_t *out) {
    return ge_fixed_mult(point, scalars, 32, count, out, 96, 1);
}

/* Straus: total = sum of scalars[i] * P_i (given by its window table) over
 * one shared doubling chain.  Variable time: zero digits and the leading
 * identity are skipped, so this is for public points and scalars only. */
static void ge_straus(ge *total, ge_cached (*tables)[16], const uint8_t *scalars,
                      size_t count) {
    size_t i;
    int index, started = 0;
    ge_identity(total);
    for (index = WINDOWS - 1; index >= 0; index--) {
        if (started) ge_times16(total, total);
        for (i = 0; i < count; i++) {
            unsigned digit = scalar_digit(scalars + 32 * i, index);
            if (digit) {
                ge_add(total, total, &tables[i][digit]);
                started = 1;
            }
        }
    }
}

/* n independent k-term accumulations: record i = sum over j < k of
 * scalars[i k + j] * points[i k + j], all normalised with one inversion.
 * A row of one term is a multiplication — the shape a prover's nonces
 * take — and runs the constant-time ladder of scalar_mult_batch; rows of
 * two or more are the verifier's side (k = 2 is one Schnorr or
 * Chaum-Pedersen equation) and run Straus over public inputs.  The caller
 * has checked that both inputs hold k n entries. */
int xrd_ed25519_accumulate_rows(const uint8_t *points, const uint8_t *scalars,
                                size_t k, size_t n, uint8_t *out) {
    ge_cached (*tables)[16] = alloc_array(k, sizeof(*tables));
    ge point, *results = alloc_array(n, sizeof(ge));
    size_t row, j;
    int rc = -3;
    if (tables && results) {
        for (row = 0; row < n; row++) {
            for (j = 0; j < k; j++) {
                ge_frombytes(&point, points + 128 * (row * k + j));
                ge_window_table(tables[j], &point);
            }
            if (k == 1)
                ge_ladder(&results[row], tables[0], scalars + 32 * row);
            else
                ge_straus(&results[row], tables, scalars + 32 * row * k, k);
        }
        rc = ge_emit_affine(results, n, out, 96, 1);
    }
    free(results);
    free(tables);
    return rc;
}

int xrd_ed25519_encode_batch(const uint8_t *points, size_t count, uint8_t *out) {
    ge *loaded = alloc_array(count, sizeof(ge));
    size_t i;
    int rc;
    if (!loaded) return -3;
    for (i = 0; i < count; i++) ge_frombytes(&loaded[i], points + 128 * i);
    rc = ge_emit_affine(loaded, count, out, 32, 0);
    free(loaded);
    return rc;
}

/* RFC 8032 section 5.1.3 with the square root and the division fused into
 * one exponentiation: x = u v^3 (u v^7)^((p-5)/8) for u = y^2 - 1 and
 * v = d y^2 + 1.  Per encoding, ok_out is 1 and out holds the point's
 * 96-byte record, or ok_out is 0 for exactly the inputs
 * Ed25519Group.decode rejects: y >= p, x^2 not a square, x = 0 with the
 * sign bit set. */
int xrd_ed25519_decode_batch(const uint8_t *encodings, size_t count,
                             uint8_t *out, uint8_t *ok_out) {
    fe y, u, v, v3, x, check;
    uint8_t ybytes[32], canonical[32];
    size_t i;
    for (i = 0; i < count; i++) {
        const uint8_t *encoding = encodings + 32 * i;
        uint8_t *record = out + 96 * i;
        unsigned sign = encoding[31] >> 7;
        ok_out[i] = 0;
        memcpy(ybytes, encoding, 32);
        ybytes[31] &= 0x7f;
        fe_frombytes(y, ybytes);
        fe_tobytes(canonical, y);
        if (memcmp(canonical, ybytes, 32) != 0) continue;  /* y >= p */
        fe_sq(u, y);
        fe_mul(v, u, FE_D);
        fe_set(check, 1);
        fe_sub(u, u, check);
        fe_add(v, v, check);
        fe_sq(v3, v);
        fe_mul(v3, v3, v);
        fe_sq(x, v3);
        fe_mul(x, x, v);
        fe_mul(x, x, u);
        fe_pow22523(x, x);
        fe_mul(x, x, v3);
        fe_mul(x, x, u);
        fe_sq(check, x);
        fe_mul(check, check, v);
        fe_sub(v3, check, u);
        if (!fe_iszero(v3)) {
            fe_add(v3, check, u);
            if (!fe_iszero(v3)) continue;  /* not a square */
            fe_mul(x, x, FE_SQRTM1);
        }
        fe_tobytes(canonical, x);
        if (fe_iszero(x)) {
            if (sign) continue;
        } else if ((canonical[0] & 1u) != sign) {
            fe_set(check, 0);
            fe_sub(x, check, x);
            fe_tobytes(canonical, x);
        }
        memcpy(record, encoding, 32);
        memcpy(record + 32, canonical, 32);
        fe_mul(x, x, y);
        fe_tobytes(record + 64, x);
        ok_out[i] = 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Fused onion build: one chain's client submissions in one call      */
/* ------------------------------------------------------------------ */

/* What population/batch_build.py does between the users' RNG draws and the
 * Schnorr challenges, for `count` entries of one chain with `layers` mix
 * servers.  Entry i of `out` is `stride = body_len + 96 + 16 layers` bytes
 * and ends up holding its finished onion; every entry has the same size, so
 * each seal runs in place and nothing is joined or re-split between layers:
 *
 *     offset 0    g^y                                   32
 *     offset 32   recipient                             32  \ mailbox message,
 *     offset 64   AEnc(seal key, body) || tag   body_len+16  / sealed under y.ipk
 *     ...         inner tag, then one tag per layer, outermost last
 *
 * `scalars` holds y | x | k per entry (32 bytes each, the group's scalar
 * encoding); `publics` receives g^y | g^x | g^k per entry.  A group supplies
 * one function — one base, a strided column of scalars, strided 32-byte
 * encodings out — and the schedule below calls it once per base: the
 * generator (all 3 count scalars in one pass), the aggregate inner key, and
 * each mixing key back to front.  All arithmetic is the bodies above. */

typedef int (*fixed_mult_fn)(const void *group, const uint8_t *base,
                             const uint8_t *scalars, size_t scalar_stride,
                             size_t count, uint8_t *out, size_t out_stride);

/* The onion's KDF context and AEAD associated data: none. */
static const uint8_t EMPTY[1] = {0};

/* Seal bytes [0, len) of every entry in place under HKDF(label, shared_i),
 * appending the tag. */
static void onion_seal_layer(const uint8_t *label, size_t label_len,
                             const uint8_t *shared, const uint8_t nonce[12],
                             size_t count, uint8_t *first, size_t stride, size_t len) {
    hmac_key salt;
    uint8_t key[32];
    size_t i;
    hmac_set_key(&salt, label, label_len);
    for (i = 0; i < count; i++) {
        uint8_t *entry = first + stride * i;
        hkdf_derive(&salt, shared + 32 * i, EMPTY, 0, key);
        aead_seal(key, nonce, EMPTY, 0, entry, len, entry);
    }
}

static int onion_build(fixed_mult_fn mult, const void *group, size_t base_size,
                       const uint8_t *generator, const uint8_t *inner_public,
                       const uint8_t *mixing_publics, size_t layers,
                       const uint8_t *nonce,
                       const uint8_t *inner_label, size_t inner_label_len,
                       const uint8_t *outer_label, size_t outer_label_len,
                       size_t count, size_t body_len,
                       const uint8_t *seal_keys, const uint8_t *recipients,
                       const uint8_t *bodies, const uint8_t *scalars,
                       uint8_t *out, uint8_t *publics) {
    size_t stride = body_len + 96 + 16 * layers, len = body_len + 48, i;
    uint8_t *shared = alloc_array(count, 32);
    int rc;
    if (!shared) return -3;
    for (i = 0; i < count; i++) {  /* MailboxMessage.seal */
        uint8_t *entry = out + stride * i;
        memcpy(entry + 32, recipients + 32 * i, 32);
        aead_seal(seal_keys + 32 * i, nonce, EMPTY, 0,
                  bodies + body_len * i, body_len, entry + 64);
    }
    rc = mult(group, generator, scalars, 32, 3 * count, publics, 32);
    if (rc == 0)  /* encrypt_inner: the mailbox message under y.ipk, g^y in front */
        rc = mult(group, inner_public, scalars, 96, count, shared, 32);
    if (rc == 0) {
        for (i = 0; i < count; i++) memcpy(out + stride * i, publics + 96 * i, 32);
        onion_seal_layer(inner_label, inner_label_len, shared, nonce,
                         count, out + 32, stride, len);
        len += 48;
    }
    while (rc == 0 && layers-- > 0) {  /* encrypt_outer_layers: x.mpk_j, innermost last */
        rc = mult(group, mixing_publics + base_size * layers, scalars + 32, 96,
                  count, shared, 32);
        if (rc == 0) {
            onion_seal_layer(outer_label, outer_label_len, shared, nonce,
                             count, out, stride, len);
            len += 16;
        }
    }
    free(shared);
    return rc;
}

int xrd_modp_onion_build(const uint8_t *prime, const uint8_t *generator,
                         const uint8_t *inner_public, const uint8_t *mixing_publics,
                         size_t layers, const uint8_t *nonce,
                         const uint8_t *inner_label, size_t inner_label_len,
                         const uint8_t *outer_label, size_t outer_label_len,
                         size_t count, size_t body_len,
                         const uint8_t *seal_keys, const uint8_t *recipients,
                         const uint8_t *bodies, const uint8_t *scalars,
                         uint8_t *out, uint8_t *publics) {
    mont_ctx m;
    if (mont_init(&m, prime) != 0) return -1;
    return onion_build(modp_fixed_mult, &m, 32, generator, inner_public,
                       mixing_publics, layers, nonce, inner_label, inner_label_len,
                       outer_label, outer_label_len, count, body_len, seal_keys,
                       recipients, bodies, scalars, out, publics);
}

static int ed25519_fixed_mult(const void *group, const uint8_t *point,
                              const uint8_t *scalars, size_t scalar_stride,
                              size_t count, uint8_t *out, size_t out_stride) {
    (void)group;
    return ge_fixed_mult(point, scalars, scalar_stride, count, out, out_stride, 0);
}

/* Points as everywhere on the curve: 128 bytes X | Y | Z | T; the generator
 * is the standard base point and its process-wide comb. */
int xrd_ed25519_onion_build(const uint8_t *inner_public, const uint8_t *mixing_publics,
                            size_t layers, const uint8_t *nonce,
                            const uint8_t *inner_label, size_t inner_label_len,
                            const uint8_t *outer_label, size_t outer_label_len,
                            size_t count, size_t body_len,
                            const uint8_t *seal_keys, const uint8_t *recipients,
                            const uint8_t *bodies, const uint8_t *scalars,
                            uint8_t *out, uint8_t *publics) {
    return onion_build(ed25519_fixed_mult, NULL, 128, NULL, inner_public,
                       mixing_publics, layers, nonce, inner_label, inner_label_len,
                       outer_label, outer_label_len, count, body_len, seal_keys,
                       recipients, bodies, scalars, out, publics);
}
