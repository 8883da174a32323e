/*
 * Compiled kernels of the `native` engine (see native.py).
 *
 * Every kernel reproduces the `reference` backend's numpy arithmetic bit for
 * bit, so it must be compiled without fused multiply-adds, fast-math or
 * reassociation (-ffp-contract=off, no -ffast-math):
 *
 *  - A row sum follows np.add.reduceat's order: the first term, plus the
 *    pairwise sum of the rest (numpy's `pairwise_sum`: started at -0.0 below
 *    8 terms, 8 accumulators up to PW_BLOCKSIZE terms, halving above).
 *  - fp16 values live on the fp32 grid.  A product of two fp16 values is
 *    exact in fp32; each operation's fp16 rounding is `q16`, the scalar form
 *    of halfvec.quantize32, and a row sum runs in fp32 and is rounded once
 *    (numpy's fp16 reduction accumulates in float32).  fp16 storage is read
 *    and written by bit manipulation; nothing here uses _Float16.
 *  - An (n, k) block is k right-hand sides in row-major storage.  Every
 *    kernel runs the same row kernel on each column, so a block column
 *    equals the single-vector call by construction.
 *
 * Kernels keep no state between calls: the only scratch is allocated per
 * call, so concurrent calls on one factor or matrix are safe.  They return 0
 * on success and -1 when a scratch allocation fails.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NATIVE_ABI 1
#define PW_BLOCKSIZE 128

int64_t repro_native_abi(void) { return NATIVE_ABI; }

/* ------------------------------------------------------------------------ */
/* fp16 on the fp32 grid                                                     */
/* ------------------------------------------------------------------------ */
static inline uint32_t bits_of(float f) { uint32_t u; memcpy(&u, &f, 4); return u; }
static inline float float_of(uint32_t u) { float f; memcpy(&f, &u, 4); return f; }

/* float32 exponent field of 2^-14 (fp16's smallest normal) and of 2^15, 2^16 */
#define EXP_FLOOR 0x38800000u
#define EXP_2_15 0x47000000u
#define EXP_2_16 0x47800000u
#define EXP_MASK 0x7F800000u
#define SIGN_MASK 0x80000000u
/* added to an exponent field e: the bits of 1.5 * 2^(e + 13), whose float32
 * ulp is fp16's spacing in the binade of e */
#define MAGIC_OFFSET ((13u << 23) | 0x400000u)

/* x rounded to the nearest fp16 value (ties to even), kept in float32:
 * bit-equal to numpy's float32 -> float16 -> float32 round trip. */
static inline float q16(float x)
{
    uint32_t bits = bits_of(x);
    uint32_t e = bits & EXP_MASK;
    uint32_t sign = bits & SIGN_MASK;
    if (e >= EXP_2_15) {
        if (e == EXP_MASK)
            return x;                                /* inf and NaN */
        if (e >= EXP_2_16)
            return float_of(sign | EXP_MASK);        /* past fp16: +-inf */
        float magic = float_of(e + MAGIC_OFFSET);
        float r = (x + magic) - magic;               /* spacing 32 */
        return r > 65504.0f || r < -65504.0f ? float_of(sign | EXP_MASK) : r;
    }
    if (e < EXP_FLOOR)
        e = EXP_FLOOR;          /* the subnormal range is on the 2^-24 grid */
    float magic = float_of(e + MAGIC_OFFSET);
    float r = (x + magic) - magic;
    return float_of(bits_of(r) | sign);              /* keeps -0 */
}

/* fp16 bits -> float32 (exact) */
static inline float h2f(uint16_t h)
{
    uint32_t sign = (uint32_t)(h & 0x8000u) << 16;
    uint32_t e = (h >> 10) & 0x1Fu;
    uint32_t m = h & 0x3FFu;
    if (e == 0)                 /* zero or subnormal: m * 2^-24, exact */
        return float_of(bits_of((float)m * 0x1p-24f) | sign);
    if (e == 31)
        return float_of(sign | EXP_MASK | (m << 13));
    return float_of(sign | ((e + 112u) << 23) | (m << 13));
}

/* float32 on the fp16 grid (or +-inf, NaN) -> fp16 bits (exact) */
static inline uint16_t f2h(float f)
{
    uint32_t bits = bits_of(f);
    uint16_t sign = (uint16_t)((bits >> 16) & 0x8000u);
    uint32_t e = (bits >> 23) & 0xFFu;
    uint32_t m = bits & 0x7FFFFFu;
    if (e == 0xFFu) {
        uint16_t h = (uint16_t)(0x7C00u + (m >> 13));
        if (m && h == 0x7C00u)
            h++;                                     /* stays a NaN */
        return sign | h;
    }
    if (e > 112u)
        return sign | (uint16_t)(((e - 112u) << 10) | (m >> 13));
    return sign | (uint16_t)(float_of(bits & ~SIGN_MASK) * 0x1p24f);
}

/* ------------------------------------------------------------------------ */
/* Row sums in np.add.reduceat's order, over terms computed on the fly       */
/*                                                                           */
/* TERM(q) is the product at stored position q; `x` points at the column's   */
/* first entry and `k` is the row stride of the block.  NAME(lo, n) is       */
/* TERM(lo) + pairwise(TERM(lo + 1 .. lo + n - 1)) for n >= 1; NAME##_blocks */
/* is numpy's pairwise sum for n >= 8 (its halves are never shorter).        */
/* ------------------------------------------------------------------------ */
#define DEFINE_ROW_SUM(NAME, T, V, I, TERM)                                   \
    static T NAME##_blocks(const V *vals, const I *cols, const T *x,          \
                           int64_t k, int64_t p, int64_t n)                   \
    {                                                                         \
        if (n > PW_BLOCKSIZE) {                                               \
            int64_t n2 = n / 2;                                               \
            n2 -= n2 % 8;                                                     \
            return NAME##_blocks(vals, cols, x, k, p, n2) +                   \
                   NAME##_blocks(vals, cols, x, k, p + n2, n - n2);           \
        }                                                                     \
        T r0 = TERM(p), r1 = TERM(p + 1), r2 = TERM(p + 2), r3 = TERM(p + 3); \
        T r4 = TERM(p + 4), r5 = TERM(p + 5), r6 = TERM(p + 6);               \
        T r7 = TERM(p + 7);                                                   \
        int64_t i;                                                            \
        for (i = 8; i < n - (n % 8); i += 8) {                                \
            r0 += TERM(p + i);                                                \
            r1 += TERM(p + i + 1);                                            \
            r2 += TERM(p + i + 2);                                            \
            r3 += TERM(p + i + 3);                                            \
            r4 += TERM(p + i + 4);                                            \
            r5 += TERM(p + i + 5);                                            \
            r6 += TERM(p + i + 6);                                            \
            r7 += TERM(p + i + 7);                                            \
        }                                                                     \
        T res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));            \
        for (; i < n; i++)                                                    \
            res += TERM(p + i);                                               \
        return res;                                                           \
    }                                                                         \
    static inline T NAME(const V *vals, const I *cols, const T *x, int64_t k, \
                         int64_t lo, int64_t n)                               \
    {                                                                         \
        T first = TERM(lo);                                                   \
        if (n - 1 >= 8)                                                       \
            return first + NAME##_blocks(vals, cols, x, k, lo + 1, n - 1);    \
        T rest = -0.0;                                                        \
        for (int64_t i = 1; i < n; i++)                                       \
            rest += TERM(lo + i);                                             \
        return first + rest;                                                  \
    }

#define PLAIN_TERM(q) (vals[q] * x[(int64_t)cols[q] * k])
#define HALF_TERM(q) q16(vals[q] * x[(int64_t)cols[q] * k])

DEFINE_ROW_SUM(row_sum_f64, double, double, int64_t, PLAIN_TERM)
DEFINE_ROW_SUM(row_sum_f32, float, float, int64_t, PLAIN_TERM)
DEFINE_ROW_SUM(row_sum_f16, float, float, int64_t, HALF_TERM)
DEFINE_ROW_SUM(row_sum_csr_f16, float, float, int32_t, HALF_TERM)

/* ------------------------------------------------------------------------ */
/* Triangular substitution                                                   */
/*                                                                           */
/* Rows run in level order (`order`, nrows entries); row r's off-diagonal     */
/* entries are rowptr[r]..rowptr[r+1] of cols/vals, summed like reduceat,     */
/* and x[r] = (b[r] - sum) * inv[r].  An empty row's sum is +0.               */
/* ------------------------------------------------------------------------ */
#define DEFINE_TRSV(NAME, T, ROW_SUM)                                         \
    int NAME(int64_t nrows, const int64_t *order, const int64_t *rowptr,      \
             const int64_t *cols, const T *vals, const T *inv, const T *b,    \
             T *x, int64_t k)                                                 \
    {                                                                         \
        for (int64_t t = 0; t < nrows; t++) {                                 \
            int64_t r = order[t];                                             \
            int64_t lo = rowptr[r], n = rowptr[r + 1] - lo;                   \
            for (int64_t j = 0; j < k; j++) {                                 \
                const T *xj = x + j;                                          \
                T s = 0.0;                                                    \
                if (n)                                                        \
                    s = ROW_SUM(vals, cols, xj, k, lo, n);                    \
                x[r * k + j] = (b[r * k + j] - s) * inv[r];                   \
            }                                                                 \
        }                                                                     \
        return 0;                                                             \
    }

DEFINE_TRSV(trsv_f64, double, row_sum_f64)
DEFINE_TRSV(trsv_f32, float, row_sum_f32)

/* fp16: the solution is carried in fp32 (on the fp16 grid) for the gathers
 * and written to fp16 storage row by row; every operation rounds once. */
int trsv_f16(int64_t nrows, const int64_t *order, const int64_t *rowptr,
             const int64_t *cols, const float *vals, const float *inv,
             const uint16_t *b, uint16_t *x16, int64_t k)
{
    float *x = calloc((size_t)(nrows * k > 0 ? nrows * k : 1), sizeof(float));
    if (!x)
        return -1;
    for (int64_t t = 0; t < nrows; t++) {
        int64_t r = order[t];
        int64_t lo = rowptr[r], n = rowptr[r + 1] - lo;
        for (int64_t j = 0; j < k; j++) {
            const float *xj = x + j;
            float s = 0.0f;
            if (n)
                s = q16(row_sum_f16(vals, cols, xj, k, lo, n));
            float d = q16(h2f(b[r * k + j]) - s);
            float v = q16(d * inv[r]);
            x[r * k + j] = v;
            x16[r * k + j] = f2h(v);
        }
    }
    free(x);
    return 0;
}

/* ------------------------------------------------------------------------ */
/* fp16 CSR products                                                         */
/* ------------------------------------------------------------------------ */
/* The (ncols, k) fp16 operand expanded to fp32 once per call. */
static float *expand_f16(const uint16_t *x16, int64_t size)
{
    float *x = malloc((size_t)(size > 0 ? size : 1) * sizeof(float));
    if (x)
        for (int64_t i = 0; i < size; i++)
            x[i] = h2f(x16[i]);
    return x;
}

/* The fp16 row sum of row i, column j: products rounded to fp16, summed in
 * fp32 like reduceat, rounded once.  An empty row sums to +0. */
static inline float csr_row_f16(const int32_t *indptr, const int32_t *indices,
                                const float *vals, const float *x, int64_t k,
                                int64_t i, int64_t j)
{
    int64_t lo = indptr[i], n = indptr[i + 1] - lo;
    if (!n)
        return 0.0f;
    return q16(row_sum_csr_f16(vals, indices, x + j, k, lo, n));
}

/* y = A x */
int spmv_csr_f16(int64_t nrows, int64_t ncols, const int32_t *indptr,
                 const int32_t *indices, const float *vals, const uint16_t *x16,
                 uint16_t *y, int64_t k)
{
    float *x = expand_f16(x16, ncols * k);
    if (!x)
        return -1;
    for (int64_t i = 0; i < nrows; i++)
        for (int64_t j = 0; j < k; j++)
            y[i * k + j] = f2h(csr_row_f16(indptr, indices, vals, x, k, i, j));
    free(x);
    return 0;
}

/* r = y - A x, with A x rounded to fp16 first (the unfused pair's order) */
int spmv_axpy_f16(int64_t nrows, int64_t ncols, const int32_t *indptr,
                  const int32_t *indices, const float *vals,
                  const uint16_t *x16, const uint16_t *y, uint16_t *r,
                  int64_t k)
{
    float *x = expand_f16(x16, ncols * k);
    if (!x)
        return -1;
    for (int64_t i = 0; i < nrows; i++)
        for (int64_t j = 0; j < k; j++) {
            float s = csr_row_f16(indptr, indices, vals, x, k, i, j);
            r[i * k + j] = f2h(q16(h2f(y[i * k + j]) - s));
        }
    free(x);
    return 0;
}

/* halfvec.quantize32 on n values (the quantizer's own test surface) */
void quantize32(const float *in, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = q16(in[i]);
}
