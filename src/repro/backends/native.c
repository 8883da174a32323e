/*
 * Compiled kernels of the `native` engine (see native.py).
 *
 * Every kernel reproduces its oracle's arithmetic bit for bit — the
 * `reference` backend's numpy, or for the fp32 / fp64 products `fast`'s
 * (scipy's CSR matvec) — so it must be compiled
 * without fused multiply-adds, fast-math or reassociation
 * (-ffp-contract=off, no -ffast-math):
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
 * The triangular solves and the CSR products read a row-interleaved
 * plan (SELL-8, after Kreutzer et al.'s SELL-C-sigma): native.py packs
 * independent rows (one dependency level's, or the matrix's) eight to a
 * chunk, and entry i of the 8 rows sits side by side, so a lane is a row.
 * Each lane performs its own row's arithmetic exactly: the first term, plus
 * numpy's pairwise sum of the rest — 8 accumulators over the blocks of 8
 * terms, combined in numpy's tree, then the remainder one by one, or for a
 * row of fewer than 9 terms the remainder alone from -0.0.  A chunk's lanes
 * share its largest block and remainder counts; where a lane's row has no
 * term, the slot holds the product -0.0, and x + -0.0 == x for every x
 * (+0.0 would turn a sum of -0 into +0), so the padding changes no bit.  A
 * chunk of one row (a narrow level's straggler, or a row of more than
 * PW_BLOCKSIZE + 1 terms, whose pairwise sum halves) stores it in order and
 * runs the row sums below.  The fp32 and fp64 CSR products sum sequentially
 * instead (scipy's order, see their section) on the same plans.
 *
 * The triangular solves, the fp16 kernels, the products and the Richardson
 * sweeps come in two instantiations of the same macros: the portable scalar
 * one (q16 and bit-manipulating converters, walking a chunk lane by lane),
 * and on x86-64 one compiled for AVX2 + F16C (function-level target
 * attributes; the file as a whole keeps the baseline ISA), whose 8 lanes
 * (fp64: two vectors of 4) are a chunk's 8 rows: one gather fetches slot
 * i's x of every row, and a lane-wise add rounds like a scalar one.  The
 * F16C round trip cvtph2ps(cvtps2ph(x, round-to-nearest-even)) equals
 * q16(x) on every non-NaN float32 and keeps NaN a NaN, so the converters
 * swap freely.  A single row's sum keeps numpy's 8 accumulators r0..r7 in
 * the 8 lanes of one vector instead (lane j sums terms j, j + 8, ... in
 * r_j's order) and combines them in numpy's tree.  repro_native_avx2()
 * reports, once per load, whether the AVX2 set exists and the CPU runs it;
 * native.py calls the scalar set otherwise, and for any call whose strided
 * gather index col * k might not fit in int32.
 *
 * Kernels keep no state between calls: their scratch is allocated per call,
 * or (the fp16 triangular solve's fp32 copy of x, the stencil sweeps'
 * grid-sized buffers, the Richardson sweeps' vectors) passed in by the
 * caller from the calling thread's arena, so concurrent calls on one
 * factor, matrix or stencil are safe.
 * They return 0 on success and -1 when a scratch allocation fails.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_AVX2_SET 1
#include <immintrin.h>
#define AVX2_FN __attribute__((target("avx2,f16c")))
#endif

#define NATIVE_ABI 9
#define PW_BLOCKSIZE 128

int64_t repro_native_abi(void) { return NATIVE_ABI; }

/* 1 when the AVX2 + F16C kernels were compiled and this CPU runs them */
int64_t repro_native_avx2(void)
{
#ifdef HAVE_AVX2_SET
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
    return 0;
#endif
}

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

#ifdef HAVE_AVX2_SET
/* The same three operations on F16C: round to nearest even, and the exact
 * conversions between fp16 bits and float32. */
#define F16C_RNE _MM_FROUND_TO_NEAREST_INT
AVX2_FN static inline float q16_f16c(float x)
{
    return _cvtsh_ss(_cvtss_sh(x, F16C_RNE));
}
AVX2_FN static inline float h2f_f16c(uint16_t h) { return _cvtsh_ss(h); }
AVX2_FN static inline uint16_t f2h_f16c(float f)
{
    return _cvtss_sh(f, F16C_RNE);
}
AVX2_FN static inline __m256 q16x8(__m256 v)
{
    return _mm256_cvtph_ps(_mm256_cvtps_ph(v, F16C_RNE));
}
AVX2_FN static inline __m256 load_h8(const uint16_t *h)
{
    return _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)h));
}
AVX2_FN static inline void store_h8(uint16_t *h, __m256 v)
{
    _mm_storeu_si128((__m128i *)h, _mm256_cvtps_ph(v, F16C_RNE));
}
#endif

/* ------------------------------------------------------------------------ */
/* Row sums in np.add.reduceat's order, over terms computed on the fly       */
/*                                                                           */
/* TERM(q) is the product at stored position q; `x` points at the column's   */
/* first entry and `k` is the row stride of the block.  NAME(lo, n) is       */
/* TERM(lo) + pairwise(TERM(lo + 1 .. lo + n - 1)) for n >= 1; NAME##_blocks */
/* is numpy's pairwise sum for n >= 8 (its halves are never shorter).        */
/* BLOCK(T, TERM, RES) declares RES, that pairwise sum for 8 <= n <=        */
/* PW_BLOCKSIZE: numpy's 8 accumulators over TERM(p .. p + n - n % 8 - 1),   */
/* combined in its tree, plus the remaining terms one by one.                */
/* SHORT(T, TERM, FIRST, REST) declares, for a row of n <= 8 terms, its      */
/* FIRST term and the sequential sum REST (from -0.0) of the others.         */
/* ------------------------------------------------------------------------ */
#define DEFINE_ROW_SUM(NAME, ATTR, T, V, I, TERM, BLOCK, SHORT)               \
    ATTR static T NAME##_blocks(const V *vals, const I *cols, const T *x,     \
                                int64_t k, int64_t p, int64_t n)              \
    {                                                                         \
        if (n > PW_BLOCKSIZE) {                                               \
            int64_t n2 = n / 2;                                               \
            n2 -= n2 % 8;                                                     \
            return NAME##_blocks(vals, cols, x, k, p, n2) +                   \
                   NAME##_blocks(vals, cols, x, k, p + n2, n - n2);           \
        }                                                                     \
        BLOCK(T, TERM, res)                                                   \
        return res;                                                           \
    }                                                                         \
    ATTR static inline T NAME(const V *vals, const I *cols, const T *x,       \
                              int64_t k, int64_t lo, int64_t n)               \
    {                                                                         \
        if (n - 1 >= 8)                                                       \
            return TERM(lo) + NAME##_blocks(vals, cols, x, k, lo + 1, n - 1); \
        SHORT(T, TERM, first, rest)                                           \
        return first + rest;                                                  \
    }

/* numpy's accumulators as 8 scalars */
#define SCALAR_BLOCK(T, TERM, RES)                                            \
    T r0 = TERM(p), r1 = TERM(p + 1), r2 = TERM(p + 2), r3 = TERM(p + 3);     \
    T r4 = TERM(p + 4), r5 = TERM(p + 5), r6 = TERM(p + 6);                   \
    T r7 = TERM(p + 7);                                                       \
    int64_t i;                                                                \
    for (i = 8; i < n - (n % 8); i += 8) {                                    \
        r0 += TERM(p + i);                                                    \
        r1 += TERM(p + i + 1);                                                \
        r2 += TERM(p + i + 2);                                                \
        r3 += TERM(p + i + 3);                                                \
        r4 += TERM(p + i + 4);                                                \
        r5 += TERM(p + i + 5);                                                \
        r6 += TERM(p + i + 6);                                                \
        r7 += TERM(p + i + 7);                                                \
    }                                                                         \
    T RES = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));                \
    for (; i < n; i++)                                                        \
        RES += TERM(p + i);

/* a short row's terms one by one */
#define SCALAR_SHORT(T, TERM, FIRST, REST)                                    \
    T FIRST = TERM(lo);                                                       \
    T REST = -0.0;                                                            \
    for (int64_t i = 1; i < n; i++)                                           \
        REST += TERM(lo + i);

#define PLAIN_TERM(q) (vals[q] * x[(int64_t)cols[q] * k])
#define HALF_TERM(q) q16(vals[q] * x[(int64_t)cols[q] * k])

DEFINE_ROW_SUM(row_sum_f64, , double, double, int32_t, PLAIN_TERM, SCALAR_BLOCK,
               SCALAR_SHORT)
DEFINE_ROW_SUM(row_sum_f32, , float, float, int32_t, PLAIN_TERM, SCALAR_BLOCK,
               SCALAR_SHORT)
DEFINE_ROW_SUM(row_sum_f16, , float, float, int32_t, HALF_TERM, SCALAR_BLOCK,
               SCALAR_SHORT)

#ifdef HAVE_AVX2_SET
/* The gather indices col * k of the 8 slots at q .. q + 7.  The caller
 * guarantees they fit in int32 (native.py picks the scalar set
 * otherwise). */
AVX2_FN static inline __m256i index8(const int32_t *cols, int64_t k, int64_t q)
{
    __m256i idx = _mm256_loadu_si256((const __m256i *)(cols + q));
    return k == 1 ? idx : _mm256_mullo_epi32(idx, _mm256_set1_epi32((int32_t)k));
}

/* The 8 exact fp32 products at q .. q + 7, one per lane */
AVX2_FN static inline __m256 plain_terms8(const float *vals, const int32_t *cols,
                                          const float *x, int64_t k, int64_t q)
{
    return _mm256_mul_ps(_mm256_loadu_ps(vals + q),
                         _mm256_i32gather_ps(x, index8(cols, k, q), 4));
}

/* The same products rounded to fp16 */
AVX2_FN static inline __m256 half_terms8(const float *vals, const int32_t *cols,
                                         const float *x, int64_t k, int64_t q)
{
    return q16x8(plain_terms8(vals, cols, x, k, q));
}

/* The fp16-rounded products at q .. q + m - 1 (1 <= m <= 8) in the first m
 * lanes; masked loads read nothing past them. */
AVX2_FN static inline __m256 half_terms_upto8(const float *vals,
                                              const int32_t *cols,
                                              const float *x, int64_t k,
                                              int64_t q, int64_t m)
{
    __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((int32_t)m), lane);
    __m256i idx = _mm256_maskload_epi32(cols + q, mask);
    if (k != 1)
        idx = _mm256_mullo_epi32(idx, _mm256_set1_epi32((int32_t)k));
    __m256 xv = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), x, idx,
                                         _mm256_castsi256_ps(mask), 4);
    return q16x8(_mm256_mul_ps(_mm256_maskload_ps(vals + q, mask), xv));
}

/* numpy's accumulators as the 8 lanes of one vector; the remaining terms in
 * one more, summed lane by lane */
#define AVX2_BLOCK(T, TERM, RES)                                              \
    __m256 acc = half_terms8(vals, cols, x, k, p);                            \
    int64_t i;                                                                \
    for (i = 8; i < n - (n % 8); i += 8)                                      \
        acc = _mm256_add_ps(acc, half_terms8(vals, cols, x, k, p + i));       \
    T r[8];                                                                   \
    _mm256_storeu_ps(r, acc);                                                 \
    T RES = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])); \
    if (i < n) {                                                              \
        _mm256_storeu_ps(r, half_terms_upto8(vals, cols, x, k, p + i, n - i)); \
        for (int64_t l = 0; l < n - i; l++)                                   \
            RES += r[l];                                                      \
    }

/* a long row's first term, and a short row's terms one by one: a lone short
 * row is a chain link (a one-row level), where scalar loads beat a gather */
#define F16C_TERM(q) q16_f16c(vals[q] * x[(int64_t)cols[q] * k])

DEFINE_ROW_SUM(row_sum_f16_avx2, AVX2_FN, float, float, int32_t, F16C_TERM,
               AVX2_BLOCK, SCALAR_SHORT)
#endif

/* ------------------------------------------------------------------------ */
/* Row-interleaved plans                                                     */
/*                                                                           */
/* Chunk c's record meta[4c .. 4c + 3] is (off, lanes, blocks, rest).  A     */
/* chunk of one lane holds its row's `rest` terms in stored order from off   */
/* on.  A chunk of 2 to 8 lanes holds slot i of lane l at off + 8 i + l:     */
/* slot 0 the first term, slots 1 .. 8 blocks the accumulators' blocks       */
/* (accumulator a of block b at 1 + 8 b + a), then `rest` slots added one by */
/* one.  A slot a lane's row does not fill has the value -0.0 and column -1, */
/* the zero row the caller keeps before x; an empty row's first slot has     */
/* +0.0, its sum.  rows[8c + l] is lane l's row, for l < lanes.              */
/*                                                                           */
/* NAME(vals, cols, x, k, chunk, s) sets s[l] = ROUND(the row sum of lane l) */
/* for l < lanes of `chunk` (a lane chunk), x pointing at column j of row 0, */
/* walking the chunk lane by lane with numpy's accumulators in r0 .. r7.     */
/* CHUNK_SUMS does that for any chunk, a one-lane chunk by ROW_SUM.          */
/* ------------------------------------------------------------------------ */
#define DEFINE_LANE_SUMS(NAME, T, TERM, ROUND)                                \
    static void NAME(const T *vals, const int32_t *cols, const T *x,          \
                     int64_t k, const int64_t *chunk, T *s)                   \
    {                                                                         \
        for (int64_t l = 0; l < chunk[1]; l++) {                              \
            int64_t q = chunk[0] + 8 + l, end = q + 64 * chunk[2];            \
            T res = -0.0;                                                     \
            if (q < end) {                                                    \
                T r0 = TERM(q), r1 = TERM(q + 8), r2 = TERM(q + 16);          \
                T r3 = TERM(q + 24), r4 = TERM(q + 32), r5 = TERM(q + 40);    \
                T r6 = TERM(q + 48), r7 = TERM(q + 56);                       \
                for (q += 64; q < end; q += 64) {                             \
                    r0 += TERM(q);                                            \
                    r1 += TERM(q + 8);                                        \
                    r2 += TERM(q + 16);                                       \
                    r3 += TERM(q + 24);                                       \
                    r4 += TERM(q + 32);                                       \
                    r5 += TERM(q + 40);                                       \
                    r6 += TERM(q + 48);                                       \
                    r7 += TERM(q + 56);                                       \
                }                                                             \
                res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));      \
            }                                                                 \
            for (end += 8 * chunk[3]; q < end; q += 8)                        \
                res += TERM(q);                                               \
            s[l] = ROUND(TERM(chunk[0] + l) + res);                           \
        }                                                                     \
    }

#define CHUNK_SUMS(LANE_SUMS, ROW_SUM, ROUND, x, chunk, s)                    \
    if (chunk[1] > 1)                                                         \
        LANE_SUMS(vals, cols, x, k, chunk, s);                                \
    else                                                                      \
        s[0] = chunk[3] ? ROUND(ROW_SUM(vals, cols, x, k, chunk[0], chunk[3])) \
                        : 0.0f;

#define SAME(v) (v)
DEFINE_LANE_SUMS(lane_sums_f64, double, PLAIN_TERM, SAME)
DEFINE_LANE_SUMS(lane_sums_f32, float, PLAIN_TERM, SAME)
DEFINE_LANE_SUMS(lane_sums_f16, float, HALF_TERM, q16)

#ifdef HAVE_AVX2_SET
/* fp64's 8 lanes as two vectors of 4 */
typedef struct { __m256d lo, hi; } d8;

AVX2_FN static inline d8 d8_set1(double v)
{
    return (d8){_mm256_set1_pd(v), _mm256_set1_pd(v)};
}

AVX2_FN static inline d8 d8_add(d8 a, d8 b)
{
    return (d8){_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}

AVX2_FN static inline void d8_store(double *s, d8 v)
{
    _mm256_storeu_pd(s, v.lo);
    _mm256_storeu_pd(s + 4, v.hi);
}

/* The 8 exact fp64 products at q .. q + 7, one per lane */
AVX2_FN static inline d8 plain_terms8_f64(const double *vals, const int32_t *cols,
                                          const double *x, int64_t k, int64_t q)
{
    __m256i idx = index8(cols, k, q);
    return (d8){_mm256_mul_pd(_mm256_loadu_pd(vals + q),
                              _mm256_i32gather_pd(x, _mm256_castsi256_si128(idx), 8)),
                _mm256_mul_pd(_mm256_loadu_pd(vals + q + 4),
                              _mm256_i32gather_pd(x, _mm256_extracti128_si256(idx, 1),
                                                  8))};
}

/* The lane sums (fp16: TERMS8 and ROUND8 round) with a chunk's 8 rows in
 * the 8 lanes (a lane past `lanes` sums its -0.0 padding): one gather per
 * slot (fp64: two), each accumulator one V of 8 lanes with ADD, every
 * lane's result in s */
#define DEFINE_LANE_SUMS_AVX2(NAME, T, V, SET1, ADD, STORE, TERMS8, ROUND8)  \
    AVX2_FN static void NAME(const T *vals, const int32_t *cols, const T *x,  \
                             int64_t k, const int64_t *chunk, T *s)           \
    {                                                                         \
        int64_t off = chunk[0], q = off + 8, end = q + 64 * chunk[2];         \
        V res = SET1(-0.0);                                                   \
        if (q < end) {                                                        \
            V a0 = TERMS8(vals, cols, x, k, q);                               \
            V a1 = TERMS8(vals, cols, x, k, q + 8);                           \
            V a2 = TERMS8(vals, cols, x, k, q + 16);                          \
            V a3 = TERMS8(vals, cols, x, k, q + 24);                          \
            V a4 = TERMS8(vals, cols, x, k, q + 32);                          \
            V a5 = TERMS8(vals, cols, x, k, q + 40);                          \
            V a6 = TERMS8(vals, cols, x, k, q + 48);                          \
            V a7 = TERMS8(vals, cols, x, k, q + 56);                          \
            for (q += 64; q < end; q += 64) {                                 \
                a0 = ADD(a0, TERMS8(vals, cols, x, k, q));                    \
                a1 = ADD(a1, TERMS8(vals, cols, x, k, q + 8));                \
                a2 = ADD(a2, TERMS8(vals, cols, x, k, q + 16));               \
                a3 = ADD(a3, TERMS8(vals, cols, x, k, q + 24));               \
                a4 = ADD(a4, TERMS8(vals, cols, x, k, q + 32));               \
                a5 = ADD(a5, TERMS8(vals, cols, x, k, q + 40));               \
                a6 = ADD(a6, TERMS8(vals, cols, x, k, q + 48));               \
                a7 = ADD(a7, TERMS8(vals, cols, x, k, q + 56));               \
            }                                                                 \
            res = ADD(ADD(ADD(a0, a1), ADD(a2, a3)),                          \
                      ADD(ADD(a4, a5), ADD(a6, a7)));                         \
        }                                                                     \
        for (end += 8 * chunk[3]; q < end; q += 8)                            \
            res = ADD(res, TERMS8(vals, cols, x, k, q));                      \
        STORE(s, ROUND8(ADD(TERMS8(vals, cols, x, k, off), res)));            \
    }

#define EXACT(v) (v)
DEFINE_LANE_SUMS_AVX2(lane_sums_f16_avx2, float, __m256, _mm256_set1_ps,
                      _mm256_add_ps, _mm256_storeu_ps, half_terms8, q16x8)
DEFINE_LANE_SUMS_AVX2(lane_sums_f32_avx2, float, __m256, _mm256_set1_ps,
                      _mm256_add_ps, _mm256_storeu_ps, plain_terms8, EXACT)
DEFINE_LANE_SUMS_AVX2(lane_sums_f64_avx2, double, d8, d8_set1, d8_add, d8_store,
                      plain_terms8_f64, EXACT)
#endif

/* ------------------------------------------------------------------------ */
/* Triangular substitution                                                   */
/*                                                                           */
/* Chunks run in plan order: level by level, a level's rows independent, so  */
/* a chunk reads only rows that earlier chunks wrote.  inv[8c + l] is lane   */
/* l's inverse diagonal, and x[r] = (b[r] - sum) * inv[r]; x[-k .. -1] is    */
/* the zero row (the caller's).  The AVX2 set sums a lane chunk's 8 rows in  */
/* the lanes of one vector (fp64: two); a one-row chunk keeps the scalar sum. */
/* ------------------------------------------------------------------------ */
#define DEFINE_TRSV(NAME, ATTR, T, LANE_SUMS, ROW_SUM)                        \
    ATTR int NAME(int64_t nchunks, const int64_t *meta, const int64_t *rows,  \
             const int32_t *cols, const T *vals, const T *inv, const T *b,    \
             T *x, int64_t k)                                                 \
    {                                                                         \
        for (int64_t c = 0; c < nchunks; c++) {                               \
            const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;          \
            for (int64_t j = 0; j < k; j++) {                                 \
                T s[8];                                                       \
                CHUNK_SUMS(LANE_SUMS, ROW_SUM, SAME, x + j, chunk, s)         \
                for (int64_t l = 0; l < chunk[1]; l++) {                      \
                    int64_t at = rc[l] * k + j;                               \
                    x[at] = (b[at] - s[l]) * inv[8 * c + l];                  \
                }                                                             \
            }                                                                 \
        }                                                                     \
        return 0;                                                             \
    }

DEFINE_TRSV(trsv_f64, , double, lane_sums_f64, row_sum_f64)
DEFINE_TRSV(trsv_f32, , float, lane_sums_f32, row_sum_f32)
#ifdef HAVE_AVX2_SET
DEFINE_TRSV(trsv_f64_avx2, AVX2_FN, double, lane_sums_f64_avx2, row_sum_f64)
DEFINE_TRSV(trsv_f32_avx2, AVX2_FN, float, lane_sums_f32_avx2, row_sum_f32)
#endif

/* ------------------------------------------------------------------------ */
/* The separable stencil sweep                                               */
/*                                                                           */
/* A box-separable stencil is y = alpha x + Conv_{D-1}(... Conv_0(x)), one   */
/* 1-D convolution per axis of a C-ordered grid whose k columns are the      */
/* fastest axis (fast.py's _apply_stencil_separable, the oracle of these     */
/* kernels).  Axis d's pass sets each element to the chain of its taps j in */
/* range (0 <= c + j < dims[d], c its coordinate on the axis), in tap order: */
/* the first tap's product, then each further tap's product added; an        */
/* element with no tap in range is +0.  In fp16 every product and every sum  */
/* is rounded (a +-1 tap's product is exact, so its rounding is a no-op).    */
/* Offsets are int64: the sweep forms no int32 index.                        */
/*                                                                           */
/* CHAIN(src, dst, count, m, off, w) sets dst[e], e < count, to the chain of */
/* taps w[t] * src[e + off[t]], t < m.                                       */
/* ------------------------------------------------------------------------ */
#define DEFINE_TAP_CHAIN(NAME, ATTR, T, FIRST, NEXT, XV_CHAIN)                \
    ATTR static void NAME(const T *restrict src, T *restrict dst,             \
                          int64_t count, int64_t m, const int64_t *off,       \
                          const T *w)                                         \
    {                                                                         \
        int64_t e = 0;                                                        \
        if (m == 0) {                                                         \
            for (; e < count; e++)                                            \
                dst[e] = 0;                                                   \
            return;                                                           \
        }                                                                     \
        XV_CHAIN                                                              \
        for (int64_t t = 0; t < m; t++) {                                     \
            const T *restrict tap = src + off[t];                             \
            T wt = w[t];                                                      \
            if (t == 0)                                                       \
                for (int64_t i = e; i < count; i++)                           \
                    dst[i] = FIRST(wt, tap[i]);                               \
            else                                                              \
                for (int64_t i = e; i < count; i++)                           \
                    dst[i] = NEXT(dst[i], wt, tap[i]);                        \
        }                                                                     \
    }

/* Every axis pass over x (n = k * prod(dims) elements), alternating between */
/* the buffers a and b; returns the one the last pass wrote, or NULL when    */
/* the tap lists cannot be allocated.  ntaps[d] taps per axis, their offsets */
/* and weights concatenated in tap_j / tap_w.                                */
#define DEFINE_SEPARABLE_SWEEP(NAME, ATTR, T, CHAIN)                          \
    ATTR static T *NAME(int64_t ndim, const int64_t *dims, int64_t k,         \
                        const int64_t *ntaps, const int64_t *tap_j,           \
                        const T *tap_w, const T *x, T *a, T *b)               \
    {                                                                         \
        int64_t most = 1, inner = k;                                          \
        for (int64_t d = 0; d < ndim; d++) {                                  \
            most = ntaps[d] > most ? ntaps[d] : most;                         \
            inner *= dims[d];                                                 \
        }                                                                     \
        int64_t *off = malloc((size_t)(2 * most) * sizeof(int64_t));          \
        T *edge_w = malloc((size_t)most * sizeof(T));                         \
        if (!off || !edge_w) {                                                \
            free(off);                                                        \
            free(edge_w);                                                     \
            return NULL;                                                      \
        }                                                                     \
        int64_t *edge_off = off + most;                                       \
        const T *cur = x;                                                     \
        T *nxt = a;                                                           \
        int64_t outer = 1;                                                    \
        for (int64_t d = 0; d < ndim; d++) {                                  \
            int64_t dim = dims[d], m = ntaps[d];                              \
            inner /= dim;                                                     \
            /* coordinates in [lo, hi) have every tap in range */             \
            int64_t lo = 0, hi = dim;                                         \
            for (int64_t t = 0; t < m; t++) {                                 \
                lo = -tap_j[t] > lo ? -tap_j[t] : lo;                         \
                hi = dim - tap_j[t] < hi ? dim - tap_j[t] : hi;               \
                off[t] = tap_j[t] * inner;                                    \
            }                                                                 \
            lo = lo < dim ? lo : dim;                                         \
            hi = hi > lo ? hi : lo;                                           \
            for (int64_t o = 0; o < outer; o++) {                             \
                const T *src = cur + o * dim * inner;                         \
                T *dst = nxt + o * dim * inner;                               \
                CHAIN(src + lo * inner, dst + lo * inner, (hi - lo) * inner,  \
                      m, off, tap_w);                                         \
                for (int64_t c = 0; c < dim; c++) {   /* the edge planes */   \
                    if (c == lo && (c = hi) == dim)                           \
                        break;                                                \
                    int64_t in = 0;                                           \
                    for (int64_t t = 0; t < m; t++)                           \
                        if (c + tap_j[t] >= 0 && c + tap_j[t] < dim) {        \
                            edge_off[in] = off[t];                            \
                            edge_w[in++] = tap_w[t];                          \
                        }                                                     \
                    CHAIN(src + c * inner, dst + c * inner, inner, in,        \
                          edge_off, edge_w);                                  \
                }                                                             \
            }                                                                 \
            outer *= dim;                                                     \
            tap_j += m;                                                       \
            tap_w += m;                                                       \
            cur = nxt;                                                        \
            nxt = nxt == a ? b : a;                                           \
        }                                                                     \
        free(off);                                                            \
        free(edge_w);                                                         \
        return (T *)cur;                                                      \
    }

/* y = alpha x + the sweep of x (just the sweep when has_alpha is 0), alpha  */
/* in coef[0] and the tap weights after it; x and y hold n = k * prod(dims)  */
/* elements, and `work` 2n, the caller's scratch (fresh pages for every      */
/* call would cost more than the sweep).  XV_COMBINE is a vector prefix of   */
/* the combine loop.                                                         */
#define DEFINE_STENCIL(NAME, ATTR, T, SWEEP, XV_COMBINE)                      \
    ATTR int NAME(int64_t ndim, const int64_t *dims, int64_t k,               \
                  const int64_t *ntaps, const int64_t *tap_j, const T *coef,  \
                  int64_t has_alpha, const T *x, T *y, T *work)               \
    {                                                                         \
        int64_t n = k;                                                        \
        for (int64_t d = 0; d < ndim; d++)                                    \
            n *= dims[d];                                                     \
        const T *cur = SWEEP(ndim, dims, k, ntaps, tap_j, coef + 1, x, work,  \
                             work + n);                                       \
        if (cur) {                                                            \
            int64_t e = 0;                                                    \
            if (has_alpha) {                                                  \
                XV_COMBINE                                                    \
                for (; e < n; e++)                                            \
                    y[e] = x[e] * coef[0] + cur[e];                           \
            } else {                                                          \
                memcpy(y, cur, (size_t)n * sizeof(T));                        \
            }                                                                 \
        }                                                                     \
        return cur ? 0 : -1;                                                  \
    }

#define PLAIN_FIRST(w, v) ((w) * (v))
#define PLAIN_NEXT(acc, w, v) ((acc) + (w) * (v))

DEFINE_TAP_CHAIN(tap_chain_f64, , double, PLAIN_FIRST, PLAIN_NEXT, )
DEFINE_TAP_CHAIN(tap_chain_f32, , float, PLAIN_FIRST, PLAIN_NEXT, )
DEFINE_SEPARABLE_SWEEP(sweep_f64, , double, tap_chain_f64)
DEFINE_SEPARABLE_SWEEP(sweep_f32, , float, tap_chain_f32)
DEFINE_STENCIL(stencil_sep_f64, , double, sweep_f64, )
DEFINE_STENCIL(stencil_sep_f32, , float, sweep_f32, )

#ifdef HAVE_AVX2_SET
/* The same sweeps with the chain of W consecutive elements in the lanes of
 * one vector (a lane-wise multiply or add rounds like a scalar one, and the
 * target has no FMA to contract them into); ROUND is fp16's rounding after
 * each operation (EXACT in fp64 and fp32). */
#define XV_CHAIN_AVX2(V, W, SET1, LOAD, STORE, MUL, ADD, ROUND)               \
    for (; e + W <= count; e += W) {                                          \
        V acc = ROUND(MUL(SET1(w[0]), LOAD(src + e + off[0])));               \
        for (int64_t t = 1; t < m; t++) {                                     \
            V p = MUL(SET1(w[t]), LOAD(src + e + off[t]));                    \
            if (w[t] != 1 && w[t] != -1)     /* else p is exact */           \
                p = ROUND(p);                                                 \
            acc = ROUND(ADD(acc, p));                                         \
        }                                                                     \
        STORE(dst + e, acc);                                                  \
    }
#define XV_COMBINE_AVX2(V, W, SET1, LOAD, STORE, MUL, ADD, ROUND)             \
    for (V alpha = SET1(coef[0]); e + W <= n; e += W)                         \
        STORE(y + e, ADD(MUL(LOAD(x + e), alpha), LOAD(cur + e)));
#define F64_AVX2 __m256d, 4, _mm256_set1_pd, _mm256_loadu_pd, _mm256_storeu_pd, \
                 _mm256_mul_pd, _mm256_add_pd, EXACT
#define F32_AVX2 __m256, 8, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, \
                 _mm256_mul_ps, _mm256_add_ps, EXACT
#define APPLY(MACRO, ARGS) MACRO(ARGS)

DEFINE_TAP_CHAIN(tap_chain_f64_avx2, AVX2_FN, double, PLAIN_FIRST, PLAIN_NEXT,
                 APPLY(XV_CHAIN_AVX2, F64_AVX2))
DEFINE_TAP_CHAIN(tap_chain_f32_avx2, AVX2_FN, float, PLAIN_FIRST, PLAIN_NEXT,
                 APPLY(XV_CHAIN_AVX2, F32_AVX2))
DEFINE_SEPARABLE_SWEEP(sweep_f64_avx2, AVX2_FN, double, tap_chain_f64_avx2)
DEFINE_SEPARABLE_SWEEP(sweep_f32_avx2, AVX2_FN, float, tap_chain_f32_avx2)
DEFINE_STENCIL(stencil_sep_f64_avx2, AVX2_FN, double, sweep_f64_avx2,
               APPLY(XV_COMBINE_AVX2, F64_AVX2))
DEFINE_STENCIL(stencil_sep_f32_avx2, AVX2_FN, float, sweep_f32_avx2,
               APPLY(XV_COMBINE_AVX2, F32_AVX2))
#endif

/* ------------------------------------------------------------------------ */
/* The fp16 kernels, instantiated once per instruction set                   */
/*                                                                           */
/* SFX names the set; Q16, H2F and F2H are its rounding and conversions,     */
/* ROW_SUM and LANE_SUMS its row sums; X8_TRSV, X8_SPMV, X8_AXPY (a lane    */
/* chunk's rows), X8_EXPAND, X8_NARROW, X8_WEIGHTED, X8_RESIDUAL, X8_STENCIL */
/* and X8_DIAG are its 8-wide loop prefixes (empty in the scalar set), each  */
/* advancing its index past the elements it wrote and leaving the rest to    */
/* the scalar loop after it.                                                 */
/* ------------------------------------------------------------------------ */
#define DEFINE_HALF_KERNELS(SFX, ATTR, Q16, H2F, F2H, ROW_SUM, LANE_SUMS,    \
                            X8_TRSV, X8_SPMV, X8_AXPY, X8_EXPAND, X8_NARROW, X8_WEIGHTED, X8_RESIDUAL,   \
                            X8_STENCIL, X8_DIAG)                              \
/* fp16: the solution is carried in fp32 (on the fp16 grid) for the gathers,  \
 * in `work` ((n + 1) k floats from the caller: the zero row, then x), and    \
 * written to fp16 storage row by row; every operation rounds once. */        \
ATTR int trsv_f16##SFX(int64_t nchunks, const int64_t *meta,                  \
                       const int64_t *rows, const int32_t *cols,              \
                       const float *vals, const float *inv,                   \
                       const uint16_t *b, uint16_t *x16, int64_t k,           \
                       float *work)                                           \
{                                                                             \
    float *x = work + k;                                                      \
    memset(work, 0, (size_t)k * sizeof(float));                               \
    for (int64_t c = 0; c < nchunks; c++) {                                   \
        const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;              \
        for (int64_t j = 0; j < k; j++) {                                     \
            float s[8];                                                       \
            CHUNK_SUMS(LANE_SUMS, ROW_SUM, Q16, x + j, chunk, s)              \
            int64_t l = 0;                                                    \
            X8_TRSV                                                           \
            for (; l < chunk[1]; l++) {                                       \
                int64_t at = rc[l] * k + j;                                   \
                float v = Q16(Q16(H2F(b[at]) - s[l]) * inv[8 * c + l]);       \
                x[at] = v;                                                    \
                x16[at] = F2H(v);                                             \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* `size` fp16 values expanded to fp32 (exact): the fp16 -> fp32 cast */      \
ATTR int cast_f16_f32##SFX(int64_t size, const uint16_t *x16, float *x)       \
{                                                                             \
    int64_t e = 0;                                                            \
    X8_EXPAND                                                                 \
    for (; e < size; e++)                                                     \
        x[e] = H2F(x16[e]);                                                   \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* `size` fp32 values rounded to fp16, ties to even: the fp32 -> fp16 cast */ \
ATTR int cast_f32_f16##SFX(int64_t size, const float *x, uint16_t *x16)       \
{                                                                             \
    int64_t e = 0;                                                            \
    X8_NARROW                                                                 \
    for (; e < size; e++)                                                     \
        x16[e] = F2H(Q16(x[e]));                                              \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* The (ncols, k) fp16 operand expanded to fp32 once per call, after the     \
 * zero row (the returned buffer's first k floats). */                        \
ATTR static float *expand_f16##SFX(const uint16_t *x16, int64_t size,        \
                                   int64_t k)                                 \
{                                                                             \
    float *x = malloc((size_t)(size + k > 0 ? size + k : 1) * sizeof(float)); \
    if (x) {                                                                  \
        memset(x, 0, (size_t)k * sizeof(float));                              \
        cast_f16_f32##SFX(size, x16, x + k);                                  \
    }                                                                         \
    return x;                                                                 \
}                                                                             \
                                                                              \
/* y = A x: a row's products rounded to fp16, summed in fp32 like reduceat, \
 * the sum rounded once (an empty row's is +0) */                             \
ATTR int spmv_csr_f16##SFX(int64_t nchunks, int64_t ncols,                    \
                           const int64_t *meta, const int64_t *rows,          \
                           const int32_t *cols, const float *vals,            \
                           const uint16_t *x16, uint16_t *y, int64_t k)       \
{                                                                             \
    float *x = expand_f16##SFX(x16, ncols * k, k);                            \
    if (!x)                                                                   \
        return -1;                                                            \
    for (int64_t c = 0; c < nchunks; c++) {                                   \
        const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;              \
        for (int64_t j = 0; j < k; j++) {                                     \
            float s[8];                                                       \
            CHUNK_SUMS(LANE_SUMS, ROW_SUM, Q16, x + k + j, chunk, s)          \
            int64_t l = 0;                                                    \
            X8_SPMV                                                           \
            for (; l < chunk[1]; l++)                                         \
                y[rc[l] * k + j] = F2H(s[l]);                                 \
        }                                                                     \
    }                                                                         \
    free(x);                                                                  \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* r = y - A x, with A x rounded to fp16 first (the unfused pair's order) */  \
ATTR int spmv_axpy_f16##SFX(int64_t nchunks, int64_t ncols,                   \
                            const int64_t *meta, const int64_t *rows,         \
                            const int32_t *cols, const float *vals,           \
                            const uint16_t *x16, const uint16_t *y,           \
                            uint16_t *r, int64_t k)                           \
{                                                                             \
    float *x = expand_f16##SFX(x16, ncols * k, k);                            \
    if (!x)                                                                   \
        return -1;                                                            \
    for (int64_t c = 0; c < nchunks; c++) {                                   \
        const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;              \
        for (int64_t j = 0; j < k; j++) {                                     \
            float s[8];                                                       \
            CHUNK_SUMS(LANE_SUMS, ROW_SUM, Q16, x + k + j, chunk, s)          \
            int64_t l = 0;                                                    \
            X8_AXPY                                                           \
            for (; l < chunk[1]; l++) {                                       \
                int64_t at = rc[l] * k + j;                                   \
                r[at] = F2H(Q16(H2F(y[at]) - s[l]));                          \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    free(x);                                                                  \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* out = round16(round16(alpha[j] * mr) + z) over `size` entries of an       \
 * (n, k) row-major block, alpha[j] (fp16 values, in fp32) weighting column   \
 * j. */                                                                      \
ATTR int weighted_update_f16##SFX(int64_t size, int64_t k, const float *alpha, \
                                  const uint16_t *mr, const uint16_t *z,      \
                                  uint16_t *out)                              \
{                                                                             \
    if (size <= 0)                                                            \
        return 0;                                                             \
    int64_t e = 0;                                                            \
    X8_WEIGHTED                                                               \
    for (int64_t j = e % k; e < size; e++) {                                  \
        out[e] = F2H(Q16(Q16(alpha[j] * H2F(mr[e])) + H2F(z[e])));            \
        if (++j == k)                                                         \
            j = 0;                                                            \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* out = round16(v - az) over `size` entries */                               \
ATTR int residual_update_f16##SFX(int64_t size, const uint16_t *v,            \
                                  const uint16_t *az, uint16_t *out)          \
{                                                                             \
    int64_t e = 0;                                                            \
    X8_RESIDUAL                                                               \
    for (; e < size; e++)                                                     \
        out[e] = F2H(Q16(H2F(v[e]) - H2F(az[e])));                            \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* The separable stencil (DEFINE_STENCIL) in fp16: x expanded to fp32, the \
 * sweep on the fp32 grid, y = round16(round16(alpha * x) + sweep) (just the  \
 * sweep when has_alpha is 0), alpha and the weights fp16 values in fp32;    \
 * `work` holds 3n floats. */                                                 \
ATTR int stencil_sep_f16##SFX(int64_t ndim, const int64_t *dims, int64_t k,   \
                              const int64_t *ntaps, const int64_t *tap_j,     \
                              const float *coef, int64_t has_alpha,           \
                              const uint16_t *x16, uint16_t *y16,             \
                              float *work)                                    \
{                                                                             \
    int64_t n = k;                                                            \
    for (int64_t d = 0; d < ndim; d++)                                        \
        n *= dims[d];                                                         \
    float *x = work;                                                          \
    cast_f16_f32##SFX(n, x16, x);                                             \
    const float *cur = sweep_f16##SFX(ndim, dims, k, ntaps, tap_j, coef + 1,  \
                                      x, work + n, work + 2 * n);             \
    if (cur) {                                                                \
        int64_t e = 0;                                                        \
        X8_STENCIL                                                            \
        for (; e < n; e++)                                                    \
            y16[e] = F2H(has_alpha ? Q16(Q16(coef[0] * x[e]) + cur[e])        \
                                   : cur[e]);                                 \
    }                                                                         \
    return cur ? 0 : -1;                                                      \
}                                                                             \
                                                                              \
/* out = round16(scale[i] * x[i, j]) over an (n, k) row-major block */        \
ATTR int diag_scale_f16##SFX(int64_t n, int64_t k, const uint16_t *scale,     \
                             const uint16_t *x, uint16_t *out)                \
{                                                                             \
    int64_t i = 0;                                                            \
    X8_DIAG                                                                   \
    for (; i < n; i++) {                                                      \
        float s = H2F(scale[i]);                                              \
        for (int64_t j = i * k; j < (i + 1) * k; j++)                         \
            out[j] = F2H(Q16(s * H2F(x[j])));                                 \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* One Richardson invocation of m steps, z = z + omega_s M^-1 (v - A z) from  \
 * z = 0, on an (n, k) block: each step the kernels above in the order the    \
 * level's loop calls them — the residual by spmv_axpy on A's plan (a_*;      \
 * step 0's residual is v itself), M's apply as the solves with the lower    \
 * plan (l_*) then the upper one (u_*), IC(0)'s diagonal `scale` between     \
 * them when it is not NULL, then weighted_update with omega[s] (an fp16     \
 * value in fp32) on every column.  Step 0 adds into the zero z like the     \
 * loop, so an update of -0 lands as +0.  `buf` holds 3 n k fp16 values and  \
 * `work` (n + 2) k floats: the weights' row, then the solves' scratch. */   \
ATTR int richardson_f16##SFX(int64_t n, int64_t m, int64_t a_chunks,          \
                             const int64_t *a_meta, const int64_t *a_rows,    \
                             const int32_t *a_cols, const float *a_vals,      \
                             int64_t l_chunks, const int64_t *l_meta,         \
                             const int64_t *l_rows, const int32_t *l_cols,    \
                             const float *l_vals, const float *l_inv,         \
                             int64_t u_chunks, const int64_t *u_meta,         \
                             const int64_t *u_rows, const int32_t *u_cols,    \
                             const float *u_vals, const float *u_inv,         \
                             const uint16_t *scale, int64_t k,                \
                             const float *omega, const uint16_t *v,           \
                             uint16_t *z, uint16_t *buf, float *work)         \
{                                                                             \
    int64_t size = n * k;                                                     \
    uint16_t *r = buf, *y = buf + size, *mr = buf + 2 * size;                 \
    float *alpha = work;                                                      \
    memset(z, 0, (size_t)size * sizeof(uint16_t));                            \
    for (int64_t s = 0; s < m; s++) {                                         \
        const uint16_t *res = v;                                              \
        if (s > 0) {                                                          \
            if (spmv_axpy_f16##SFX(a_chunks, n, a_meta, a_rows, a_cols,       \
                                   a_vals, z, v, r, k))                       \
                return -1;                                                    \
            res = r;                                                          \
        }                                                                     \
        trsv_f16##SFX(l_chunks, l_meta, l_rows, l_cols, l_vals, l_inv, res,   \
                      y, k, work + k);                                        \
        if (scale && diag_scale_f16##SFX(n, k, scale, y, y))                  \
            return -1;                                                        \
        trsv_f16##SFX(u_chunks, u_meta, u_rows, u_cols, u_vals, u_inv, y, mr, \
                      k, work + k);                                           \
        for (int64_t j = 0; j < k; j++)                                       \
            alpha[j] = omega[s];                                              \
        if (weighted_update_f16##SFX(size, k, alpha, mr, z, z))               \
            return -1;                                                        \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* halfvec.quantize32 on n values (the quantizer's own test surface) */       \
ATTR void quantize32##SFX(const float *in, float *out, int64_t n)             \
{                                                                             \
    for (int64_t i = 0; i < n; i++)                                           \
        out[i] = Q16(in[i]);                                                  \
}

/* fp16 tap chains: every product and every sum rounded */
#define HALF_FIRST(w, v) q16((w) * (v))
#define HALF_NEXT(acc, w, v) q16((acc) + q16((w) * (v)))
DEFINE_TAP_CHAIN(tap_chain_f16, , float, HALF_FIRST, HALF_NEXT, )
DEFINE_SEPARABLE_SWEEP(sweep_f16, , float, tap_chain_f16)

DEFINE_HALF_KERNELS(, , q16, h2f, f2h, row_sum_f16, lane_sums_f16, , , , , , , ,
                    , )

#ifdef HAVE_AVX2_SET
/* a lane chunk's 8 rows at once: b gathered, x rounded in the lanes */
#define X8_TRSV_AVX2                                                          \
    if (chunk[1] > 1) {                                                       \
        uint16_t h[8];                                                        \
        float v[8];                                                           \
        for (int i = 0; i < 8; i++)                                           \
            h[i] = b[rc[i] * k + j];                                          \
        __m256 d = q16x8(_mm256_sub_ps(load_h8(h), _mm256_loadu_ps(s)));      \
        __m128i vh = _mm256_cvtps_ph(_mm256_mul_ps(                           \
            d, _mm256_loadu_ps(inv + 8 * c)), F16C_RNE);                      \
        _mm256_storeu_ps(v, _mm256_cvtph_ps(vh));                             \
        _mm_storeu_si128((__m128i *)h, vh);                                   \
        for (; l < chunk[1]; l++) {                                           \
            x[rc[l] * k + j] = v[l];                                          \
            x16[rc[l] * k + j] = h[l];                                        \
        }                                                                     \
    }

/* the same for the CSR products: the rounded sums narrowed in one vector */
#define X8_SPMV_AVX2                                                          \
    if (chunk[1] > 1) {                                                       \
        uint16_t h[8];                                                        \
        store_h8(h, _mm256_loadu_ps(s));                                      \
        for (; l < chunk[1]; l++)                                             \
            y[rc[l] * k + j] = h[l];                                          \
    }

#define X8_AXPY_AVX2                                                          \
    if (chunk[1] > 1) {                                                       \
        uint16_t h[8];                                                        \
        for (int i = 0; i < 8; i++)                                           \
            h[i] = y[rc[i] * k + j];                                          \
        store_h8(h, _mm256_sub_ps(load_h8(h), _mm256_loadu_ps(s)));           \
        for (; l < chunk[1]; l++)                                             \
            r[rc[l] * k + j] = h[l];                                          \
    }

#define X8_EXPAND_AVX2                                                        \
    for (; e + 8 <= size; e += 8)                                             \
        _mm256_storeu_ps(x + e, load_h8(x16 + e));

#define X8_NARROW_AVX2                                                        \
    for (; e + 8 <= size; e += 8)                                             \
        store_h8(x16 + e, _mm256_loadu_ps(x + e));

/* alpha laid out over 8 periods of the row (8k entries), so the weights of
 * any 8 consecutive entries starting at a multiple of 8 are contiguous */
#define X8_WEIGHTED_AVX2                                                      \
    if (size >= 8) {                                                          \
        float *rep = malloc((size_t)(8 * k) * sizeof(float));                 \
        if (!rep)                                                             \
            return -1;                                                        \
        for (int64_t t = 0; t < 8 * k; t++)                                   \
            rep[t] = alpha[t % k];                                            \
        for (int64_t off = 0; e + 8 <= size; e += 8) {                        \
            __m256 a = _mm256_loadu_ps(rep + off);                            \
            store_h8(out + e, _mm256_add_ps(                                  \
                q16x8(_mm256_mul_ps(a, load_h8(mr + e))), load_h8(z + e)));   \
            off += 8;                                                         \
            if (off == 8 * k)                                                 \
                off = 0;                                                      \
        }                                                                     \
        free(rep);                                                            \
    }

#define X8_RESIDUAL_AVX2                                                      \
    for (; e + 8 <= size; e += 8)                                             \
        store_h8(out + e, _mm256_sub_ps(load_h8(v + e), load_h8(az + e)));

#define F16C_FIRST(w, v) q16_f16c((w) * (v))
#define F16C_NEXT(acc, w, v) q16_f16c((acc) + q16_f16c((w) * (v)))
#define F16_AVX2 __m256, 8, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, \
                 _mm256_mul_ps, _mm256_add_ps, q16x8
DEFINE_TAP_CHAIN(tap_chain_f16_avx2, AVX2_FN, float, F16C_FIRST, F16C_NEXT,
                 APPLY(XV_CHAIN_AVX2, F16_AVX2))
DEFINE_SEPARABLE_SWEEP(sweep_f16_avx2, AVX2_FN, float, tap_chain_f16_avx2)

#define X8_STENCIL_AVX2                                                       \
    if (has_alpha) {                                                          \
        __m256 alpha = _mm256_set1_ps(coef[0]);                               \
        for (; e + 8 <= n; e += 8)                                            \
            store_h8(y16 + e, _mm256_add_ps(                                  \
                q16x8(_mm256_mul_ps(alpha, _mm256_loadu_ps(x + e))),          \
                _mm256_loadu_ps(cur + e)));                                   \
    } else {                                                                  \
        for (; e + 8 <= n; e += 8)                                            \
            store_h8(y16 + e, _mm256_loadu_ps(cur + e));                      \
    }

/* 8 rows (8k entries, k vectors) at a time: the 8 rows' scales in one
 * vector, permuted into each entry's lane by lanes[l] = l / k */
#define X8_DIAG_AVX2                                                          \
    if (n >= 8 && k > 0) {                                                    \
        int32_t *lanes = malloc((size_t)(8 * k) * sizeof(int32_t));           \
        if (!lanes)                                                           \
            return -1;                                                        \
        for (int64_t l = 0; l < 8 * k; l++)                                   \
            lanes[l] = (int32_t)(l / k);                                      \
        for (; i + 8 <= n; i += 8) {                                          \
            __m256 s = load_h8(scale + i);                                    \
            for (int64_t v = 0; v < k; v++) {                                 \
                __m256i to = _mm256_loadu_si256((const __m256i *)(lanes + 8 * v)); \
                int64_t at = i * k + 8 * v;                                   \
                store_h8(out + at, _mm256_mul_ps(_mm256_permutevar8x32_ps(s, to), \
                                                 load_h8(x + at)));           \
            }                                                                 \
        }                                                                     \
        free(lanes);                                                          \
    }

DEFINE_HALF_KERNELS(_avx2, AVX2_FN, q16_f16c, h2f_f16c, f2h_f16c,
                    row_sum_f16_avx2, lane_sums_f16_avx2, X8_TRSV_AVX2,
                    X8_SPMV_AVX2, X8_AXPY_AVX2, X8_EXPAND_AVX2, X8_NARROW_AVX2,
                    X8_WEIGHTED_AVX2, X8_RESIDUAL_AVX2, X8_STENCIL_AVX2,
                    X8_DIAG_AVX2)

/* Patterns in [lo, hi) of the 2^32 float32 bit patterns on which the F16C
 * round trip and q16 disagree: different bits on a non-NaN input, or a NaN
 * input that either one does not keep a NaN. */
AVX2_FN uint64_t quantize32_avx2_disagreements(uint64_t lo, uint64_t hi)
{
    uint64_t bad = 0;
    float in[8], out[8];
    for (uint64_t u = lo; u < hi; u += 8) {
        int m = hi - u < 8 ? (int)(hi - u) : 8;
        for (int l = 0; l < 8; l++)
            in[l] = float_of((uint32_t)(u + (l < m ? l : 0)));
        _mm256_storeu_ps(out, q16x8(_mm256_loadu_ps(in)));
        for (int l = 0; l < m; l++) {
            float want = q16(in[l]);
            if (in[l] != in[l])
                bad += out[l] == out[l] || want == want;
            else
                bad += bits_of(out[l]) != bits_of(want);
        }
    }
    return bad;
}
#endif

/* ------------------------------------------------------------------------ */
/* The fp32 and fp64 products                                                */
/*                                                                           */
/* A CSR product at fp32 or fp64 compute follows scipy's csr_matvec and     */
/* csr_matvecs, which `fast` runs: a row's sum starts from +0 and adds the   */
/* products a_ij x_j one by one in stored order; the fused residual starts   */
/* from y_i and subtracts them one by one (scipy adds (-a_ij) x_j, the same  */
/* bits).  Every product and every add rounds once.  The plan is the SELL-8  */
/* layout above, whose lane row keeps its terms in order with a gap after    */
/* its own accumulator blocks (the chunk's blocks are wider): lens[8c + l]   */
/* is lane l's term count (0 past `lanes`), and a lane adds exactly its      */
/* row's terms, so the padding never enters a sum (its -0.0 would turn a     */
/* residual of y_i = -0 into +0).  A one-lane chunk holds its row in order.  */
/*                                                                           */
/* SEQ_SUMS(vals, cols, x, k, chunk, lens, s) sets s[l] OP= lane l's terms   */
/* in order, for l < lanes of `chunk`.                                       */
/* ------------------------------------------------------------------------ */
#define SEQ_ADD(acc, p) ((acc) + (p))
#define SEQ_SUB(acc, p) ((acc) - (p))
/* a lane row's terms before its gap: the first and its own blocks' */
#define SEQ_HEAD(t) ((t) < 1 ? 0 : (t) < 9 ? 1 : 1 + ((t) - 1) / 8 * 8)

#define DEFINE_SEQ_SUMS(NAME, ATTR, T, OP, X8_SEQ)                            \
    ATTR static void NAME(const T *vals, const int32_t *cols, const T *x,     \
                          int64_t k, const int64_t *chunk,                    \
                          const int32_t *lens, T *s)                          \
    {                                                                         \
        int64_t off = chunk[0], slots = 1 + 8 * chunk[2];                     \
        if (chunk[1] == 1) {                                                  \
            T acc = s[0];                                                     \
            for (int64_t q = off; q < off + chunk[3]; q++)                    \
                acc = OP(acc, PLAIN_TERM(q));                                 \
            s[0] = acc;                                                       \
            return;                                                           \
        }                                                                     \
        X8_SEQ                                                                \
        for (int64_t l = 0; l < chunk[1]; l++) {                              \
            int64_t t = lens[l], head = SEQ_HEAD(t), i = 0;                   \
            T acc = s[l];                                                     \
            for (; i < head; i++)                                             \
                acc = OP(acc, PLAIN_TERM(off + 8 * i + l));                   \
            for (; i < t; i++)                                                \
                acc = OP(acc, PLAIN_TERM(off + 8 * (slots + i - head) + l));  \
            s[l] = acc;                                                       \
        }                                                                     \
    }

/* y = A x and r = y - A x (CSR, sequential) in T; SFX names the
 * instruction set, TS the dtype */
#define DEFINE_PLAIN_PRODUCTS(SFX, ATTR, T, TS, SEQ_ADD_SUMS, SEQ_SUB_SUMS)   \
ATTR int spmv_csr_##TS##SFX(int64_t nchunks, const int64_t *meta,             \
                            const int64_t *rows, const int32_t *cols,         \
                            const T *vals, const int32_t *lens, const T *x,   \
                            T *y, int64_t k)                                  \
{                                                                             \
    for (int64_t c = 0; c < nchunks; c++) {                                   \
        const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;              \
        for (int64_t j = 0; j < k; j++) {                                     \
            T s[8] = {0};                                                     \
            SEQ_ADD_SUMS(vals, cols, x + j, k, chunk, lens + 8 * c, s);       \
            for (int64_t l = 0; l < chunk[1]; l++)                            \
                y[rc[l] * k + j] = s[l];                                      \
        }                                                                     \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
ATTR int spmv_axpy_##TS##SFX(int64_t nchunks, const int64_t *meta,            \
                             const int64_t *rows, const int32_t *cols,        \
                             const T *vals, const int32_t *lens, const T *x,  \
                             const T *y, T *r, int64_t k)                     \
{                                                                             \
    for (int64_t c = 0; c < nchunks; c++) {                                   \
        const int64_t *chunk = meta + 4 * c, *rc = rows + 8 * c;              \
        for (int64_t j = 0; j < k; j++) {                                     \
            T s[8];                                                           \
            for (int l = 0; l < 8; l++)    /* every lane names a row */       \
                s[l] = y[rc[l] * k + j];                                      \
            SEQ_SUB_SUMS(vals, cols, x + j, k, chunk, lens + 8 * c, s);       \
            for (int64_t l = 0; l < chunk[1]; l++)                            \
                r[rc[l] * k + j] = s[l];                                      \
        }                                                                     \
    }                                                                         \
    return 0;                                                                 \
}                                                                             \
                                                                              \
/* One Richardson invocation of m steps in T (the fp16 sweep's recipe, with  \
 * the loop's fp32 / fp64 kernels): the residual by spmv_axpy on A's CSR     \
 * plan, step 0's residual v itself.  M's apply is the solve with the lower  \
 * plan, y_i scaled by scale_i when `scale` is not NULL, then the solve with \
 * the upper plan.  The update is z = (omega[s] mr) + z, each operation      \
 * rounded once, step 0 adding into the zero z so an update of -0 lands as   \
 * +0.  `buf` holds (3n + 2) k values: the residual, then y and mr, each     \
 * after the zero row its solve's padding reads. */                          \
ATTR int richardson_##TS##SFX(int64_t n, int64_t m, int64_t a_chunks,         \
                              const int64_t *a_meta, const int64_t *a_rows,   \
                              const int32_t *a_cols, const T *a_vals,         \
                              int64_t l_chunks, const int64_t *l_meta,        \
                              const int64_t *l_rows, const int32_t *l_cols,   \
                              const T *l_vals, const T *l_inv,                \
                              int64_t u_chunks, const int64_t *u_meta,        \
                              const int64_t *u_rows, const int32_t *u_cols,   \
                              const T *u_vals, const T *u_inv,                \
                              const T *scale, int64_t k,                      \
                              const int32_t *a_lens, const T *omega,          \
                              const T *v, T *z, T *buf)                       \
{                                                                             \
    int64_t size = n * k;                                                     \
    T *r = buf, *y = buf + size + k, *mr = buf + 2 * size + 2 * k;            \
    memset(y - k, 0, (size_t)k * sizeof(T));                                  \
    memset(mr - k, 0, (size_t)k * sizeof(T));                                 \
    memset(z, 0, (size_t)size * sizeof(T));                                   \
    for (int64_t s = 0; s < m; s++) {                                         \
        const T *res = v;                                                     \
        if (s > 0) {                                                          \
            spmv_axpy_##TS##SFX(a_chunks, a_meta, a_rows, a_cols, a_vals,     \
                                a_lens, z, v, r, k);                          \
            res = r;                                                          \
        }                                                                     \
        trsv_##TS##SFX(l_chunks, l_meta, l_rows, l_cols, l_vals, l_inv, res, y, \
                       k);                                                    \
        if (scale)                                                            \
            for (int64_t i = 0; i < n; i++)                                   \
                for (int64_t e = i * k; e < (i + 1) * k; e++)                 \
                    y[e] = y[e] * scale[i];                                   \
        trsv_##TS##SFX(u_chunks, u_meta, u_rows, u_cols, u_vals, u_inv, y, mr, \
                       k);                                                    \
        T w = omega[s];                                                       \
        for (int64_t e = 0; e < size; e++)                                    \
            z[e] = w * mr[e] + z[e];                                          \
    }                                                                         \
    return 0;                                                                 \
}

DEFINE_SEQ_SUMS(seq_add_f32, , float, SEQ_ADD, )
DEFINE_SEQ_SUMS(seq_sub_f32, , float, SEQ_SUB, )
DEFINE_SEQ_SUMS(seq_add_f64, , double, SEQ_ADD, )
DEFINE_SEQ_SUMS(seq_sub_f64, , double, SEQ_SUB, )
DEFINE_PLAIN_PRODUCTS(, , float, f32, seq_add_f32, seq_sub_f32)
DEFINE_PLAIN_PRODUCTS(, , double, f64, seq_add_f64, seq_sub_f64)

#ifdef HAVE_AVX2_SET
/* A lane chunk's 8 rows in the lanes: per slot one gather, each lane's
 * sum advanced by one operation.  Where some lane's row has no term at a
 * slot, the gather is masked to the lanes whose row has one and the step
 * blended, so the other lanes keep their bits.  The masks come from the
 * term counts: slot i is lane l's when i < head(l) (before the gap) or,
 * past the chunk's blocks, when i - slots < t(l) - head(l); every lane has
 * the slots below the smallest head and tail. */
#define SEQ_COUNTS8                                                           \
    __m256i t = _mm256_loadu_si256((const __m256i *)lens);                    \
    __m256i tm1 = _mm256_sub_epi32(t, _mm256_set1_epi32(1));                  \
    __m256i seven = _mm256_set1_epi32(7);                                     \
    __m256i head = _mm256_min_epi32(t, _mm256_add_epi32(                      \
        _mm256_and_si256(_mm256_cmpgt_epi32(tm1, seven),                      \
                         _mm256_andnot_si256(seven, tm1)),                    \
        _mm256_set1_epi32(1)));                                               \
    __m256i tail = _mm256_sub_epi32(t, head);                                 \
    int32_t h[8], r[8];                                                       \
    _mm256_storeu_si256((__m256i *)h, head);                                  \
    _mm256_storeu_si256((__m256i *)r, tail);                                  \
    int64_t all_head = h[0], all_tail = r[0];                                 \
    for (int l = 1; l < 8; l++) {                                             \
        all_head = h[l] < all_head ? h[l] : all_head;                         \
        all_tail = r[l] < all_tail ? r[l] : all_tail;                         \
    }

#define SEQ_INDEX8(q) __m256i idx = index8(cols, k, q);

#define SEQ_FULL8_F32(OPV, q)                                                 \
    {                                                                         \
        SEQ_INDEX8(q)                                                         \
        acc = OPV(acc, _mm256_mul_ps(_mm256_loadu_ps(vals + (q)),             \
                                     _mm256_i32gather_ps(x, idx, 4)));        \
    }

#define SEQ_STEP8_F32(OPV, count, i, q)                                       \
    {                                                                         \
        __m256 m = _mm256_castsi256_ps(_mm256_cmpgt_epi32(                    \
            count, _mm256_set1_epi32((int32_t)(i))));                         \
        SEQ_INDEX8(q)                                                         \
        __m256 p = _mm256_mul_ps(_mm256_loadu_ps(vals + (q)),                 \
            _mm256_mask_i32gather_ps(_mm256_setzero_ps(), x, idx, m, 4));     \
        acc = _mm256_blendv_ps(acc, OPV(acc, p), m);                          \
    }

/* the slots of the head, then of the tail: unmasked while every lane has
 * one */
#define SEQ_WALK8(FULL, STEP, OPV)                                            \
    int64_t i = 0;                                                            \
    for (; i < all_head; i++)                                                 \
        FULL(OPV, off + 8 * i)                                                \
    for (; i < slots; i++)                                                    \
        STEP(OPV, head, i, off + 8 * i)                                       \
    for (i = 0; i < all_tail; i++)                                            \
        FULL(OPV, off + 8 * (slots + i))                                      \
    for (; i < chunk[3]; i++)                                                 \
        STEP(OPV, tail, i, off + 8 * (slots + i))

#define X8_SEQ_F32(OPV)                                                       \
    {                                                                         \
        SEQ_COUNTS8                                                           \
        __m256 acc = _mm256_loadu_ps(s);                                      \
        SEQ_WALK8(SEQ_FULL8_F32, SEQ_STEP8_F32, OPV)                          \
        _mm256_storeu_ps(s, acc);                                             \
        return;                                                               \
    }

/* fp64: the 8 lanes as two vectors of 4 */
#define SEQ_HALF_F64(OPV, acc, m, idx, q)                                     \
    {                                                                         \
        __m256d p = _mm256_mul_pd(_mm256_loadu_pd(vals + (q)),                \
            _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx,             \
                                     _mm256_castsi256_pd(m), 8));             \
        acc = _mm256_blendv_pd(acc, OPV(acc, p), _mm256_castsi256_pd(m));     \
    }

#define SEQ_STEP8_F64(OPV, count, i, q)                                       \
    {                                                                         \
        __m256i m = _mm256_cmpgt_epi32(count, _mm256_set1_epi32((int32_t)(i))); \
        SEQ_INDEX8(q)                                                         \
        SEQ_HALF_F64(OPV, lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m)), \
                     _mm256_castsi256_si128(idx), q)                          \
        SEQ_HALF_F64(OPV, hi,                                                 \
                     _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m, 1)),   \
                     _mm256_extracti128_si256(idx, 1), (q) + 4)               \
    }

#define SEQ_FULL8_F64(OPV, q)                                                 \
    {                                                                         \
        SEQ_INDEX8(q)                                                         \
        lo = OPV(lo, _mm256_mul_pd(_mm256_loadu_pd(vals + (q)),               \
            _mm256_i32gather_pd(x, _mm256_castsi256_si128(idx), 8)));         \
        hi = OPV(hi, _mm256_mul_pd(_mm256_loadu_pd(vals + (q) + 4),           \
            _mm256_i32gather_pd(x, _mm256_extracti128_si256(idx, 1), 8)));    \
    }

#define X8_SEQ_F64(OPV)                                                       \
    {                                                                         \
        SEQ_COUNTS8                                                           \
        __m256d lo = _mm256_loadu_pd(s), hi = _mm256_loadu_pd(s + 4);         \
        SEQ_WALK8(SEQ_FULL8_F64, SEQ_STEP8_F64, OPV)                          \
        _mm256_storeu_pd(s, lo);                                              \
        _mm256_storeu_pd(s + 4, hi);                                          \
        return;                                                               \
    }

DEFINE_SEQ_SUMS(seq_add_f32_avx2, AVX2_FN, float, SEQ_ADD,
                X8_SEQ_F32(_mm256_add_ps))
DEFINE_SEQ_SUMS(seq_sub_f32_avx2, AVX2_FN, float, SEQ_SUB,
                X8_SEQ_F32(_mm256_sub_ps))
DEFINE_SEQ_SUMS(seq_add_f64_avx2, AVX2_FN, double, SEQ_ADD,
                X8_SEQ_F64(_mm256_add_pd))
DEFINE_SEQ_SUMS(seq_sub_f64_avx2, AVX2_FN, double, SEQ_SUB,
                X8_SEQ_F64(_mm256_sub_pd))
DEFINE_PLAIN_PRODUCTS(_avx2, AVX2_FN, float, f32, seq_add_f32_avx2,
                      seq_sub_f32_avx2)
DEFINE_PLAIN_PRODUCTS(_avx2, AVX2_FN, double, f64, seq_add_f64_avx2,
                      seq_sub_f64_avx2)
#endif
