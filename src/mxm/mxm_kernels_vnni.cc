/**
 * @file
 * AVX-512 VNNI kernels for the MXM int8 activation broadcast, a
 * window of ticks at once, and for the row sums it needs.
 *
 * vpdpbusd computes 64 u8*s8 products per instruction with exact
 * int32 accumulation (no int16 saturation, unlike maddubs), but one
 * operand must be unsigned. Activations are signed, so they are
 * biased into u8 by XOR 0x80 (== +128) and the per-row excess
 * 128 * sum(w[r][*]) is subtracted after the reduction. Every
 * intermediate fits int32 (|dot| <= 320*255*127 < 2^31) and the
 * correction is done in uint32 arithmetic, so the result equals the
 * scalar loop's wrapping int32 sum bit-for-bit.
 *
 * This is the only TU compiled with -mavx512vnni; callers gate on
 * tsp::simdKernelsEnabled() && tsp::cpuHasAvx512Vnni().
 */

#include "mxm/mxm_kernels.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    defined(__AVX512VNNI__)

#include <immintrin.h>

namespace tsp::simd {

namespace {

/**
 * Transposed reduction of four 16-lane int32 accumulators into one
 * __m128i of [sum(s0), sum(s1), sum(s2), sum(s3)], wrapping mod 2^32.
 * Integer adds are associative mod 2^32, so the shuffle-tree order is
 * as exact as any other. This runs once per four rows of an
 * activation outside a 4-activation tile — a scalar spill of each
 * row's lanes costs ~20 ops plus a store-forward stall per row.
 */
inline __m128i
hsum4Epi32(__m512i s0, __m512i s1, __m512i s2, __m512i s3)
{
    // All-ones maskz_ extracts: the same instruction as the unmasked
    // form, whose header placeholder GCC 12 flags as uninitialized.
    const __m256i q0 = _mm256_add_epi32(
        _mm512_maskz_extracti64x4_epi64(0xff, s0, 0),
        _mm512_maskz_extracti64x4_epi64(0xff, s0, 1));
    const __m256i q1 = _mm256_add_epi32(
        _mm512_maskz_extracti64x4_epi64(0xff, s1, 0),
        _mm512_maskz_extracti64x4_epi64(0xff, s1, 1));
    const __m256i q2 = _mm256_add_epi32(
        _mm512_maskz_extracti64x4_epi64(0xff, s2, 0),
        _mm512_maskz_extracti64x4_epi64(0xff, s2, 1));
    const __m256i q3 = _mm256_add_epi32(
        _mm512_maskz_extracti64x4_epi64(0xff, s3, 0),
        _mm512_maskz_extracti64x4_epi64(0xff, s3, 1));
    // hadd interleaves per 128-bit lane: after two rounds each lane
    // holds one partial per source, and the cross-lane add finishes.
    const __m256i h01 = _mm256_hadd_epi32(q0, q1);
    const __m256i h23 = _mm256_hadd_epi32(q2, q3);
    const __m256i h = _mm256_hadd_epi32(h01, h23);
    return _mm_add_epi32(_mm256_extracti128_si256(h, 0),
                         _mm256_extracti128_si256(h, 1));
}

/**
 * Reduces a 4-row x 4-activation tile of partial sums s<row><act> to
 * its 16 dot products, with 128-bit lane j holding activation j's
 * rows 0..3 in order: pairs of sources first share a register (each
 * keeps 8, then 4 partials), then the last two levels add within
 * each 128-bit lane: 30 shuffles for 16 sums, half as many per sum
 * as hsum4Epi32's extracts and hadds.
 */
inline __m512i
hsum16Epi32(__m512i s00, __m512i s01, __m512i s02, __m512i s03,
            __m512i s10, __m512i s11, __m512i s12, __m512i s13,
            __m512i s20, __m512i s21, __m512i s22, __m512i s23,
            __m512i s30, __m512i s31, __m512i s32, __m512i s33)
{
    // All-ones maskz_ forms throughout, as in hsum4Epi32.
    // [x x y y]: 128-bit lanes 0-1 hold x's partials, 2-3 y's.
    const auto pair = [](__m512i x, __m512i y) {
        return _mm512_add_epi32(_mm512_maskz_shuffle_i64x2(0xff, x, y, 0x44),
                                _mm512_maskz_shuffle_i64x2(0xff, x, y, 0xee));
    };
    // [x y z w]: lane j holds four partials of the j-th source.
    const auto quad = [](__m512i xy, __m512i zw) {
        return _mm512_add_epi32(
            _mm512_maskz_shuffle_i64x2(0xff, xy, zw, 0x88),
            _mm512_maskz_shuffle_i64x2(0xff, xy, zw, 0xdd));
    };
    const __m512i r0 = quad(pair(s00, s01), pair(s02, s03));
    const __m512i r1 = quad(pair(s10, s11), pair(s12, s13));
    const __m512i r2 = quad(pair(s20, s21), pair(s22, s23));
    const __m512i r3 = quad(pair(s30, s31), pair(s32, s33));
    // Per lane: [r0 r1 r0 r1] partials, then [r0 r1 r2 r3] sums.
    const auto rows = [](__m512i a, __m512i b) {
        return _mm512_add_epi32(_mm512_maskz_unpacklo_epi32(0xffff, a, b),
                                _mm512_maskz_unpackhi_epi32(0xffff, a, b));
    };
    const __m512i p01 = rows(r0, r1);
    const __m512i p23 = rows(r2, r3);
    return _mm512_add_epi32(_mm512_maskz_unpacklo_epi64(0xff, p01, p23),
                            _mm512_maskz_unpackhi_epi64(0xff, p01, p23));
}

inline __m512i
load64(const void *p)
{
    return _mm512_loadu_si512(p);
}

inline __m128i
load16(const std::int32_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline void
store16(std::int32_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

/**
 * Writes @p blocks 64-byte blocks of the activations at @p act to
 * @p out, biased into u8 (XOR 0x80) once for every row to reuse.
 */
inline void
biasActs(std::uint8_t *out, const std::uint8_t *act, int blocks)
{
    const __m512i bias = _mm512_set1_epi8(-128);
    for (int i = 0; i < blocks; ++i) {
        _mm512_storeu_si512(out + 64 * i,
                            _mm512_xor_si512(load64(act + 64 * i), bias));
    }
}

/** @return 128 * row_sums[0..3], the u8-bias excess of four rows. */
inline __m128i
excess4(const std::int32_t *row_sums)
{
    return _mm_slli_epi32(load16(row_sums), 7);
}

/**
 * Stores four rows' dot products: the transposed sums @p sums minus
 * the u8-bias excess, added to @p acc when accumulating. epi32
 * adds/subs wrap exactly like the scalar uint32 arithmetic they
 * replace. The row sums cover all n columns, which equals the
 * block's columns (the rest are 0).
 */
inline void
store4(std::int32_t *acc, __m128i sums, __m128i excess, bool accumulate)
{
    __m128i dot = _mm_sub_epi32(sums, excess);
    if (accumulate)
        dot = _mm_add_epi32(dot, load16(acc));
    store16(acc, dot);
}

/**
 * One biased activation's dot products with the four rows at @p w0
 * (@p stride apart) over @p blocks 64-column blocks. Four
 * independent accumulator chains keep the dot-product unit busy
 * across vpdpbusd's latency.
 */
inline __m128i
dot4x1(const std::int8_t *w0, int stride, const std::uint8_t *biased,
       int blocks)
{
    const std::int8_t *w1 = w0 + stride;
    const std::int8_t *w2 = w1 + stride;
    const std::int8_t *w3 = w2 + stride;
    __m512i s0 = _mm512_setzero_si512();
    __m512i s1 = _mm512_setzero_si512();
    __m512i s2 = _mm512_setzero_si512();
    __m512i s3 = _mm512_setzero_si512();
    for (int i = 0; i < blocks; ++i) {
        const __m512i av = load64(biased + 64 * i);
        s0 = _mm512_dpbusd_epi32(s0, av, load64(w0 + 64 * i));
        s1 = _mm512_dpbusd_epi32(s1, av, load64(w1 + 64 * i));
        s2 = _mm512_dpbusd_epi32(s2, av, load64(w2 + 64 * i));
        s3 = _mm512_dpbusd_epi32(s3, av, load64(w3 + 64 * i));
    }
    return hsum4Epi32(s0, s1, s2, s3);
}

/**
 * The 4-row x 4-activation tile at rows w0.. (@p stride apart) and
 * biased activations a0.. (@p as apart): stores the 16 dot products
 * minus the rows' bias excess @p excess (one copy per 128-bit lane)
 * into accumulator rows c0.. (@p cs apart).
 */
inline void
tile4x4(const std::int8_t *w0, int stride, const std::uint8_t *a0,
        std::size_t as, int blocks, __m512i excess, std::int32_t *c0,
        std::size_t cs, bool accumulate)
{
    const std::int8_t *w1 = w0 + stride;
    const std::int8_t *w2 = w1 + stride;
    const std::int8_t *w3 = w2 + stride;
    const std::uint8_t *a1 = a0 + as;
    const std::uint8_t *a2 = a1 + as;
    const std::uint8_t *a3 = a2 + as;
    // Sixteen named accumulators, s<row><activation>: GCC 12 keeps
    // these in registers, where an array of them was spilled to the
    // stack.
    __m512i s00 = _mm512_setzero_si512(), s01 = _mm512_setzero_si512();
    __m512i s02 = _mm512_setzero_si512(), s03 = _mm512_setzero_si512();
    __m512i s10 = _mm512_setzero_si512(), s11 = _mm512_setzero_si512();
    __m512i s12 = _mm512_setzero_si512(), s13 = _mm512_setzero_si512();
    __m512i s20 = _mm512_setzero_si512(), s21 = _mm512_setzero_si512();
    __m512i s22 = _mm512_setzero_si512(), s23 = _mm512_setzero_si512();
    __m512i s30 = _mm512_setzero_si512(), s31 = _mm512_setzero_si512();
    __m512i s32 = _mm512_setzero_si512(), s33 = _mm512_setzero_si512();
    for (int i = 0; i < blocks; ++i) {
        const int c = 64 * i;
        const __m512i x0 = load64(a0 + c);
        const __m512i x1 = load64(a1 + c);
        const __m512i x2 = load64(a2 + c);
        const __m512i x3 = load64(a3 + c);
        const __m512i v0 = load64(w0 + c);
        s00 = _mm512_dpbusd_epi32(s00, x0, v0);
        s01 = _mm512_dpbusd_epi32(s01, x1, v0);
        s02 = _mm512_dpbusd_epi32(s02, x2, v0);
        s03 = _mm512_dpbusd_epi32(s03, x3, v0);
        const __m512i v1 = load64(w1 + c);
        s10 = _mm512_dpbusd_epi32(s10, x0, v1);
        s11 = _mm512_dpbusd_epi32(s11, x1, v1);
        s12 = _mm512_dpbusd_epi32(s12, x2, v1);
        s13 = _mm512_dpbusd_epi32(s13, x3, v1);
        const __m512i v2 = load64(w2 + c);
        s20 = _mm512_dpbusd_epi32(s20, x0, v2);
        s21 = _mm512_dpbusd_epi32(s21, x1, v2);
        s22 = _mm512_dpbusd_epi32(s22, x2, v2);
        s23 = _mm512_dpbusd_epi32(s23, x3, v2);
        const __m512i v3 = load64(w3 + c);
        s30 = _mm512_dpbusd_epi32(s30, x0, v3);
        s31 = _mm512_dpbusd_epi32(s31, x1, v3);
        s32 = _mm512_dpbusd_epi32(s32, x2, v3);
        s33 = _mm512_dpbusd_epi32(s33, x3, v3);
    }
    __m512i dots = _mm512_sub_epi32(
        hsum16Epi32(s00, s01, s02, s03, s10, s11, s12, s13, s20, s21,
                    s22, s23, s30, s31, s32, s33),
        excess);
    std::int32_t *c1 = c0 + cs;
    std::int32_t *c2 = c1 + cs;
    std::int32_t *c3 = c2 + cs;
    if (accumulate) {
        __m512i prev = _mm512_zextsi128_si512(load16(c0));
        prev = _mm512_inserti32x4(prev, load16(c1), 1);
        prev = _mm512_inserti32x4(prev, load16(c2), 2);
        prev = _mm512_inserti32x4(prev, load16(c3), 3);
        dots = _mm512_add_epi32(dots, prev);
    }
    store16(c0, _mm512_maskz_extracti32x4_epi32(0xf, dots, 0));
    store16(c1, _mm512_maskz_extracti32x4_epi32(0xf, dots, 1));
    store16(c2, _mm512_maskz_extracti32x4_epi32(0xf, dots, 2));
    store16(c3, _mm512_maskz_extracti32x4_epi32(0xf, dots, 3));
}

/** Zeroes rows [from, n) of an overwritten accumulator. */
inline void
zeroPast(std::int32_t *acc, int from, int n)
{
    // A plain loop, not std::fill: a library template instantiated
    // in this ISA-flagged TU could be linked into baseline callers.
    for (int r = from; r < n; ++r)
        acc[r] = 0;
}

} // namespace

bool
mxmAbcInt8VnniWindow(const std::int8_t *w, int stride,
                     const std::uint8_t *act, int act_stride,
                     const std::int32_t *row_sums, std::int32_t *acc,
                     int acc_stride, int k, int n, int rows, int cols,
                     bool accumulate)
{
    if (n % 64 != 0 || n > 320)
        return false;

    const int blocks = (cols + 63) / 64;
    const std::size_t bytes = 64 * static_cast<std::size_t>(blocks);
    const int rows4 = (rows + 3) & ~3;
    const std::size_t as = static_cast<std::size_t>(act_stride);
    const std::size_t cs = static_cast<std::size_t>(acc_stride);
    // Up to 64 activations at a time, biased once for every row.
    constexpr int kChunk = 64;
    alignas(64) std::uint8_t biased[kChunk * 320];
    for (int j0 = 0; j0 < k; j0 += kChunk) {
        const int kc = k - j0 < kChunk ? k - j0 : kChunk;
        for (int j = 0; j < kc; ++j) {
            biasActs(biased + static_cast<std::size_t>(j) * bytes,
                     act + static_cast<std::size_t>(j0 + j) * as, blocks);
        }
        std::int32_t *chunk = acc + static_cast<std::size_t>(j0) * cs;
        // Rows outer, activations inner: a group's four weight rows
        // stay in L1 across the chunk's activations, which stay in L1
        // across the row groups, so each weight is read from L2 once
        // per chunk.
        for (int r = 0; r < rows4; r += 4) {
            const std::int8_t *w0 =
                w + static_cast<std::size_t>(r) * stride;
            const __m128i excess = excess4(row_sums + r);
            const __m512i excess16 =
                _mm512_maskz_broadcast_i32x4(0xffff, excess);
            int j = 0;
            for (; j + 4 <= kc; j += 4) {
                tile4x4(w0, stride,
                        biased + static_cast<std::size_t>(j) * bytes,
                        bytes, blocks, excess16,
                        chunk + static_cast<std::size_t>(j) * cs + r, cs,
                        accumulate);
            }
            // The chunk's last kc % 4 activations, one at a time.
            for (; j < kc; ++j) {
                store4(chunk + static_cast<std::size_t>(j) * cs + r,
                       dot4x1(w0, stride,
                              biased + static_cast<std::size_t>(j) * bytes,
                              blocks),
                       excess, accumulate);
            }
        }
    }
    if (!accumulate) {
        for (int j = 0; j < k; ++j)
            zeroPast(acc + static_cast<std::size_t>(j) * cs, rows4, n);
    }
    return true;
}

bool
mxmRowSumsVnni(const std::int8_t *w, int stride,
               const std::uint8_t *ext, int block, int n, int rows,
               std::int32_t *sums)
{
    const __m512i ones = _mm512_set1_epi8(1);
    // Four rows per reduction, over the widest of their extents: a
    // row's weights past its own extent are zero, so the wider span
    // adds nothing to it.
    for (int r = 0; r < rows; r += 4) {
        const int group = rows - r < 4 ? rows - r : 4;
        int ecols = 0;
        for (int i = 0; i < group; ++i) {
            const int e = ext[r + i] * block;
            ecols = e > ecols ? e : ecols;
        }
        const int cols = ecols < n ? ecols : n;
        __m512i s[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                        _mm512_setzero_si512(), _mm512_setzero_si512()};
        for (int i = 0; i < group; ++i) {
            const std::int8_t *row =
                w + static_cast<std::size_t>(r + i) * stride;
            int c = 0;
            for (; c + 64 <= cols; c += 64)
                s[i] = _mm512_dpbusd_epi32(s[i], ones, load64(row + c));
            if (c < cols) {
                const __mmask64 tail = (__mmask64{1} << (cols - c)) - 1;
                s[i] = _mm512_dpbusd_epi32(
                    s[i], ones, _mm512_maskz_loadu_epi8(tail, row + c));
            }
        }
        alignas(16) std::int32_t out[4];
        _mm_store_si128(reinterpret_cast<__m128i *>(out),
                        hsum4Epi32(s[0], s[1], s[2], s[3]));
        for (int i = 0; i < group; ++i)
            sums[r + i] = out[i];
    }
    return true;
}

} // namespace tsp::simd

#else // !x86 or the TU was built without -mavx512vnni

namespace tsp::simd {

bool
mxmAbcInt8VnniWindow(const std::int8_t *, int, const std::uint8_t *, int,
                     const std::int32_t *, std::int32_t *, int, int, int,
                     int, int, bool)
{
    return false;
}

bool
mxmRowSumsVnni(const std::int8_t *, int, const std::uint8_t *, int, int,
               int, std::int32_t *)
{
    return false;
}

} // namespace tsp::simd

#endif
