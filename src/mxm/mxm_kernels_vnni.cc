/**
 * @file
 * AVX-512 VNNI kernel for the MXM int8 activation broadcast.
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
 * as exact as any other. This runs once per four rows on the hot ABC
 * path — a scalar spill of each row's lanes costs ~20 ops plus a
 * store-forward stall per row and dominated the kernel.
 */
inline __m128i
hsum4Epi32(__m512i s0, __m512i s1, __m512i s2, __m512i s3)
{
    const __m256i q0 = _mm256_add_epi32(
        _mm512_extracti64x4_epi64(s0, 0),
        _mm512_extracti64x4_epi64(s0, 1));
    const __m256i q1 = _mm256_add_epi32(
        _mm512_extracti64x4_epi64(s1, 0),
        _mm512_extracti64x4_epi64(s1, 1));
    const __m256i q2 = _mm256_add_epi32(
        _mm512_extracti64x4_epi64(s2, 0),
        _mm512_extracti64x4_epi64(s2, 1));
    const __m256i q3 = _mm256_add_epi32(
        _mm512_extracti64x4_epi64(s3, 0),
        _mm512_extracti64x4_epi64(s3, 1));
    // hadd interleaves per 128-bit lane: after two rounds each lane
    // holds one partial per source, and the cross-lane add finishes.
    const __m256i h01 = _mm256_hadd_epi32(q0, q1);
    const __m256i h23 = _mm256_hadd_epi32(q2, q3);
    const __m256i h = _mm256_hadd_epi32(h01, h23);
    return _mm_add_epi32(_mm256_extracti128_si256(h, 0),
                         _mm256_extracti128_si256(h, 1));
}

} // namespace

bool
mxmAbcInt8Vnni(const std::int8_t *w, int stride,
               const std::uint8_t *act, const std::int32_t *row_sums,
               std::int32_t *acc, int n, int rows, int cols,
               bool accumulate)
{
    if (n % 64 != 0 || n > 320)
        return false;

    // The nonzero block rounded up to 64-column blocks and 4-row
    // groups; n % 64 == 0 keeps both inside the plane.
    const int blocks = (cols + 63) / 64;
    const int rows4 = (rows + 3) & ~3;

    // Bias the activations once; every row reuses them.
    __m512i a[5];
    const __m512i bias = _mm512_set1_epi8(-128);
    for (int i = 0; i < blocks; ++i) {
        a[i] = _mm512_xor_si512(
            _mm512_loadu_si512(
                reinterpret_cast<const void *>(act + 64 * i)),
            bias);
    }

    // Four independent accumulator chains per group of rows keep the
    // dot-product unit busy across vpdpbusd's latency.
    for (int r = 0; r < rows4; r += 4) {
        const std::int8_t *w0 =
            w + static_cast<std::size_t>(r) * stride;
        const std::int8_t *w1 = w0 + stride;
        const std::int8_t *w2 = w1 + stride;
        const std::int8_t *w3 = w2 + stride;
        __m512i s0 = _mm512_setzero_si512();
        __m512i s1 = _mm512_setzero_si512();
        __m512i s2 = _mm512_setzero_si512();
        __m512i s3 = _mm512_setzero_si512();
        for (int i = 0; i < blocks; ++i) {
            const __m512i av = a[i];
            s0 = _mm512_dpbusd_epi32(
                s0, av,
                _mm512_loadu_si512(
                    reinterpret_cast<const void *>(w0 + 64 * i)));
            s1 = _mm512_dpbusd_epi32(
                s1, av,
                _mm512_loadu_si512(
                    reinterpret_cast<const void *>(w1 + 64 * i)));
            s2 = _mm512_dpbusd_epi32(
                s2, av,
                _mm512_loadu_si512(
                    reinterpret_cast<const void *>(w2 + 64 * i)));
            s3 = _mm512_dpbusd_epi32(
                s3, av,
                _mm512_loadu_si512(
                    reinterpret_cast<const void *>(w3 + 64 * i)));
        }
        // [dot0..dot3] = transposed sums minus the u8-bias excess
        // 128 * row_sum; epi32 adds/subs wrap exactly like the scalar
        // uint32 arithmetic they replace. The row sums cover all n
        // columns, which equals the block's columns (the rest are 0).
        const __m128i sums = hsum4Epi32(s0, s1, s2, s3);
        const __m128i excess = _mm_slli_epi32(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row_sums + r)),
            7);
        __m128i dot = _mm_sub_epi32(sums, excess);
        if (accumulate) {
            dot = _mm_add_epi32(
                dot, _mm_loadu_si128(
                         reinterpret_cast<const __m128i *>(acc + r)));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(acc + r), dot);
    }
    // Rows past the block have all-zero weights (dot product 0).
    // A plain loop, not std::fill: a library template instantiated
    // in this ISA-flagged TU could be linked into baseline callers.
    if (!accumulate) {
        for (int r = rows4; r < n; ++r)
            acc[r] = 0;
    }
    return true;
}

} // namespace tsp::simd

#else // !x86 or the TU was built without -mavx512vnni

namespace tsp::simd {

bool
mxmAbcInt8Vnni(const std::int8_t *, int, const std::uint8_t *,
               const std::int32_t *, std::int32_t *, int, int, int,
               bool)
{
    return false;
}

} // namespace tsp::simd

#endif
