#include "mxm/mxm_kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace tsp::simd {

namespace {

/** Sum of the eight int32 elements, wrapping mod 2^32. */
inline std::int32_t
hsumEpi32(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e)); // [2,3,0,1]
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1)); // [1,0,3,2]
    return _mm_cvtsi128_si32(s);
}

} // namespace

bool
mxmAbcInt8Avx2(const std::int8_t *w, int stride,
               const std::uint8_t *act, std::int32_t *acc, int n,
               int rows, int cols, bool accumulate)
{
    if (n % 32 != 0 || n > 320)
        return false;

    // Widen the block's activations once; every row reuses them. 320
    // lanes is 10 chunks of 32 int8, each widened to two int16
    // vectors; n % 32 == 0 keeps the rounded-up block in the plane.
    __m256i a16[20];
    const int chunks = (cols + 31) / 32;
    for (int i = 0; i < chunks; ++i) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(act + 32 * i));
        a16[2 * i] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a));
        a16[2 * i + 1] =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a, 1));
    }

    for (int r = 0; r < rows; ++r) {
        const std::int8_t *wrow =
            w + static_cast<std::size_t>(r) * stride;
        __m256i sum = _mm256_setzero_si256();
        for (int i = 0; i < chunks; ++i) {
            const __m256i wv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(wrow + 32 * i));
            const __m256i wlo =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
            const __m256i whi = _mm256_cvtepi8_epi16(
                _mm256_extracti128_si256(wv, 1));
            // Products fit int16*int16 -> int32 pairs exactly; int32
            // adds wrap just like the scalar accumulation.
            sum = _mm256_add_epi32(sum,
                                   _mm256_madd_epi16(wlo, a16[2 * i]));
            sum = _mm256_add_epi32(
                sum, _mm256_madd_epi16(whi, a16[2 * i + 1]));
        }
        const std::int32_t s = hsumEpi32(sum);
        if (accumulate)
            acc[r] += s;
        else
            acc[r] = s;
    }
    // Rows past the block have all-zero weights (dot product 0). A
    // plain loop, not std::fill: a library template instantiated in
    // this ISA-flagged TU could be linked into baseline callers.
    if (!accumulate) {
        for (int r = rows; r < n; ++r)
            acc[r] = 0;
    }
    return true;
}

bool
mxmAbcF16Avx2(const float *wCols, int stride, const float *act,
              float *acc, int n, bool accumulate)
{
    if (n % 8 != 0 || n > 320)
        return false;

    // Eight rows at a time over the column-major weight image; mul
    // and add rounded separately (no FMA) in the scalar loop's
    // column order — see mxm_kernels.hh for the bit-identity
    // contract.
    for (int r = 0; r < n; r += 8) {
        __m256 sum = _mm256_setzero_ps();
        const float *wc = wCols + r;
        for (int c = 0; c < n; ++c) {
            const __m256 w = _mm256_loadu_ps(
                wc + static_cast<std::size_t>(c) * stride);
            const __m256 p = _mm256_mul_ps(w, _mm256_set1_ps(act[c]));
            sum = _mm256_add_ps(sum, p);
        }
        if (accumulate) {
            const __m256 prev = _mm256_loadu_ps(acc + r);
            sum = _mm256_add_ps(prev, sum);
        }
        _mm256_storeu_ps(acc + r, sum);
    }
    return true;
}

} // namespace tsp::simd

#else // !x86

namespace tsp::simd {

bool
mxmAbcInt8Avx2(const std::int8_t *, int, const std::uint8_t *,
               std::int32_t *, int, int, int, bool)
{
    return false;
}

bool
mxmAbcF16Avx2(const float *, int, const float *, float *, int, bool)
{
    return false;
}

} // namespace tsp::simd

#endif
