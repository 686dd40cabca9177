/**
 * @file
 * AVX-512F kernels for the MXM plane: the fp16-mode activation
 * broadcast and the ACC drain's byte planes (see mxm_kernels.hh for
 * their contracts). This is the only MXM TU compiled with -mavx512f
 * alone; selection is a runtime cpuid decision (common/cpu.hh).
 */

#include "mxm/mxm_kernels.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX512F__)

#include <immintrin.h>

namespace tsp::simd {

bool
mxmAbcF16Avx512(const float *wCols, int stride, const float *act,
                float *acc, int n, bool accumulate)
{
    if (n % 16 != 0 || n > 320)
        return false;

    // Sixteen rows at a time: the column-major weight image makes
    // one column's rows contiguous, so each c-step is a load, a
    // broadcast multiply, and an add — mul and add rounded
    // separately, exactly the scalar term order per row.
    for (int r = 0; r < n; r += 16) {
        __m512 sum = _mm512_setzero_ps();
        const float *wc = wCols + r;
        for (int c = 0; c < n; ++c) {
            const __m512 w = _mm512_loadu_ps(
                wc + static_cast<std::size_t>(c) * stride);
            const __m512 p = _mm512_mul_ps(w, _mm512_set1_ps(act[c]));
            sum = _mm512_add_ps(sum, p);
        }
        if (accumulate) {
            const __m512 prev = _mm512_loadu_ps(acc + r);
            sum = _mm512_add_ps(prev, sum);
        }
        _mm512_storeu_ps(acc + r, sum);
    }
    return true;
}

bool
accBytePlanesAvx512(const void *row, int n, int width,
                    std::uint8_t *const *planes)
{
    if (width % 16 != 0 || n > width)
        return false;
    const auto *src = static_cast<const std::int32_t *>(row);
    // Lanes past n load as zero, so one loop also zero-fills the
    // planes up to the width. vpmovdb keeps each lane's low byte.
    // All-ones maskz_ forms: the same instructions as the unmasked
    // ones, whose header placeholder GCC 12 flags as uninitialized.
    const __mmask16 all = 0xffff;
    const auto plane = [all](__m512i v, unsigned shift) {
        return _mm512_maskz_cvtepi32_epi8(
            all, _mm512_maskz_srli_epi32(all, v, shift));
    };
    for (int l = 0; l < width; l += 16) {
        const int left = n - l;
        const __mmask16 live =
            left >= 16 ? all
                       : static_cast<__mmask16>(left > 0 ? (1u << left) - 1
                                                         : 0);
        const __m512i v = _mm512_maskz_loadu_epi32(live, src + l);
        for (int k = 0; k < 4; ++k) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(planes[k] + l),
                             plane(v, 8u * static_cast<unsigned>(k)));
        }
    }
    return true;
}

} // namespace tsp::simd

#else // !x86 or no AVX-512F support in the toolchain

namespace tsp::simd {

bool
mxmAbcF16Avx512(const float *, int, const float *, float *, int, bool)
{
    return false;
}

bool
accBytePlanesAvx512(const void *, int, int, std::uint8_t *const *)
{
    return false;
}

} // namespace tsp::simd

#endif
