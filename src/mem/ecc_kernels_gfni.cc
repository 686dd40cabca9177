/**
 * @file
 * GFNI + AVX-512BW tier of the SECDED vector helpers (mem/ecc.hh).
 *
 * A word's 8 Hamming bits are a GF(2)-linear function of its 128 data
 * bits, and each data byte's share is an 8x8 bit matrix applied to
 * that byte; vgf2p8affineqb applies one such matrix per qword to each
 * of its bytes. A 512-bit load holds four words, so its eight qwords
 * alternate word bytes 0-7 and 8-15: op p, masked to byte p of every
 * qword, transforms word bytes p and 8+p, and the XOR of eight such
 * ops transforms every byte by its own matrix. XOR-folding each 128-bit
 * lane leaves the syndrome in byte 0. The overall parity covers data
 * and Hamming bits, so it is the parity of the folded data bytes XOR
 * the folded syndrome: one more affine op, whose only row is 0xFF.
 * Five such steps cover a vector's 20 words.
 *
 * The matrices come from ecc.cc, which builds them from the scalar
 * code's position tables. Nothing here runs at static
 * initialisation: this is the only TU built with -mgfni -mavx512f
 * -mavx512bw, and a 512-bit constant built before main would fault
 * on a host without AVX-512. The entry points take raw pointers, so
 * no library template is instantiated here with those flags (it
 * could be linked into baseline callers). Callers gate on
 * simdKernelsEnabled() && cpuHasGfniAvx512().
 */

#include "mem/ecc.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GFNI__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace tsp::simd {

namespace {

/** Selects the 20 16-bit code elements of a packed register. */
constexpr __mmask32 kCodeMask = (1u << kSuperlanes) - 1;

/** @return @p v with each 128-bit lane's 16 bytes XORed into byte 0. */
inline __m512i
foldLanes(__m512i v)
{
    v = _mm512_xor_si512(v, _mm512_bsrli_epi128(v, 8));
    v = _mm512_xor_si512(v, _mm512_bsrli_epi128(v, 4));
    v = _mm512_xor_si512(v, _mm512_bsrli_epi128(v, 2));
    return _mm512_xor_si512(v, _mm512_bsrli_epi128(v, 1));
}

/** @return the codes of the 20 words at @p bytes, in elements 0..19. */
inline __m512i
codes20(const std::uint8_t *bytes, const std::uint64_t *ops)
{
    __m512i m[8];
    for (int p = 0; p < 8; ++p)
        m[p] = _mm512_loadu_si512(ops + 8 * p);
    // Output bit 0 reads matrix byte 7: the parity of the input byte.
    const __m512i parity_row =
        _mm512_set1_epi64(static_cast<long long>(0xff00000000000000ull));
    // Element e of the packed codes is element 0 of lane e % 4.
    const __m512i pack = _mm512_set_epi16(
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 16, 8, 0, 24, 16, 8, 0,
        24, 16, 8, 0, 24, 16, 8, 0, 24, 16, 8, 0);
    __m512i codes = _mm512_setzero_si512();
    for (int g = 0; g < kSuperlanes / 4; ++g) {
        const __m512i x = _mm512_loadu_si512(bytes + 64 * g);
        __m512i t[8];
        for (int p = 0; p < 8; ++p) {
            t[p] = _mm512_maskz_gf2p8affine_epi64_epi8(
                0x0101010101010101ull << p, x, m[p], 0);
        }
        // A XOR tree (0x96: a ^ b ^ c), not a chain of merge-masked
        // ops: the chain's latency made the kernel ~25% slower.
        __m512i syn = _mm512_ternarylogic_epi64(
            _mm512_ternarylogic_epi64(t[0], t[1], t[2], 0x96),
            _mm512_ternarylogic_epi64(t[3], t[4], t[5], 0x96),
            _mm512_xor_si512(t[6], t[7]), 0x96);
        const __m512i par = _mm512_gf2p8affine_epi64_epi8(
            foldLanes(_mm512_xor_si512(syn, x)), parity_row, 0);
        syn = foldLanes(syn);
        // Element 0 of each lane: syndrome in bits 0-7, parity in 8.
        const __m512i code = _mm512_mask_blend_epi8(
            0x0002000200020002ull, syn, _mm512_slli_epi16(par, 8));
        codes = _mm512_mask_permutexvar_epi16(
            codes, static_cast<__mmask32>(0xfu << (4 * g)), pack, code);
    }
    return codes;
}

} // namespace

bool
eccComputeGfni(const std::uint8_t *bytes, std::uint16_t *codes,
               const std::uint64_t *ops)
{
    _mm512_mask_storeu_epi16(codes, kCodeMask, codes20(bytes, ops));
    return true;
}

bool
eccDiffersGfni(const std::uint8_t *bytes, const std::uint16_t *codes,
               const std::uint64_t *ops, std::uint32_t *differs)
{
    const __m512i stored = _mm512_maskz_loadu_epi16(kCodeMask, codes);
    *differs = _mm512_mask_cmpneq_epi16_mask(kCodeMask,
                                             codes20(bytes, ops), stored);
    return true;
}

} // namespace tsp::simd

#else // !x86 or the TU was built without -mgfni -mavx512bw

namespace tsp::simd {

bool
eccComputeGfni(const std::uint8_t *, std::uint16_t *,
               const std::uint64_t *)
{
    return false;
}

bool
eccDiffersGfni(const std::uint8_t *, const std::uint16_t *,
               const std::uint64_t *, std::uint32_t *)
{
    return false;
}

} // namespace tsp::simd

#endif
