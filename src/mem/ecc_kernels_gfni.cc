/**
 * @file
 * GFNI + AVX-512BW/VBMI tier of the SECDED vector helpers
 * (mem/ecc.hh).
 *
 * A word's 8 Hamming bits are a GF(2)-linear function of its 128 data
 * bits, and each data byte's share is an 8x8 bit matrix applied to
 * that byte; vgf2p8affineqb applies one matrix per qword to each of
 * its bytes. So the kernel first transposes: for a group of eight
 * words (two 512-bit loads), one vpermt2b gathers byte j of every word
 * into qword j and a second gathers byte 8 + j, and one affine op per
 * half applies byte j's (and byte 8 + j's) matrix to all eight words
 * at once. XOR-folding the eight qwords leaves word w's syndrome in
 * byte w. The overall parity covers data and Hamming bits, so it is
 * the parity of the folded data bytes XOR the folded syndrome: one
 * more affine op, whose only row is 0xFF. A vector's 20 words are
 * groups of 8, 8 and 4 (the last with zero bytes for words 20-23);
 * the three groups' syndromes and parity inputs fold together in one
 * tree, and one last vpermt2b interleaves each word's syndrome and
 * parity bytes into its 16-bit code.
 *
 * The matrices come from ecc.cc, which builds them from the scalar
 * code's position tables; the byte-index tables below depend only on
 * the layout. Nothing here runs at static initialisation: this is
 * the only TU built with -mgfni -mavx512f -mavx512bw -mavx512vbmi,
 * and a 512-bit constant built before main would fault on a host
 * without AVX-512. The entry points take raw pointers, so no library
 * template is instantiated here with those flags (it could be linked
 * into baseline callers). Callers gate on simdKernelsEnabled() &&
 * cpuHasGfniAvx512().
 */

#include "mem/ecc.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GFNI__) && defined(__AVX512BW__) && defined(__AVX512VBMI__)

#include <array>

#include <immintrin.h>

namespace tsp::simd {

namespace {

/** Selects the 20 16-bit code elements of a packed register. */
constexpr __mmask32 kCodeMask = (1u << kSuperlanes) - 1;

/** Byte-index operands of the kernel's three vpermt2b ops. */
struct Indexes
{
    /**
     * Over a group's two loads (words 0-3, then 4-7): byte w of
     * qword j is word w's byte j (lo) or byte 8 + j (hi).
     */
    alignas(64) std::array<std::uint8_t, 64> lo{}, hi{};

    /**
     * Over the folded syndromes and parity bits (see codes20()):
     * bytes 2e and 2e + 1 are word e's syndrome and parity byte.
     */
    alignas(64) std::array<std::uint8_t, 64> pack{};

    constexpr Indexes()
    {
        for (int j = 0; j < 8; ++j) {
            for (int w = 0; w < 8; ++w) {
                lo[static_cast<std::size_t>(8 * j + w)] =
                    static_cast<std::uint8_t>(16 * w + j);
                hi[static_cast<std::size_t>(8 * j + w)] =
                    static_cast<std::uint8_t>(16 * w + 8 + j);
            }
        }
        for (int e = 0; e < kSuperlanes; ++e) {
            const int g = e / 8, w = e % 8;
            // Syndromes of group g: lane g of the first source.
            pack[static_cast<std::size_t>(2 * e)] =
                static_cast<std::uint8_t>(16 * g + w);
            // Parity bits: group 0 in the first source's lane 3,
            // groups 1 and 2 in the second source's lanes 0 and 1.
            pack[static_cast<std::size_t>(2 * e + 1)] =
                static_cast<std::uint8_t>(g == 0 ? 48 + w
                                                 : 64 + 16 * (g - 1) + w);
        }
    }
};

constexpr Indexes kIdx;

inline __m512i
load64(const void *p)
{
    return _mm512_loadu_si512(p);
}

/**
 * @return per 128-bit lane [x0 ^ x2, x1 ^ x3, y0 ^ y2, y1 ^ y3] of
 * the lanes of @p x and @p y: one fold step of two sources. (The
 * zero-masked shuffles with a full mask are the plain ones; GCC 12's
 * unmasked forms warn about an uninitialised operand.)
 */
inline __m512i
foldPair(__m512i x, __m512i y)
{
    return _mm512_xor_si512(_mm512_maskz_shuffle_i64x2(0xff, x, y, 0x44),
                            _mm512_maskz_shuffle_i64x2(0xff, x, y, 0xee));
}

/** @return lanes [x0 ^ x1, x2 ^ x3, y0 ^ y1, y2 ^ y3]. */
inline __m512i
foldQuad(__m512i x, __m512i y)
{
    return _mm512_xor_si512(_mm512_maskz_shuffle_i64x2(0xff, x, y, 0x88),
                            _mm512_maskz_shuffle_i64x2(0xff, x, y, 0xdd));
}

/** @return @p v with each lane's high qword XORed into its low one. */
inline __m512i
foldQwords(__m512i v)
{
    return _mm512_xor_si512(v, _mm512_bsrli_epi128(v, 8));
}

/** @return the codes of the 20 words at @p bytes, in elements 0..19. */
inline __m512i
codes20(const std::uint8_t *bytes, const std::uint64_t *ops)
{
    const __m512i m_lo = load64(ops);
    const __m512i m_hi = load64(ops + 8);
    const __m512i i_lo = load64(kIdx.lo.data());
    const __m512i i_hi = load64(kIdx.hi.data());
    // Per group g: syn[g] holds in qword j, byte w the syndrome share
    // of word w's bytes j and 8 + j; par[g] that share XOR the two
    // data bytes, whose fold is the parity input.
    __m512i syn[3], par[3];
    for (int g = 0; g < 3; ++g) {
        const __m512i a = load64(bytes + 128 * g);
        const __m512i b =
            g < 2 ? load64(bytes + 128 * g + 64) : _mm512_setzero_si512();
        const __m512i t_lo = _mm512_permutex2var_epi8(a, i_lo, b);
        const __m512i t_hi = _mm512_permutex2var_epi8(a, i_hi, b);
        syn[g] = _mm512_xor_si512(
            _mm512_gf2p8affine_epi64_epi8(t_lo, m_lo, 0),
            _mm512_gf2p8affine_epi64_epi8(t_hi, m_hi, 0));
        par[g] = _mm512_ternarylogic_epi64(t_lo, t_hi, syn[g], 0x96);
    }
    // Fold the six sources' eight qwords each: lanes of f0 end as
    // [syn0 syn1 syn2 par0], of f1 as [par1 par2 par1 par2], each
    // lane's low qword holding one byte per word.
    const __m512i f0 = foldQwords(foldQuad(foldPair(syn[0], syn[1]),
                                           foldPair(syn[2], par[0])));
    const __m512i f12 = foldPair(par[1], par[2]);
    const __m512i f1 = foldQwords(foldQuad(f12, f12));
    // Output bit 0 reads matrix byte 7: the parity of the input byte.
    const __m512i parity_row =
        _mm512_set1_epi64(static_cast<long long>(0xff00000000000000ull));
    const __m512i p0 = _mm512_gf2p8affine_epi64_epi8(f0, parity_row, 0);
    const __m512i p1 = _mm512_gf2p8affine_epi64_epi8(f1, parity_row, 0);
    // Syndromes in f0's lanes 0-2, parity bits in p0's lane 3 and
    // p1's lanes 0-1: interleave them into 16-bit codes.
    return _mm512_permutex2var_epi8(_mm512_mask_blend_epi64(0xc0, f0, p0),
                                    load64(kIdx.pack.data()), p1);
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

#else // !x86 or the TU was built without its ISA flags

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
