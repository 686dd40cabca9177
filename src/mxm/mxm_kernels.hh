/**
 * @file
 * Kernels for the MXM plane's activation broadcast (MxmPlane::stepAbc)
 * — the hottest loop in whole-chip simulation of dense networks
 * (320x320 MACs per active plane per cycle).
 *
 * The int8 tiers (scalar, AVX2, AVX-512 VNNI) compute only the
 * installed weights' nonzero block, which MxmPlane tracks at weight
 * install; every tier is bit-identical to the full-plane scalar loop
 * because int32 accumulation wraps mod 2^32, so neither the reduction
 * order nor the omitted zero products change a result. Callers gate
 * the vector tiers on tsp::simdKernelsEnabled() (common/cpu.hh); their
 * definitions live in mxm_kernels_{avx2,vnni,f16}.cc, the only TUs
 * compiled with the matching ISA flags (the scalar tier has its own
 * baseline-ISA TU, so no ISA-flagged copy of it can be linked in).
 */

#ifndef TSP_MXM_MXM_KERNELS_HH
#define TSP_MXM_MXM_KERNELS_HH

#include <cstdint>

namespace tsp::simd {

/**
 * One int8 ABC cycle's dot products over the nonzero block of an
 * n x n weight plane. The caller guarantees that every weight outside
 * rows [0, @p rows) x columns [0, @p cols) is zero
 * (0 <= rows, cols <= n), so for each row r < n
 *   acc[r] (+)= sum_{c<n} w[r*stride + c] * (int8)act[c]
 * (accumulate selects += vs =) — the full-plane result — while only
 * the block is computed: rows past it are set to 0, or left as they
 * are when accumulating, and columns past it add nothing. A vector
 * tier may round the block up to its own row/column blocking; the
 * extra weights are zero.
 */
void mxmAbcInt8Scalar(const std::int8_t *w, int stride,
                      const std::uint8_t *act, std::int32_t *acc,
                      int n, int rows, int cols, bool accumulate);

/**
 * AVX2 tier of mxmAbcInt8Scalar (32-column chunks).
 *
 * @return false when this (n) has no vector path (n % 32 != 0) — the
 * caller must run the scalar tier instead.
 */
bool mxmAbcInt8Avx2(const std::int8_t *w, int stride,
                    const std::uint8_t *act, std::int32_t *acc, int n,
                    int rows, int cols, bool accumulate);

/**
 * AVX-512 VNNI tier of mxmAbcInt8Scalar (64-column blocks, 4-row
 * groups): vpdpbusd needs one unsigned operand, so activations are
 * biased by +128 (a XOR 0x80) and the per-row correction
 * 128 * sum_{c<n} w[r][c] — @p row_sums, which MxmPlane refreshes at
 * weight install — is subtracted, which is exact in wrapping int32
 * arithmetic. Callers additionally gate on tsp::cpuHasAvx512Vnni().
 *
 * @return false when (n) has no vector path (n % 64 != 0).
 */
bool mxmAbcInt8Vnni(const std::int8_t *w, int stride,
                    const std::uint8_t *act,
                    const std::int32_t *row_sums, std::int32_t *acc,
                    int n, int rows, int cols, bool accumulate);

/**
 * One fp16-mode ABC cycle's row dot products: for each row r < n,
 *   acc[r] (+)= sum_{c<n} wCols[c*stride + r] * act[c]
 * over the column-major fp32 weight image MxmPlane::buildF16WeightCols
 * prepares (exact fp16->fp32 conversion), with @p act the converted
 * activations.
 *
 * Bit-identical to MxmPlane::stepAbc's scalar fp16 loop: each row's
 * sum starts at 0.0f and adds products column-ascending, one
 * multiply rounding and one add rounding per term (vmulps + vaddps,
 * never FMA — a fused product would skip the multiply's rounding and
 * diverge). Vectorizing *across rows* (the column-major image makes
 * rows adjacent) leaves every row's rounding sequence exactly the
 * scalar one, so infinities, denormals and signed zeros propagate
 * identically. The one exception is the *payload* of a NaN result:
 * when a term mixes NaNs, which payload survives depends on mul/add
 * operand order, which the compiler is free to commute — it is not
 * pinned even between two compilations of the scalar loop. A NaN
 * result stays a NaN result on every path; only its payload bits are
 * unspecified (as in the fp16 numerics contract generally).
 *
 * @return false when (n) has no vector path (AVX2 tier: n % 8 != 0).
 * Definitions live in mxm_kernels_avx2.cc / mxm_kernels_f16.cc, the
 * only TUs compiled with the matching ISA flags; callers gate on
 * simdKernelsEnabled() (+ cpuHasAvx512f() for the 512-bit tier).
 */
bool mxmAbcF16Avx2(const float *wCols, int stride, const float *act,
                   float *acc, int n, bool accumulate);

/** AVX-512F tier of mxmAbcF16Avx2 (16 rows per vector; n % 16). */
bool mxmAbcF16Avx512(const float *wCols, int stride, const float *act,
                     float *acc, int n, bool accumulate);

} // namespace tsp::simd

#endif // TSP_MXM_MXM_KERNELS_HH
