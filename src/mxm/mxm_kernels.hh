/**
 * @file
 * Kernels for the MXM plane's activation broadcast (MxmPlane::stepAbc)
 * — the hottest loop in whole-chip simulation of dense networks
 * (320x320 MACs per active plane per cycle) — its accumulator drain
 * and its weight-install row sums.
 *
 * There are two shapes of int8 ABC kernel. A *tick* kernel computes
 * one activation's dot products (scalar and AVX2 tiers). The *window*
 * kernel computes k activations over one weight install (AVX-512
 * VNNI; k = 1 is its tick form): MxmPlane defers each int8 tick of a
 * window to one flush, and where the window kernel declines, runs
 * the tick tiers once per activation. Every int8 tier computes only
 * the installed weights' nonzero block, which MxmPlane tracks at
 * weight install, and is bit-identical to the full-plane scalar loop
 * because int32 accumulation wraps mod 2^32, so neither the
 * reduction order nor the omitted zero products change a result.
 *
 * Callers gate the vector tiers on tsp::simdKernelsEnabled()
 * (common/cpu.hh); their definitions live in
 * mxm_kernels_{avx2,vnni,avx512}.cc, the only TUs compiled with the
 * matching ISA flags (the scalar tier has its own baseline-ISA TU, so
 * no ISA-flagged copy of it can be linked in).
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
 * A window of @p k int8 ABC cycles over one weight install: for each
 * j < k, mxmAbcInt8Scalar of activation act + j * act_stride into
 * accumulator acc + j * acc_stride, with the same block and
 * accumulate flag, in 64-column blocks and 4-row groups. vpdpbusd
 * needs one unsigned operand, so activations are biased by +128 (a
 * XOR 0x80, once per window) and the per-row correction
 * 128 * sum_{c<n} w[r][c] — @p row_sums, which MxmPlane refreshes at
 * weight install (mxmRowSumsVnni) — is subtracted, which is exact in
 * wrapping int32 arithmetic. Each 4-row x 4-activation tile keeps its
 * 16 partial dot products in registers across the block's columns,
 * so a group of four activations loads each weight once, and reduces
 * its 16 sums together. The activations and the accumulators must
 * not overlap. Callers gate on tsp::cpuHasAvx512Vnni().
 *
 * @return false when (n) has no vector path (n % 64 != 0); the
 * caller then runs the tick tiers once per activation.
 */
bool mxmAbcInt8VnniWindow(const std::int8_t *w, int stride,
                          const std::uint8_t *act, int act_stride,
                          const std::int32_t *row_sums,
                          std::int32_t *acc, int acc_stride, int k,
                          int n, int rows, int cols, bool accumulate);

/**
 * The VNNI kernel's row sums: for each row r < @p rows,
 *   sums[r] = sum_{c < min(n, ext[r] * block)} w[r*stride + c],
 * where every weight of row r at or past column ext[r] * block is
 * zero (MxmPlane's nonzero extents), so the sum covers the row's n
 * columns. Exact in int32 (|sum| <= 320 * 128).
 */
void mxmRowSumsScalar(const std::int8_t *w, int stride,
                      const std::uint8_t *ext, int block, int n,
                      int rows, std::int32_t *sums);

/**
 * AVX-512 VNNI tier of mxmRowSumsScalar: vpdpbusd of each 64-column
 * block against a vector of ones, four rows per reduction. Callers
 * gate on tsp::cpuHasAvx512Vnni().
 *
 * @return false where the toolchain has no VNNI (never on a VNNI
 * build).
 */
bool mxmRowSumsVnni(const std::int8_t *w, int stride,
                    const std::uint8_t *ext, int block, int n, int rows,
                    std::int32_t *sums);

/**
 * An ACC drain's byte planes: for each lane l < @p n of the 32-bit
 * accumulator row @p row (int32 or fp32 bits), planes[k][l] is byte k
 * of lane l (little-endian), and planes[k][l] = 0 for
 * n <= l < @p width. The four planes may alias each other (a result
 * nothing consumes shares its tape slot, stream/stream_io.hh); a
 * kernel writes them and never reads them back.
 */
void accBytePlanesScalar(const void *row, int n, int width,
                         std::uint8_t *const *planes);

/**
 * AVX-512F tier of accBytePlanesScalar: each 16-lane block is one
 * load, and each plane one vpmovdb of the block shifted right by
 * 0, 8, 16 or 24 bits. Callers gate on tsp::cpuHasAvx512f().
 *
 * @return false when width % 16 != 0 or n > width.
 */
bool accBytePlanesAvx512(const void *row, int n, int width,
                         std::uint8_t *const *planes);

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
 * Definitions live in mxm_kernels_avx2.cc / mxm_kernels_avx512.cc,
 * the only TUs compiled with the matching ISA flags; callers gate on
 * simdKernelsEnabled() (+ cpuHasAvx512f() for the 512-bit tier).
 */
bool mxmAbcF16Avx2(const float *wCols, int stride, const float *act,
                   float *acc, int n, bool accumulate);

/** AVX-512F tier of mxmAbcF16Avx2 (16 rows per vector; n % 16). */
bool mxmAbcF16Avx512(const float *wCols, int stride, const float *act,
                     float *acc, int n, bool accumulate);

} // namespace tsp::simd

#endif // TSP_MXM_MXM_KERNELS_HH
