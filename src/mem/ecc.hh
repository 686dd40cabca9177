/**
 * @file
 * SECDED error-correcting code over 128-bit memory words.
 *
 * The TSP protects each 16-byte memory word with 9 check bits (137
 * bits total): an extended Hamming code giving single-error correction
 * and double-error detection. Check bits are generated once at the
 * producing slice, travel with the word through the stream registers,
 * and are verified by every consuming slice — covering both SRAM soft
 * errors and datapath upsets (paper II.D).
 */

#ifndef TSP_MEM_ECC_HH
#define TSP_MEM_ECC_HH

#include <cstdint>

#include "arch/types.hh"

namespace tsp {

/** Outcome of an ECC check. */
enum class EccStatus : std::uint8_t {
    Ok,            ///< No error.
    Corrected,     ///< Single-bit error corrected in place.
    Uncorrectable, ///< Double-bit (or worse) error detected.
};

/**
 * Computes the 9-bit SECDED code for a 16-byte word.
 *
 * Bit layout: bits 0..7 are the Hamming parities, bit 8 the overall
 * parity. The code of an all-zero word is 0.
 */
std::uint16_t eccCompute(const std::uint8_t *word16);

/**
 * Verifies @p word16 against @p ecc; corrects a single flipped bit in
 * either the data or the check bits in place.
 *
 * @return Ok, Corrected, or Uncorrectable.
 */
EccStatus eccCheckCorrect(std::uint8_t *word16, std::uint16_t &ecc);

/** Computes codes for all 20 superlane words of a vector. */
void eccComputeVec(Vec320 &vec);

/**
 * Checks/corrects all 20 superlane words of a vector.
 *
 * @return the worst status across the words.
 */
EccStatus eccCheckVec(Vec320 &vec);

/**
 * Compares every stored code of @p vec with the one its data bytes
 * give, writing nothing.
 *
 * @return true when all 20 are equal, in which case eccCheckVec()
 * would return Ok and change nothing.
 */
bool eccCodesMatch(const Vec320 &vec);

namespace simd {

/**
 * GFNI tier of eccComputeVec: writes the codes of the kSuperlanes
 * words at @p bytes to @p codes. Definitions live in
 * ecc_kernels_gfni.cc, the only TU built with -mgfni -mavx512f
 * -mavx512bw -mavx512vbmi. @p ops holds 16 qwords, qword j the 8x8
 * bit matrix mapping word byte j onto the Hamming bits; ecc.cc builds
 * them from its position tables.
 *
 * @return false when this build has no vector path (nothing written).
 */
bool eccComputeGfni(const std::uint8_t *bytes, std::uint16_t *codes,
                    const std::uint64_t *ops);

/**
 * Recomputes the codes of the words at @p bytes and sets bit s of
 * @p differs for each word s whose stored code @p codes[s] differs.
 *
 * @return false when this build has no vector path.
 */
bool eccDiffersGfni(const std::uint8_t *bytes,
                    const std::uint16_t *codes, const std::uint64_t *ops,
                    std::uint32_t *differs);

} // namespace simd

} // namespace tsp

#endif // TSP_MEM_ECC_HH
