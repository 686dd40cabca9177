/**
 * @file
 * Software IEEE 754 binary16 (half precision) arithmetic.
 *
 * The TSP's MXM operates natively on fp16 operands (two int8 byte-planes
 * in tandem) accumulating into fp32, and the VXM performs fp32 point-wise
 * arithmetic with conversions to/from fp16. This module provides a
 * bit-exact binary16 value type used by those models. Arithmetic is
 * performed by converting to float (binary32), operating, and rounding
 * back with round-to-nearest-even — which is exactly the semantics of a
 * hardware fp16 unit with a single rounding step.
 */

#ifndef TSP_COMMON_FP16_HH
#define TSP_COMMON_FP16_HH

#include <cstdint>

namespace tsp {

/**
 * IEEE 754 binary16 value, stored as its 16-bit pattern.
 *
 * Conversions implement round-to-nearest-even with correct handling of
 * subnormals, infinities and NaN.
 */
class Fp16
{
  public:
    /** Default-constructs +0.0. */
    constexpr Fp16() : bits_(0) {}

    /** Constructs from a float with round-to-nearest-even. */
    explicit Fp16(float value) : bits_(fromFloatBits(value)) {}

    /** Reinterprets a raw 16-bit pattern as an Fp16. */
    static constexpr Fp16
    fromBits(std::uint16_t bits)
    {
        Fp16 h;
        h.bits_ = bits;
        return h;
    }

    /** @return the raw 16-bit pattern. */
    constexpr std::uint16_t bits() const { return bits_; }

    /** Widens to binary32 (exact; every fp16 is representable). */
    float toFloat() const;

    /** @return true if the value is NaN. */
    bool isNaN() const;

    /** @return true if the value is +/- infinity. */
    bool isInf() const;

    /** Bit-pattern equality (NaN == NaN under this operator). */
    constexpr bool
    operator==(const Fp16 &other) const
    {
        return bits_ == other.bits_;
    }

    /** Largest finite fp16 value: 65504. */
    static constexpr Fp16 max() { return fromBits(0x7bff); }

    /** Positive infinity. */
    static constexpr Fp16 inf() { return fromBits(0x7c00); }

  private:
    static std::uint16_t fromFloatBits(float value);

    std::uint16_t bits_;
};

/** fp16 addition with a single round-to-nearest-even step. */
Fp16 fp16Add(Fp16 a, Fp16 b);

/** fp16 multiplication with a single round-to-nearest-even step. */
Fp16 fp16Mul(Fp16 a, Fp16 b);

/**
 * Fused fp16 multiply with fp32 accumulation, as performed by an MXM
 * supercell: the product and running sum are kept in binary32 so only
 * one rounding step occurs when the final fp32 result is produced.
 */
float fp16MaccToF32(Fp16 a, Fp16 b, float acc);

} // namespace tsp

#endif // TSP_COMMON_FP16_HH
