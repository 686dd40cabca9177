#include "common/fp16.hh"

#include <bit>
#include <cmath>

namespace tsp {

float
Fp16::toFloat() const
{
    const std::uint32_t sign = (bits_ >> 15) & 0x1;
    const std::uint32_t exp = (bits_ >> 10) & 0x1f;
    const std::uint32_t frac = bits_ & 0x3ff;

    std::uint32_t f32;
    if (exp == 0) {
        if (frac == 0) {
            // Signed zero.
            f32 = sign << 31;
        } else {
            // Subnormal: normalize into binary32.
            int e = -1;
            std::uint32_t m = frac;
            while (!(m & 0x400)) {
                m <<= 1;
                ++e;
            }
            m &= 0x3ff;
            const std::uint32_t exp32 = 127 - 15 - e;
            f32 = (sign << 31) | (exp32 << 23) | (m << 13);
        }
    } else if (exp == 0x1f) {
        // Inf / NaN.
        f32 = (sign << 31) | 0x7f800000u | (frac << 13);
    } else {
        const std::uint32_t exp32 = exp - 15 + 127;
        f32 = (sign << 31) | (exp32 << 23) | (frac << 13);
    }
    return std::bit_cast<float>(f32);
}

std::uint16_t
Fp16::fromFloatBits(float value)
{
    const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
    const std::uint32_t sign = (f >> 16) & 0x8000;
    const std::int32_t exp = static_cast<std::int32_t>((f >> 23) & 0xff);
    const std::uint32_t frac = f & 0x7fffff;

    if (exp == 0xff) {
        // Inf or NaN; preserve NaN-ness with a quiet payload.
        if (frac)
            return static_cast<std::uint16_t>(sign | 0x7e00);
        return static_cast<std::uint16_t>(sign | 0x7c00);
    }

    // Unbiased exponent.
    const std::int32_t e = exp - 127;
    if (e > 15) {
        // Overflow to infinity.
        return static_cast<std::uint16_t>(sign | 0x7c00);
    }

    if (e >= -14) {
        // Normal range: round the 23-bit fraction to 10 bits, RNE.
        std::uint32_t mant = frac;
        std::uint32_t out = static_cast<std::uint32_t>(e + 15) << 10;
        out |= mant >> 13;
        const std::uint32_t round_bits = mant & 0x1fff;
        if (round_bits > 0x1000 ||
            (round_bits == 0x1000 && (out & 1))) {
            ++out; // May carry into the exponent: that is correct RNE.
        }
        return static_cast<std::uint16_t>(sign | out);
    }

    if (e < -25) {
        // Too small even for the largest subnormal rounding: signed zero.
        return static_cast<std::uint16_t>(sign);
    }

    // Subnormal: the fp16 fraction is 1.m x 2^(e+24), i.e. the
    // 24-bit significand shifted right by (-e - 1), rounded RNE.
    const std::uint32_t mant = frac | 0x800000;
    const int shift = -e - 1; // 14..24 for e in [-25, -15].
    const std::uint32_t out = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t half = 1u << (shift - 1);
    std::uint32_t rounded = out;
    if (rem > half || (rem == half && (out & 1)))
        ++rounded;
    return static_cast<std::uint16_t>(sign | rounded);
}

bool
Fp16::isNaN() const
{
    return ((bits_ >> 10) & 0x1f) == 0x1f && (bits_ & 0x3ff) != 0;
}

bool
Fp16::isInf() const
{
    return ((bits_ >> 10) & 0x1f) == 0x1f && (bits_ & 0x3ff) == 0;
}

Fp16
fp16Add(Fp16 a, Fp16 b)
{
    return Fp16(a.toFloat() + b.toFloat());
}

Fp16
fp16Mul(Fp16 a, Fp16 b)
{
    return Fp16(a.toFloat() * b.toFloat());
}

float
fp16MaccToF32(Fp16 a, Fp16 b, float acc)
{
    // Binary16 products are exact in binary32 (11x11-bit significands),
    // so a float fma is not required for bit-exactness of the product.
    return acc + a.toFloat() * b.toFloat();
}

} // namespace tsp
