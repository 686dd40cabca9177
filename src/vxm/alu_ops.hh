/**
 * @file
 * Pure element-wise semantics of the VXM ALU operations.
 *
 * The ALUs are stateless 32-bit units; multi-byte element types occupy
 * naturally aligned stream groups (int16/fp16 on a pair, int32/fp32 on
 * a quad — paper II.B, III.C). These functions operate on one lane's
 * element at a time, with vectors assembled/scattered by the VxmUnit.
 * Saturating and modulo (wrapping) variants carry the paper's
 * exception-handling split; no flags or status bits exist.
 *
 * Everything here is defined inline: the VxmUnit's lane loops are
 * instantiated with compile-time (dtype, opcode) pairs, and inlining
 * these bodies lets the per-lane switches constant-fold away — the
 * dominant cost in whole-chip simulation profiles.
 */

#ifndef TSP_VXM_ALU_OPS_HH
#define TSP_VXM_ALU_OPS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "arch/types.hh"
#include "common/fp16.hh"
#include "common/logging.hh"
#include "isa/opcode.hh"

namespace tsp {

/**
 * A single lane element in flight: raw 32-bit container plus the type
 * it currently holds. Integer types are sign-extended into `i`; float
 * types live in `f` (fp16 is widened on load, narrowed on store).
 */
struct LaneValue
{
    std::int64_t i = 0; ///< Integer payload (sign-extended).
    float f = 0.0f;     ///< Floating payload.
};

/** @return true for Fp16/Fp32. */
constexpr bool
isFloatType(DType t)
{
    return t == DType::Fp16 || t == DType::Fp32;
}

/** @return the signed minimum representable in integer type @p t. */
inline std::int64_t
intMin(DType t)
{
    switch (t) {
      case DType::Int8:
        return -128;
      case DType::Int16:
        return -32768;
      case DType::Int32:
        return -2147483648ll;
      default:
        panic("intMin: non-integer dtype %s", dtypeName(t));
    }
}

/** @return the signed maximum representable in integer type @p t. */
inline std::int64_t
intMax(DType t)
{
    switch (t) {
      case DType::Int8:
        return 127;
      case DType::Int16:
        return 32767;
      case DType::Int32:
        return 2147483647ll;
      default:
        panic("intMax: non-integer dtype %s", dtypeName(t));
    }
}

/** Wraps a wide integer into the width of @p t (two's complement). */
inline std::int64_t
wrapInt(DType t, std::int64_t v)
{
    switch (t) {
      case DType::Int8:
        return static_cast<std::int8_t>(v);
      case DType::Int16:
        return static_cast<std::int16_t>(v);
      case DType::Int32:
        return static_cast<std::int32_t>(v);
      default:
        panic("wrapInt: non-integer dtype %s", dtypeName(t));
    }
}

/** Saturates a wide integer into the range of @p t. */
inline std::int64_t
satInt(DType t, std::int64_t v)
{
    return std::clamp(v, intMin(t), intMax(t));
}

/** Assembles a lane element of type @p t from @p g little-endian bytes. */
inline LaneValue
laneLoad(const std::uint8_t *bytes, DType t)
{
    LaneValue v;
    switch (t) {
      case DType::Int8:
        v.i = static_cast<std::int8_t>(bytes[0]);
        break;
      case DType::Int16:
        v.i = static_cast<std::int16_t>(
            bytes[0] | (static_cast<std::uint16_t>(bytes[1]) << 8));
        break;
      case DType::Int32: {
        std::uint32_t u = 0;
        for (int i = 0; i < 4; ++i)
            u |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
        v.i = static_cast<std::int32_t>(u);
        break;
      }
      case DType::Fp16: {
        const auto u = static_cast<std::uint16_t>(
            bytes[0] | (static_cast<std::uint16_t>(bytes[1]) << 8));
        v.f = Fp16::fromBits(u).toFloat();
        break;
      }
      case DType::Fp32: {
        std::uint32_t u = 0;
        for (int i = 0; i < 4; ++i)
            u |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
        float f;
        static_assert(sizeof(f) == sizeof(u));
        __builtin_memcpy(&f, &u, sizeof(f));
        v.f = f;
        break;
      }
    }
    return v;
}

/**
 * Scatters @p v back to @p g little-endian bytes of type @p t,
 * wrapping integers (store is type-pure; range handling happened in
 * the op itself).
 */
inline void
laneStore(std::uint8_t *bytes, DType t, const LaneValue &v)
{
    switch (t) {
      case DType::Int8:
        bytes[0] = static_cast<std::uint8_t>(wrapInt(t, v.i));
        break;
      case DType::Int16: {
        const auto u =
            static_cast<std::uint16_t>(wrapInt(t, v.i) & 0xffff);
        bytes[0] = static_cast<std::uint8_t>(u & 0xff);
        bytes[1] = static_cast<std::uint8_t>(u >> 8);
        break;
      }
      case DType::Int32: {
        const auto u = static_cast<std::uint32_t>(
            wrapInt(t, v.i) & 0xffffffffll);
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<std::uint8_t>((u >> (8 * i)) & 0xff);
        break;
      }
      case DType::Fp16: {
        const std::uint16_t u = Fp16(v.f).bits();
        bytes[0] = static_cast<std::uint8_t>(u & 0xff);
        bytes[1] = static_cast<std::uint8_t>(u >> 8);
        break;
      }
      case DType::Fp32: {
        std::uint32_t u;
        __builtin_memcpy(&u, &v.f, sizeof(u));
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<std::uint8_t>((u >> (8 * i)) & 0xff);
        break;
      }
    }
}

/** Applies a unary VXM op. @p shift_amount is used by Opcode::Shift. */
inline LaneValue
aluUnary(Opcode op, DType t, const LaneValue &a,
         std::uint32_t shift_amount)
{
    LaneValue r;
    const bool flt = isFloatType(t);
    switch (op) {
      case Opcode::Neg:
        if (flt)
            r.f = -a.f;
        else
            r.i = wrapInt(t, -a.i);
        return r;
      case Opcode::Abs:
        if (flt)
            r.f = std::fabs(a.f);
        else
            r.i = satInt(t, a.i < 0 ? -a.i : a.i);
        return r;
      case Opcode::Relu:
        if (flt)
            r.f = a.f > 0.0f ? a.f : 0.0f;
        else
            r.i = a.i > 0 ? a.i : 0;
        return r;
      case Opcode::Tanh:
        TSP_ASSERT(flt);
        r.f = std::tanh(a.f);
        return r;
      case Opcode::Exp:
        TSP_ASSERT(flt);
        r.f = std::exp(a.f);
        return r;
      case Opcode::Rsqrt:
        TSP_ASSERT(flt);
        r.f = 1.0f / std::sqrt(a.f);
        return r;
      case Opcode::Shift: {
        TSP_ASSERT(!flt);
        // Rounding arithmetic right shift (round half away from
        // zero), the fixed-point requantization primitive.
        if (shift_amount == 0) {
            r.i = a.i;
        } else {
            const std::int64_t bias = 1ll << (shift_amount - 1);
            const std::int64_t adj = a.i >= 0 ? a.i + bias
                                              : a.i - bias + 1;
            r.i = wrapInt(t, adj >> shift_amount);
        }
        return r;
      }
      default:
        panic("aluUnary: not a unary op: %s", opcodeName(op));
    }
}

/**
 * @return @p ieee, the add, sub or mul of @p a and @p b, except that
 * two NaN operands give @p a quieted. IEEE 754 leaves that payload to
 * the implementation: x86, and so the AVX2 kernels, return the first
 * source quieted, but a compiler may swap the operands of a
 * commutative op. Pinning the x86 rule makes the scalar reference
 * simulate the same bits at every optimisation level.
 */
inline float
pinNanPair(float a, float b, float ieee)
{
    if (!std::isnan(a) || !std::isnan(b))
        return ieee;
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) |
                                0x00400000u);
}

/** Applies a binary VXM op. */
inline LaneValue
aluBinary(Opcode op, DType t, const LaneValue &a, const LaneValue &b)
{
    LaneValue r;
    const bool flt = isFloatType(t);
    switch (op) {
      case Opcode::Add:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f + b.f);
        else
            r.i = wrapInt(t, a.i + b.i);
        return r;
      case Opcode::Sub:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f - b.f);
        else
            r.i = wrapInt(t, a.i - b.i);
        return r;
      case Opcode::Mul:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f * b.f);
        else
            r.i = wrapInt(t, a.i * b.i);
        return r;
      case Opcode::AddSat:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f + b.f);
        else
            r.i = satInt(t, a.i + b.i);
        return r;
      case Opcode::SubSat:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f - b.f);
        else
            r.i = satInt(t, a.i - b.i);
        return r;
      case Opcode::MulSat:
        if (flt)
            r.f = pinNanPair(a.f, b.f, a.f * b.f);
        else
            r.i = satInt(t, a.i * b.i);
        return r;
      case Opcode::Max:
        if (flt)
            r.f = std::max(a.f, b.f);
        else
            r.i = std::max(a.i, b.i);
        return r;
      case Opcode::Min:
        if (flt)
            r.f = std::min(a.f, b.f);
        else
            r.i = std::min(a.i, b.i);
        return r;
      case Opcode::Mask:
        // Lane passes where the mask operand is nonzero.
        if (flt)
            r.f = b.f != 0.0f ? a.f : 0.0f;
        else
            r.i = b.i != 0 ? a.i : 0;
        return r;
      default:
        panic("aluBinary: not a binary op: %s", opcodeName(op));
    }
}

/**
 * Converts between element types with round-to-nearest and integer
 * saturation (the requantization primitive).
 */
inline LaneValue
aluConvert(DType from, DType to, const LaneValue &a)
{
    LaneValue r;
    // Widen to double as the common intermediate.
    const double wide =
        isFloatType(from) ? static_cast<double>(a.f)
                          : static_cast<double>(a.i);
    if (isFloatType(to)) {
        r.f = static_cast<float>(wide);
        if (to == DType::Fp16)
            r.f = Fp16(r.f).toFloat(); // Single rounding to fp16 grid.
    } else if (wide != wide) {
        // NaN converts to zero (casting it would be UB; the hardware
        // integer pipe has no NaN to propagate).
        r.i = 0;
    } else {
        // Round to nearest (ties to even) then saturate.
        const double rounded = std::nearbyint(wide);
        const double lo = static_cast<double>(intMin(to));
        const double hi = static_cast<double>(intMax(to));
        const double clamped = std::clamp(rounded, lo, hi);
        r.i = static_cast<std::int64_t>(clamped);
    }
    return r;
}

} // namespace tsp

#endif // TSP_VXM_ALU_OPS_HH
