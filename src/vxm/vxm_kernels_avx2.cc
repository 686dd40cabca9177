#include "vxm/vxm_kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <type_traits>

namespace tsp::simd {

namespace {

// ---- int8: one byte plane, 32 lanes per vector ----------------------

/** Wrapping int8 multiply: widen to int16, mullo, truncate low byte. */
inline __m256i
mulWrapEpi8(__m256i a, __m256i b)
{
    const __m256i alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a));
    const __m256i ahi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a, 1));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
    const __m256i bhi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
    const __m256i mask = _mm256_set1_epi16(0x00ff);
    const __m256i plo =
        _mm256_and_si256(_mm256_mullo_epi16(alo, blo), mask);
    const __m256i phi =
        _mm256_and_si256(_mm256_mullo_epi16(ahi, bhi), mask);
    // packus on 0..255 values is exact truncation; undo the 128-bit
    // lane interleave packus introduces.
    return _mm256_permute4x64_epi64(_mm256_packus_epi16(plo, phi),
                                    0xd8);
}

/** Saturating int8 multiply: exact int16 product, signed pack. */
inline __m256i
mulSatEpi8(__m256i a, __m256i b)
{
    const __m256i alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a));
    const __m256i ahi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a, 1));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
    const __m256i bhi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
    const __m256i plo = _mm256_mullo_epi16(alo, blo);
    const __m256i phi = _mm256_mullo_epi16(ahi, bhi);
    return _mm256_permute4x64_epi64(_mm256_packs_epi16(plo, phi),
                                    0xd8);
}

// ---- blocks of 32 lanes ---------------------------------------------

/** Lanes per block: one 256-bit register of bytes. */
constexpr int kBlock = 32;

/** A block of 16 lanes, the tail of an odd multiple of 16. */
using Half = std::true_type;
/** A whole block of 32 lanes. */
using Whole = std::false_type;

/**
 * Calls @p block(l, half) for every block of a @p lanes vector: whole
 * blocks of 32 lanes, then a 16-lane half block when @p lanes is an
 * odd multiple of 16. @p half is Half or Whole, so the loads and
 * stores of each variant compile without a branch.
 */
template <typename Block>
inline void
forEachBlock(int lanes, Block &&block)
{
    int l = 0;
    for (; l + kBlock <= lanes; l += kBlock)
        block(l, Whole{});
    if (l < lanes)
        block(l, Half{});
}

/** Loads lanes [l, l + 32) of one byte plane (upper 16 zero if half). */
template <bool H>
inline __m256i
loadBytes(const Vec320 *p, int l, std::bool_constant<H>)
{
    const std::uint8_t *src =
        p->bytes.data() + static_cast<std::size_t>(l);
    if constexpr (H) {
        return _mm256_zextsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src)));
    } else {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src));
    }
}

/** Stores lanes [l, l + 32) of one byte plane (only 16 if half). */
template <bool H>
inline void
storeBytes(Vec320 *p, int l, __m256i v, std::bool_constant<H>)
{
    std::uint8_t *dst = p->bytes.data() + static_cast<std::size_t>(l);
    if constexpr (H) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                         _mm256_castsi256_si128(v));
    } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), v);
    }
}

// ---- int32 / fp32: four byte planes, transposed in registers --------

/**
 * One block of 32-bit lane elements, in the order the unpack
 * transposes leave them: register j holds lanes 4j..4j+3 in its low
 * 128 bits and lanes 16+4j..16+4j+3 in its high 128 bits. Point-wise
 * ops do not care about the order; storeLanes32() undoes it.
 */
struct Lanes32
{
    __m256i v[4];
};

/**
 * Gathers a block's 32-bit lane elements from four byte planes: byte
 * interleaves pair planes 0,1 and 2,3 into 16-bit halves, and 16-bit
 * interleaves join the halves into elements.
 */
template <bool H>
inline Lanes32
loadLanes32(const Vec320 *const *p, int l, std::bool_constant<H> h)
{
    const __m256i b0 = loadBytes(p[0], l, h);
    const __m256i b1 = loadBytes(p[1], l, h);
    const __m256i b2 = loadBytes(p[2], l, h);
    const __m256i b3 = loadBytes(p[3], l, h);
    const __m256i lo01 = _mm256_unpacklo_epi8(b0, b1);
    const __m256i hi01 = _mm256_unpackhi_epi8(b0, b1);
    const __m256i lo23 = _mm256_unpacklo_epi8(b2, b3);
    const __m256i hi23 = _mm256_unpackhi_epi8(b2, b3);
    return {{_mm256_unpacklo_epi16(lo01, lo23),
             _mm256_unpackhi_epi16(lo01, lo23),
             _mm256_unpacklo_epi16(hi01, hi23),
             _mm256_unpackhi_epi16(hi01, hi23)}};
}

/**
 * Scatters a block back to four byte planes: a byte shuffle groups
 * each register's bytes by plane (one 32-bit word per plane and four
 * lanes), and a 4x4 transpose of those words (32- then 64-bit
 * interleaves) lines each plane's 16 lanes up in order.
 */
template <bool H>
inline void
storeLanes32(Vec320 *const *p, int l, const Lanes32 &r,
             std::bool_constant<H> h)
{
    const __m256i by_plane = _mm256_setr_epi8(
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, 0, 4, 8,
        12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    const __m256i s0 = _mm256_shuffle_epi8(r.v[0], by_plane);
    const __m256i s1 = _mm256_shuffle_epi8(r.v[1], by_plane);
    const __m256i s2 = _mm256_shuffle_epi8(r.v[2], by_plane);
    const __m256i s3 = _mm256_shuffle_epi8(r.v[3], by_plane);
    const __m256i p01lo = _mm256_unpacklo_epi32(s0, s1);
    const __m256i p01hi = _mm256_unpacklo_epi32(s2, s3);
    const __m256i p23lo = _mm256_unpackhi_epi32(s0, s1);
    const __m256i p23hi = _mm256_unpackhi_epi32(s2, s3);
    storeBytes(p[0], l, _mm256_unpacklo_epi64(p01lo, p01hi), h);
    storeBytes(p[1], l, _mm256_unpackhi_epi64(p01lo, p01hi), h);
    storeBytes(p[2], l, _mm256_unpacklo_epi64(p23lo, p23hi), h);
    storeBytes(p[3], l, _mm256_unpackhi_epi64(p23lo, p23hi), h);
}

/** Sign-extends a block of int8 lanes into Lanes32 order. */
inline Lanes32
widenInt8(__m256i x)
{
    // Each byte paired with itself and shifted back down is its
    // sign extension; two rounds widen 8 -> 16 -> 32 bits.
    const __m256i w0 = _mm256_srai_epi16(_mm256_unpacklo_epi8(x, x), 8);
    const __m256i w1 = _mm256_srai_epi16(_mm256_unpackhi_epi8(x, x), 8);
    return {{_mm256_srai_epi32(_mm256_unpacklo_epi16(w0, w0), 16),
             _mm256_srai_epi32(_mm256_unpackhi_epi16(w0, w0), 16),
             _mm256_srai_epi32(_mm256_unpacklo_epi16(w1, w1), 16),
             _mm256_srai_epi32(_mm256_unpackhi_epi16(w1, w1), 16)}};
}

/**
 * Narrows a block of int32 lanes to int8 with signed saturation. The
 * two pack rounds interleave the 128-bit halves in exactly the way
 * that undoes the Lanes32 order, so the bytes come out in lane order.
 */
inline __m256i
narrowInt8(const Lanes32 &r)
{
    return _mm256_packs_epi16(_mm256_packs_epi32(r.v[0], r.v[1]),
                              _mm256_packs_epi32(r.v[2], r.v[3]));
}

/** Applies @p f to each register of a block. */
template <typename F>
inline Lanes32
map32(const Lanes32 &x, F &&f)
{
    return {{f(x.v[0]), f(x.v[1]), f(x.v[2]), f(x.v[3])}};
}

/** Applies @p f pairwise to the registers of two blocks. */
template <typename F>
inline Lanes32
zip32(const Lanes32 &x, const Lanes32 &y, F &&f)
{
    return {{f(x.v[0], y.v[0]), f(x.v[1], y.v[1]), f(x.v[2], y.v[2]),
             f(x.v[3], y.v[3])}};
}

/** out = f(a, b) lane-wise over int8 planes. */
template <typename F>
inline void
binary8(const Vec320 *const *a, const Vec320 *const *b,
        Vec320 *const *out, int lanes, F &&f)
{
    forEachBlock(lanes, [&](int l, auto h) {
        storeBytes(out[0], l,
                   f(loadBytes(a[0], l, h), loadBytes(b[0], l, h)), h);
    });
}

/** out = f(a) lane-wise over int8 planes. */
template <typename F>
inline void
unary8(const Vec320 *const *a, Vec320 *const *out, int lanes, F &&f)
{
    forEachBlock(lanes, [&](int l, auto h) {
        storeBytes(out[0], l, f(loadBytes(a[0], l, h)), h);
    });
}

/** out = f(a, b) lane-wise over 32-bit planes (f on __m256i). */
template <typename F>
inline void
binary32(const Vec320 *const *a, const Vec320 *const *b,
         Vec320 *const *out, int lanes, F &&f)
{
    forEachBlock(lanes, [&](int l, auto h) {
        storeLanes32(out, l,
                     zip32(loadLanes32(a, l, h), loadLanes32(b, l, h), f),
                     h);
    });
}

/** out = f(a) lane-wise over 32-bit planes (f on __m256i). */
template <typename F>
inline void
unary32(const Vec320 *const *a, Vec320 *const *out, int lanes, F &&f)
{
    forEachBlock(lanes, [&](int l, auto h) {
        storeLanes32(out, l, map32(loadLanes32(a, l, h), f), h);
    });
}

/** binary32() for an fp32 @p f on __m256. */
template <typename F>
inline void
binaryF32(const Vec320 *const *a, const Vec320 *const *b,
          Vec320 *const *out, int lanes, F &&f)
{
    binary32(a, b, out, lanes, [&](__m256i x, __m256i y) {
        return _mm256_castps_si256(
            f(_mm256_castsi256_ps(x), _mm256_castsi256_ps(y)));
    });
}

/** unary32() for an fp32 @p f on __m256. */
template <typename F>
inline void
unaryF32(const Vec320 *const *a, Vec320 *const *out, int lanes, F &&f)
{
    unary32(a, out, lanes, [&](__m256i x) {
        return _mm256_castps_si256(f(_mm256_castsi256_ps(x)));
    });
}

/**
 * fp32 -> int32 rounding to nearest-even like the scalar nearbyint.
 * cvtps_epi32 returns 0x80000000 for NaN and out-of-range inputs; the
 * blends restore the scalar clamp: inputs above @p hi_thresh (>= 2^31
 * for int32, > 127 for int8, whose low side the pack saturates)
 * become @p nmax, and NaN becomes 0.
 */
inline __m256i
roundF32(__m256i x, __m256 hi_thresh, __m256i nmax, bool inclusive)
{
    const __m256 av = _mm256_castsi256_ps(x);
    const __m256i r = _mm256_blendv_epi8(
        _mm256_cvtps_epi32(av), nmax,
        _mm256_castps_si256(
            inclusive ? _mm256_cmp_ps(av, hi_thresh, _CMP_GE_OQ)
                      : _mm256_cmp_ps(av, hi_thresh, _CMP_GT_OQ)));
    return _mm256_andnot_si256(
        _mm256_castps_si256(_mm256_cmp_ps(av, av, _CMP_UNORD_Q)), r);
}

/** AddSat/SubSat on int32: overflow iff @p ovf's sign bit is set;
 *  saturate toward a's sign. */
inline __m256i
saturate32(__m256i a, __m256i wrapped, __m256i ovf)
{
    const __m256i sat = _mm256_xor_si256(_mm256_srai_epi32(a, 31),
                                         _mm256_set1_epi32(0x7fffffff));
    return _mm256_blendv_epi8(wrapped, sat, _mm256_srai_epi32(ovf, 31));
}

/**
 * @p a + @p b and @p a * @p b with @p a as the first source operand,
 * so two NaN lanes give a's NaN, quieted: the x86 rule the scalar
 * reference pins (alu_ops.hh pinNanPair). The intrinsics are plain
 * vector arithmetic to the compiler, which may swap the operands of a
 * commutative op and so flip the payload; the instruction is spelled
 * out to keep the order.
 */
inline __m256
addFirstPs(__m256 a, __m256 b)
{
    __m256 r;
    asm("vaddps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
    return r;
}

inline __m256
mulFirstPs(__m256 a, __m256 b)
{
    __m256 r;
    asm("vmulps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
    return r;
}

/** @return whether @p lanes is a vector length the kernels cover. */
inline bool
coveredLanes(int lanes)
{
    return lanes > 0 && lanes <= kLanes && lanes % 16 == 0;
}

} // namespace

bool
vxmBinaryAvx2(DType t, Opcode op, const Vec320 *const *a,
              const Vec320 *const *b, Vec320 *const *out, int lanes)
{
    if (!coveredLanes(lanes))
        return false;

    if (t == DType::Int8) {
        switch (op) {
          case Opcode::Add:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_add_epi8(x, y);
            });
            return true;
          case Opcode::Sub:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_sub_epi8(x, y);
            });
            return true;
          case Opcode::Mul:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return mulWrapEpi8(x, y);
            });
            return true;
          case Opcode::AddSat:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_adds_epi8(x, y);
            });
            return true;
          case Opcode::SubSat:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_subs_epi8(x, y);
            });
            return true;
          case Opcode::MulSat:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return mulSatEpi8(x, y);
            });
            return true;
          case Opcode::Max:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_max_epi8(x, y);
            });
            return true;
          case Opcode::Min:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_min_epi8(x, y);
            });
            return true;
          case Opcode::Mask:
            binary8(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_andnot_si256(
                    _mm256_cmpeq_epi8(y, _mm256_setzero_si256()), x);
            });
            return true;
          default:
            return false;
        }
    }

    if (t == DType::Int32) {
        switch (op) {
          case Opcode::Add:
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_add_epi32(x, y);
            });
            return true;
          case Opcode::Sub:
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_sub_epi32(x, y);
            });
            return true;
          case Opcode::Mul:
            // Scalar wraps the int64 product to int32 == low 32 bits,
            // which is exactly mullo.
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_mullo_epi32(x, y);
            });
            return true;
          case Opcode::Max:
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_max_epi32(x, y);
            });
            return true;
          case Opcode::Min:
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_min_epi32(x, y);
            });
            return true;
          case Opcode::Mask:
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                return _mm256_andnot_si256(
                    _mm256_cmpeq_epi32(y, _mm256_setzero_si256()), x);
            });
            return true;
          case Opcode::AddSat:
            // a+b overflows iff a,b share a sign and the wrapped sum's
            // sign differs.
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                const __m256i s = _mm256_add_epi32(x, y);
                return saturate32(
                    x, s,
                    _mm256_andnot_si256(_mm256_xor_si256(x, y),
                                        _mm256_xor_si256(x, s)));
            });
            return true;
          case Opcode::SubSat:
            // a-b overflows iff the signs differ and the wrapped
            // difference's sign differs from a's.
            binary32(a, b, out, lanes, [](__m256i x, __m256i y) {
                const __m256i s = _mm256_sub_epi32(x, y);
                return saturate32(
                    x, s,
                    _mm256_and_si256(_mm256_xor_si256(x, y),
                                     _mm256_xor_si256(x, s)));
            });
            return true;
          default:
            // MulSat's 64-bit product stays scalar.
            return false;
        }
    }

    if (t == DType::Fp32) {
        switch (op) {
          // One IEEE op per lane, no reassociation: bit-identical to
          // the scalar expression. The saturating variants are the
          // plain op for float (alu_ops.hh).
          case Opcode::Add:
          case Opcode::AddSat:
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return addFirstPs(x, y);
            });
            return true;
          case Opcode::Sub:
          case Opcode::SubSat:
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return _mm256_sub_ps(x, y);
            });
            return true;
          case Opcode::Mul:
          case Opcode::MulSat:
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return mulFirstPs(x, y);
            });
            return true;
          case Opcode::Max:
            // std::max(a,b) == (a < b) ? b : a, NaN/-0 included:
            // ordered-quiet LT is false on NaN, keeping a.
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return _mm256_blendv_ps(x, y,
                                        _mm256_cmp_ps(x, y, _CMP_LT_OQ));
            });
            return true;
          case Opcode::Min:
            // std::min(a,b) == (b < a) ? b : a.
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return _mm256_blendv_ps(x, y,
                                        _mm256_cmp_ps(y, x, _CMP_LT_OQ));
            });
            return true;
          case Opcode::Mask:
            // b != 0 is an unordered compare: NaN masks pass.
            binaryF32(a, b, out, lanes, [](__m256 x, __m256 y) {
                return _mm256_and_ps(
                    x, _mm256_cmp_ps(y, _mm256_setzero_ps(),
                                     _CMP_NEQ_UQ));
            });
            return true;
          default:
            return false;
        }
    }

    return false;
}

bool
vxmUnaryAvx2(DType t, Opcode op, const Vec320 *const *a,
             Vec320 *const *out, int lanes)
{
    if (!coveredLanes(lanes))
        return false;

    if (t == DType::Int8) {
        switch (op) {
          case Opcode::Neg:
            unary8(a, out, lanes, [](__m256i x) {
                return _mm256_sub_epi8(_mm256_setzero_si256(), x);
            });
            return true;
          case Opcode::Abs:
            // Scalar saturates |INT8_MIN| to 127; abs_epi8 keeps -128
            // (0x80), which min_epu8 maps to 127.
            unary8(a, out, lanes, [](__m256i x) {
                return _mm256_min_epu8(_mm256_abs_epi8(x),
                                       _mm256_set1_epi8(127));
            });
            return true;
          case Opcode::Relu:
            unary8(a, out, lanes, [](__m256i x) {
                return _mm256_max_epi8(x, _mm256_setzero_si256());
            });
            return true;
          default:
            // Shift's 64-bit rounding bias stays scalar.
            return false;
        }
    }

    if (t == DType::Int32) {
        switch (op) {
          case Opcode::Neg:
            unary32(a, out, lanes, [](__m256i x) {
                return _mm256_sub_epi32(_mm256_setzero_si256(), x);
            });
            return true;
          case Opcode::Abs:
            unary32(a, out, lanes, [](__m256i x) {
                return _mm256_min_epu32(_mm256_abs_epi32(x),
                                        _mm256_set1_epi32(0x7fffffff));
            });
            return true;
          case Opcode::Relu:
            unary32(a, out, lanes, [](__m256i x) {
                return _mm256_max_epi32(x, _mm256_setzero_si256());
            });
            return true;
          default:
            return false;
        }
    }

    if (t == DType::Fp32) {
        switch (op) {
          case Opcode::Neg:
            // Scalar -a flips the sign bit, NaN included.
            unaryF32(a, out, lanes, [](__m256 x) {
                return _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
            });
            return true;
          case Opcode::Abs:
            unaryF32(a, out, lanes, [](__m256 x) {
                return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
            });
            return true;
          case Opcode::Relu:
            // a > 0 ? a : 0 — ordered-quiet GT sends NaN and -0 to +0,
            // exactly as the scalar ternary does.
            unaryF32(a, out, lanes, [](__m256 x) {
                return _mm256_and_ps(
                    x, _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ));
            });
            return true;
          default:
            // Tanh/Exp/Rsqrt call libm; they stay scalar.
            return false;
        }
    }

    return false;
}

bool
vxmConvertAvx2(DType from, DType to, const Vec320 *const *in,
               Vec320 *const *out, int lanes)
{
    if (!coveredLanes(lanes))
        return false;

    if (from == DType::Int32 && to == DType::Fp32) {
        // cvtepi32_ps rounds to nearest-even, matching the scalar
        // path's double-widen + float narrow (single rounding).
        unary32(in, out, lanes, [](__m256i x) {
            return _mm256_castps_si256(_mm256_cvtepi32_ps(x));
        });
        return true;
    }

    if (from == DType::Int8 &&
        (to == DType::Fp32 || to == DType::Int32)) {
        // Every int8 is exactly representable: no rounding at all.
        if (to == DType::Int32) {
            forEachBlock(lanes, [&](int l, auto h) {
                storeLanes32(out, l, widenInt8(loadBytes(in[0], l, h)),
                             h);
            });
            return true;
        }
        forEachBlock(lanes, [&](int l, auto h) {
            storeLanes32(out, l,
                         map32(widenInt8(loadBytes(in[0], l, h)),
                               [](__m256i x) {
                                   return _mm256_castps_si256(
                                       _mm256_cvtepi32_ps(x));
                               }),
                         h);
        });
        return true;
    }

    if (from == DType::Fp32 && to == DType::Int32) {
        const __m256 hi = _mm256_set1_ps(2147483648.0f);
        const __m256i nmax = _mm256_set1_epi32(0x7fffffff);
        // The low side already lands on 0x80000000 == INT32_MIN.
        unary32(in, out, lanes, [&](__m256i x) {
            return roundF32(x, hi, nmax, /*inclusive=*/true);
        });
        return true;
    }

    if (from == DType::Fp32 && to == DType::Int8) {
        const __m256 hi = _mm256_set1_ps(127.0f);
        const __m256i nmax = _mm256_set1_epi32(127);
        forEachBlock(lanes, [&](int l, auto h) {
            // Inputs above 127.0f (+huge included, which cvt collapsed
            // to 0x80000000) saturate to 127; the packs clamp the rest.
            storeBytes(out[0], l,
                       narrowInt8(map32(loadLanes32(in, l, h),
                                        [&](__m256i x) {
                                            return roundF32(
                                                x, hi, nmax,
                                                /*inclusive=*/false);
                                        })),
                       h);
        });
        return true;
    }

    return false;
}

} // namespace tsp::simd

#else // !x86

namespace tsp::simd {

bool
vxmBinaryAvx2(DType, Opcode, const Vec320 *const *,
              const Vec320 *const *, Vec320 *const *, int)
{
    return false;
}

bool
vxmUnaryAvx2(DType, Opcode, const Vec320 *const *, Vec320 *const *, int)
{
    return false;
}

bool
vxmConvertAvx2(DType, DType, const Vec320 *const *, Vec320 *const *,
               int)
{
    return false;
}

} // namespace tsp::simd

#endif
