/**
 * @file
 * AVX2 lane kernels for the VXM's point-wise operations.
 *
 * Each kernel reproduces the corresponding alu_ops.hh semantics
 * bit-for-bit: two's-complement wrap, saturation clamps, and — for
 * the fp32 paths — one IEEE operation per lane with no reassociation,
 * plus compare/blend sequences whose NaN and signed-zero behavior
 * matches the scalar ternaries exactly. fp16 and the libm unaries
 * (Tanh/Exp/Rsqrt) stay scalar. Partial coverage by design: a kernel
 * returns false for any (dtype, opcode, lanes) combination it does
 * not handle and the caller falls back to the scalar template, so the
 * differential tests exercise identical numerics either way.
 *
 * Operands and results are byte-plane stream groups passed as one
 * pointer per plane (element byte k of lane l is plane k's
 * bytes[l]), so the VXM hands over the tape slots or scratch its
 * stream port returned and the slots its results go to, with no
 * copy. A kernel works on 32 lanes at a time (16 on the last block
 * of a vector length that is an odd multiple of 16): an int32 or
 * fp32 block is four byte-plane loads transposed into lane elements
 * in registers, and transposed back on the way out. It reads and
 * writes lanes [0, lanes) only; plane pointers may be unrelated
 * addresses, and result planes may alias each other but not an
 * operand.
 *
 * Definitions live in vxm_kernels_avx2.cc, compiled with -mavx2;
 * callers gate on tsp::simdKernelsEnabled() (common/cpu.hh).
 */

#ifndef TSP_VXM_VXM_KERNELS_HH
#define TSP_VXM_VXM_KERNELS_HH

#include <cstdint>

#include "arch/types.hh"
#include "isa/opcode.hh"

namespace tsp::simd {

/**
 * Point-wise binary op over @p lanes lane elements (a multiple of 16
 * up to kLanes) of the byte-plane groups @p a and @p b into @p out.
 *
 * @return false when (t, op, lanes) has no vector path.
 */
bool vxmBinaryAvx2(DType t, Opcode op, const Vec320 *const *a,
                   const Vec320 *const *b, Vec320 *const *out,
                   int lanes);

/** Point-wise unary op; same contract as vxmBinaryAvx2. */
bool vxmUnaryAvx2(DType t, Opcode op, const Vec320 *const *a,
                  Vec320 *const *out, int lanes);

/**
 * Element-type conversion (the requantization primitive): handles
 * Int8 -> Int32/Fp32, Int32 -> Fp32 and Fp32 -> Int8/Int32 with
 * round-to-nearest-even and the scalar aluConvert's saturation and
 * NaN-to-zero behavior. Same contract as vxmBinaryAvx2.
 */
bool vxmConvertAvx2(DType from, DType to, const Vec320 *const *in,
                    Vec320 *const *out, int lanes);

} // namespace tsp::simd

#endif // TSP_VXM_VXM_KERNELS_HH
