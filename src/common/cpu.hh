/**
 * @file
 * Runtime CPU-feature detection for the optional SIMD simulation
 * kernels.
 *
 * The vector kernels (vxm/vxm_kernels_avx2.cc, mxm/mxm_kernels_avx2.cc,
 * mem/ecc_kernels_gfni.cc) are bit-identical to the scalar loops, so
 * selecting them is a pure host-speed decision: use them when the host
 * supports their ISA and nothing forces the scalar path. CI exercises
 * both paths on any host via the TSP_FORCE_SCALAR environment variable
 * (any value other than empty/"0" forces scalar); tests flip the
 * decision in-process with forceScalarKernels(). The SECDED tier
 * additionally needs cpuHasGfniAvx512(), as the MXM VNNI tier needs
 * cpuHasAvx512Vnni().
 */

#ifndef TSP_COMMON_CPU_HH
#define TSP_COMMON_CPU_HH

namespace tsp {

/** @return true when the host CPU supports AVX2 (cached cpuid). */
bool cpuHasAvx2();

/**
 * @return true when the host CPU supports the AVX-512 VNNI dot-
 * product kernels (F+BW+VNNI — the MXM int8 fast path).
 */
bool cpuHasAvx512Vnni();

/**
 * @return true when the host CPU supports AVX-512 Foundation (the
 * 16-wide fp32 kernels — the MXM fp16 fast path needs no VNNI).
 */
bool cpuHasAvx512f();

/**
 * @return true when the host CPU supports the SECDED codec's vector
 * tier (GFNI + AVX-512 F, BW and VBMI — mem/ecc_kernels_gfni.cc).
 */
bool cpuHasGfniAvx512();

/**
 * @return true when the AVX2 simulation kernels should be used: the
 * host has AVX2 and neither TSP_FORCE_SCALAR nor a
 * forceScalarKernels(1) override is in effect.
 */
bool simdKernelsEnabled();

/**
 * Overrides the kernel selection (tests / CLI flags): 1 forces the
 * scalar path, 0 forces SIMD-if-supported (ignoring the environment),
 * -1 restores the TSP_FORCE_SCALAR environment default.
 */
void forceScalarKernels(int force);

} // namespace tsp

#endif // TSP_COMMON_CPU_HH
