/**
 * @file
 * Differential tests: every SIMD lane kernel against the scalar
 * alu_ops / MXM / SECDED reference it claims to reproduce
 * bit-for-bit.
 *
 * Operands are pseudo-random byte planes with adversarial values
 * written over the first lanes — NaNs, signed zeros, infinities,
 * saturation boundaries, rounding ties — so the compare/blend
 * sequences and clamp fixups are exercised where they can diverge.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.hh"
#include "common/fp16.hh"
#include "mem/ecc.hh"
#include "mxm/mxm_kernels.hh"
#include "vxm/alu_ops.hh"
#include "vxm/vxm_kernels.hh"

namespace tsp {
namespace {

constexpr int kLanes = 320;

std::uint8_t
nextByte(std::uint64_t &s)
{
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(s >> 56);
}

void
fillPlanes(Vec320 *const *p, int g, std::uint64_t seed)
{
    for (int k = 0; k < g; ++k)
        for (int l = 0; l < kLanes; ++l)
            p[k]->bytes[static_cast<std::size_t>(l)] = nextByte(seed);
}

void
fillVec(Vec320 &v, std::uint64_t seed)
{
    Vec320 *p = &v;
    fillPlanes(&p, 1, seed);
}

void
setLane32(Vec320 *const *p, int lane, std::uint32_t u)
{
    for (int k = 0; k < 4; ++k)
        p[k]->bytes[static_cast<std::size_t>(lane)] =
            static_cast<std::uint8_t>(u >> (8 * k));
}

void
setLaneF32(Vec320 *const *p, int lane, float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    setLane32(p, lane, u);
}

/** Floats that stress NaN/zero/rounding/saturation handling. */
const float kSpecialF32[] = {
    0.0f,
    -0.0f,
    __builtin_nanf(""),
    -__builtin_nanf(""),
    __builtin_inff(),
    -__builtin_inff(),
    1e-42f, // Denormal.
    0.5f,
    -0.5f,
    1.5f,
    2.5f, // Ties-to-even vs away-from-zero.
    -1.5f,
    -2.5f,
    126.5f,
    127.0f,
    127.5f,
    128.0f,
    -127.5f,
    -128.0f,
    -128.5f,
    -129.0f,
    2147483520.0f, // Largest float < 2^31.
    2147483648.0f, // == 2^31; saturates int32.
    -2147483648.0f,
    3e9f,
    -3e9f,
    1.0f,
    -1.0f,
};

/**
 * NaNs with distinct payloads, signs and quiet bits. IEEE 754 leaves
 * the payload of a two-NaN result to the implementation; the
 * simulator pins x86's first-operand rule, which only shows when the
 * two operands differ.
 */
const std::uint32_t kNanBits[] = {
    0x7fc94773u, // Quiet, positive.
    0xfffc6fa8u, // Quiet, negative.
    0x7f800001u, // Signaling, positive.
    0xff812345u, // Signaling, negative.
    0x7fffffffu, // Quiet, all payload bits.
};

/** Int32 values that stress the saturating add/sub overflow blends. */
const std::int32_t kSpecialI32[] = {
    0,          1,           -1,          0x7fffffff, -0x7fffffff - 1,
    0x7ffffffe, -0x7fffffff, 0x40000000,  -0x40000000, 123456789,
    -123456789, 0x7fffff00,  -0x7fffff00,
};

void
plantSpecials(Vec320 *const *a, Vec320 *const *b, DType t)
{
    if (t == DType::Fp32) {
        const int n = static_cast<int>(std::size(kSpecialF32));
        // Every special meets every special (n^2 <= 320 lanes is not
        // guaranteed, so pair i with i and with a rotation).
        for (int i = 0; i < n; ++i) {
            setLaneF32(a, i, kSpecialF32[i]);
            setLaneF32(b, i, kSpecialF32[(i * 7 + 3) % n]);
            setLaneF32(a, n + i, kSpecialF32[(i * 5 + 1) % n]);
            setLaneF32(b, n + i, kSpecialF32[i]);
        }
        // Every ordered pair of distinct NaNs, on fixed lanes.
        int lane = 2 * n;
        for (const std::uint32_t x : kNanBits) {
            for (const std::uint32_t y : kNanBits) {
                if (x == y)
                    continue;
                setLane32(a, lane, x);
                setLane32(b, lane, y);
                ++lane;
            }
        }
    } else if (t == DType::Int32) {
        const int n = static_cast<int>(std::size(kSpecialI32));
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                const int lane = i * n + j;
                if (lane >= kLanes)
                    return;
                setLane32(a, lane,
                          static_cast<std::uint32_t>(kSpecialI32[i]));
                setLane32(b, lane,
                          static_cast<std::uint32_t>(kSpecialI32[j]));
            }
    }
    // Int8: 256 random bytes already cover the full value space.
}

void
scalarBinary(DType t, Opcode op, const Vec320 *const *a,
             const Vec320 *const *b, Vec320 *const *out, int lanes)
{
    const int g = dtypeBytes(t);
    std::uint8_t ab[4], bb[4], ob[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k) {
            ab[k] = a[k]->bytes[sl];
            bb[k] = b[k]->bytes[sl];
        }
        const LaneValue r =
            aluBinary(op, t, laneLoad(ab, t), laneLoad(bb, t));
        laneStore(ob, t, r);
        for (int k = 0; k < g; ++k)
            out[k]->bytes[sl] = ob[k];
    }
}

void
scalarUnary(DType t, Opcode op, const Vec320 *const *a,
            Vec320 *const *out, int lanes)
{
    const int g = dtypeBytes(t);
    std::uint8_t ab[4], ob[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k)
            ab[k] = a[k]->bytes[sl];
        const LaneValue r = aluUnary(op, t, laneLoad(ab, t), 0);
        laneStore(ob, t, r);
        for (int k = 0; k < g; ++k)
            out[k]->bytes[sl] = ob[k];
    }
}

void
scalarConvert(DType from, DType to, const Vec320 *const *in,
              Vec320 *const *out, int lanes)
{
    const int gi = dtypeBytes(from);
    const int go = dtypeBytes(to);
    std::uint8_t ib[4], ob[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < gi; ++k)
            ib[k] = in[k]->bytes[sl];
        const LaneValue r = aluConvert(from, to, laneLoad(ib, from));
        laneStore(ob, to, r);
        for (int k = 0; k < go; ++k)
            out[k]->bytes[sl] = ob[k];
    }
}

/**
 * Vector lengths every kernel must match scalar at: one half block,
 * a whole block plus a half, the longest odd multiple of 16 and the
 * full vector (the chip's lengths are the multiples of 16 up to 320).
 */
constexpr int kLaneCounts[] = {16, 48, 304, 320};

/**
 * The planes of one kernel call, each a separate slot of a heap pool
 * in scrambled order: operands and results sit at unrelated,
 * unaligned addresses, as tape slots do. The result planes start as
 * garbage, and ref holds the same garbage for the scalar reference,
 * so comparing whole planes also checks that a kernel writes lanes
 * [0, lanes) and nothing past them.
 */
struct Planes
{
    std::vector<Vec320> pool = std::vector<Vec320>(16);
    Vec320 *a[4], *b[4], *out[4], *ref[4];

    explicit Planes(std::uint64_t seed)
    {
        const int order[16] = {7, 2,  13, 4,  1,  9, 15, 11,
                               3, 8,  0,  6,  14, 5, 12, 10};
        for (int k = 0; k < 4; ++k) {
            a[k] = &pool[static_cast<std::size_t>(order[k])];
            b[k] = &pool[static_cast<std::size_t>(order[4 + k])];
            out[k] = &pool[static_cast<std::size_t>(order[8 + k])];
            ref[k] = &pool[static_cast<std::size_t>(order[12 + k])];
        }
        fillPlanes(out, 4, seed ^ 0x6a09e667f3bcc908ull);
        for (int k = 0; k < 4; ++k)
            *ref[k] = *out[k];
    }
};

void
expectPlanesEq(Vec320 *const *want, Vec320 *const *got, int g,
               const std::string &what)
{
    for (int k = 0; k < g; ++k)
        for (int l = 0; l < kLanes; ++l) {
            const auto sl = static_cast<std::size_t>(l);
            ASSERT_EQ(want[k]->bytes[sl], got[k]->bytes[sl])
                << what << " plane " << k << " lane " << l;
        }
}

std::string
caseName(DType t, Opcode op, int lanes)
{
    return std::string(dtypeName(t)) + " " + opcodeName(op) + " at " +
           std::to_string(lanes) + " lanes";
}

void
checkBinary(DType t, Opcode op, std::uint64_t seed)
{
    for (const int lanes : kLaneCounts) {
        Planes p(seed);
        fillPlanes(p.a, dtypeBytes(t), seed);
        fillPlanes(p.b, dtypeBytes(t), seed ^ 0x9e3779b97f4a7c15ull);
        plantSpecials(p.a, p.b, t);
        ASSERT_TRUE(simd::vxmBinaryAvx2(t, op, p.a, p.b, p.out, lanes))
            << caseName(t, op, lanes);
        scalarBinary(t, op, p.a, p.b, p.ref, lanes);
        expectPlanesEq(p.ref, p.out, 4, caseName(t, op, lanes));
    }
}

void
checkUnary(DType t, Opcode op, std::uint64_t seed)
{
    for (const int lanes : kLaneCounts) {
        Planes p(seed);
        fillPlanes(p.a, dtypeBytes(t), seed);
        fillPlanes(p.b, dtypeBytes(t), seed + 1);
        plantSpecials(p.a, p.b, t);
        ASSERT_TRUE(simd::vxmUnaryAvx2(t, op, p.a, p.out, lanes))
            << caseName(t, op, lanes);
        scalarUnary(t, op, p.a, p.ref, lanes);
        expectPlanesEq(p.ref, p.out, 4, caseName(t, op, lanes));
    }
}

TEST(VxmSimd, Int8BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add,    Opcode::Sub,
                          Opcode::Mul,    Opcode::AddSat,
                          Opcode::SubSat, Opcode::MulSat,
                          Opcode::Max,    Opcode::Min,
                          Opcode::Mask};
    std::uint64_t seed = 11;
    for (Opcode op : ops)
        checkBinary(DType::Int8, op, seed++);
}

TEST(VxmSimd, Int32BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add, Opcode::Sub,    Opcode::Mul,
                          Opcode::Max, Opcode::Min,    Opcode::Mask,
                          Opcode::AddSat, Opcode::SubSat};
    std::uint64_t seed = 23;
    for (Opcode op : ops)
        checkBinary(DType::Int32, op, seed++);
}

TEST(VxmSimd, Fp32BinaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Add,    Opcode::Sub,
                          Opcode::Mul,    Opcode::AddSat,
                          Opcode::SubSat, Opcode::MulSat,
                          Opcode::Max,    Opcode::Min,
                          Opcode::Mask};
    std::uint64_t seed = 37;
    for (Opcode op : ops)
        checkBinary(DType::Fp32, op, seed++);
}

TEST(VxmSimd, UnaryMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const Opcode ops[] = {Opcode::Neg, Opcode::Abs, Opcode::Relu};
    std::uint64_t seed = 51;
    for (DType t : {DType::Int8, DType::Int32, DType::Fp32})
        for (Opcode op : ops)
            checkUnary(t, op, seed++);
}

TEST(VxmSimd, ConvertMatchesScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    struct Pair
    {
        DType from, to;
    };
    const Pair pairs[] = {{DType::Int8, DType::Fp32},
                          {DType::Int8, DType::Int32},
                          {DType::Int32, DType::Fp32},
                          {DType::Fp32, DType::Int8},
                          {DType::Fp32, DType::Int32}};
    std::uint64_t seed = 71;
    for (const Pair &pr : pairs) {
        for (const int lanes : kLaneCounts) {
            const std::string what = std::string(dtypeName(pr.from)) +
                                     "->" + dtypeName(pr.to) + " at " +
                                     std::to_string(lanes) + " lanes";
            Planes p(seed);
            fillPlanes(p.a, dtypeBytes(pr.from), seed);
            fillPlanes(p.b, dtypeBytes(pr.from), seed + 1);
            plantSpecials(p.a, p.b, pr.from);
            ASSERT_TRUE(simd::vxmConvertAvx2(pr.from, pr.to, p.a, p.out,
                                             lanes))
                << what;
            scalarConvert(pr.from, pr.to, p.a, p.ref, lanes);
            expectPlanesEq(p.ref, p.out, 4, what);
        }
        seed += 2;
    }
}

TEST(VxmSimd, DeclinesUncoveredShapes)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    Planes p(5);
    fillPlanes(p.a, 4, 7);
    fillPlanes(p.b, 4, 9);
    // Lane counts off the 16-lane grid, scalar-only dtypes and
    // opcodes all decline so the caller falls back to the scalar
    // templates.
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int8, Opcode::Add, p.a, p.b,
                                     p.out, 33));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int8, Opcode::Add, p.a, p.b,
                                     p.out, 0));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int32, Opcode::Add, p.a,
                                     p.b, p.out, kLanes + 16));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Fp16, Opcode::Add, p.a, p.b,
                                     p.out, kLanes));
    EXPECT_FALSE(simd::vxmBinaryAvx2(DType::Int32, Opcode::MulSat, p.a,
                                     p.b, p.out, kLanes));
    EXPECT_FALSE(simd::vxmUnaryAvx2(DType::Fp32, Opcode::Tanh, p.a,
                                    p.out, kLanes));
    EXPECT_FALSE(simd::vxmConvertAvx2(DType::Fp32, DType::Fp16, p.a,
                                      p.out, kLanes));
}

/** Scalar reference for one MXM int8 ABC broadcast cycle. */
void
mxmScalarRef(const std::int8_t *w, int stride,
             const std::uint8_t *act, std::int32_t *acc, int n,
             bool accumulate)
{
    for (int r = 0; r < n; ++r) {
        std::int32_t sum = 0;
        for (int c = 0; c < n; ++c) {
            sum += static_cast<std::int32_t>(
                       w[static_cast<std::size_t>(r) * stride + c]) *
                   static_cast<std::int8_t>(act[c]);
        }
        if (accumulate)
            acc[r] += sum;
        else
            acc[r] = sum;
    }
}

/** @return per-row weight sums over n columns (the VNNI bias input). */
std::vector<std::int32_t>
rowSums(const std::vector<std::int8_t> &w, int stride, int n)
{
    std::vector<std::int32_t> rs(static_cast<std::size_t>(stride), 0);
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c)
            rs[static_cast<std::size_t>(r)] +=
                w[static_cast<std::size_t>(r) * stride + c];
    }
    return rs;
}

/**
 * Runs every int8 ABC tier this host has over the block
 * [0, rows) x [0, cols) and expects each to equal the full-plane
 * scalar reference, with accumulate off and on (from a nonzero
 * accumulator, so "left unchanged" is observable).
 */
void
expectBoundedTiersMatch(const std::vector<std::int8_t> &w, int stride,
                        const std::vector<std::uint8_t> &act, int n,
                        int rows, int cols, const std::string &what)
{
    const std::vector<std::int32_t> rs = rowSums(w, stride, n);
    for (const bool accumulate : {false, true}) {
        std::vector<std::int32_t> init(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r)
            init[static_cast<std::size_t>(r)] = 1000 * r - 7;
        std::vector<std::int32_t> ref = init;
        mxmScalarRef(w.data(), stride, act.data(), ref.data(), n,
                     accumulate);
        const std::string tag = what + (accumulate ? " acc" : " set");

        std::vector<std::int32_t> got = init;
        simd::mxmAbcInt8Scalar(w.data(), stride, act.data(),
                               got.data(), n, rows, cols, accumulate);
        ASSERT_EQ(ref, got) << "scalar " << tag;
        if (cpuHasAvx2() && n % 32 == 0) {
            got = init;
            ASSERT_TRUE(simd::mxmAbcInt8Avx2(w.data(), stride,
                                             act.data(), got.data(), n,
                                             rows, cols, accumulate));
            ASSERT_EQ(ref, got) << "avx2 " << tag;
        }
        if (cpuHasAvx512Vnni() && n % 64 == 0) {
            got = init;
            ASSERT_TRUE(simd::mxmAbcInt8VnniWindow(
                w.data(), stride, act.data(), n, rs.data(), got.data(), n,
                1, n, rows, cols, accumulate));
            ASSERT_EQ(ref, got) << "vnni " << tag;
        }
    }
}

/** @return a 320-stride plane, random inside [0,rows) x [0,cols). */
std::vector<std::int8_t>
blockPlane(int rows, int cols, std::uint64_t seed)
{
    std::vector<std::int8_t> w(static_cast<std::size_t>(kLanes) *
                               kLanes);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c)
            w[static_cast<std::size_t>(r) * kLanes + c] =
                static_cast<std::int8_t>(nextByte(seed));
    }
    return w;
}

std::vector<std::uint8_t>
randomActs(std::uint64_t seed)
{
    std::vector<std::uint8_t> act(static_cast<std::size_t>(kLanes));
    for (auto &v : act)
        v = nextByte(seed);
    return act;
}

TEST(MxmSimd, KernelsMatchScalar)
{
    const int n = 320;
    std::vector<std::int8_t> w(static_cast<std::size_t>(n) * n);
    std::vector<std::uint8_t> act(static_cast<std::size_t>(n));
    std::uint64_t seed = 97;
    for (auto &v : w)
        v = static_cast<std::int8_t>(nextByte(seed));
    for (auto &v : act)
        v = nextByte(seed);
    // Extremes: rows of -128/+127 against -128/+127 activations.
    for (int c = 0; c < n; ++c) {
        w[static_cast<std::size_t>(c)] = -128;
        w[static_cast<std::size_t>(n) + c] = 127;
        act[static_cast<std::size_t>(c)] =
            (c % 2) ? 0x80 : 0x7f;
    }
    expectBoundedTiersMatch(w, n, act, n, n, n, "dense");
}

TEST(MxmSimd, BoundedKernelsMatchFullPlane)
{
    // Block extents that are and are not multiples of the kernels'
    // 4-row groups and 32/64-column chunks, from empty to full.
    const int extents[] = {0,   1,   2,   3,   4,   5,   7,   8,
                           15,  16,  17,  31,  32,  33,  63,  64,
                           65,  95,  127, 128, 129, 160, 191, 192,
                           193, 255, 256, 257, 300, 317, 318, 319,
                           320};
    const std::vector<std::uint8_t> act = randomActs(5);
    std::uint64_t seed = 11;
    for (const int e : extents) {
        const std::pair<int, int> shapes[] = {
            {e, kLanes}, {kLanes, e}, {e, e}, {e, kLanes - e}};
        for (const auto &[rows, cols] : shapes) {
            const auto w = blockPlane(rows, cols, ++seed);
            expectBoundedTiersMatch(
                w, kLanes, act, kLanes, rows, cols,
                std::to_string(rows) + "x" + std::to_string(cols));
        }
    }
}

TEST(MxmSimd, BoundedKernelsReachBlockEdge)
{
    // The only nonzero weight sits on the block's last row or last
    // column: a tier that rounds the block down would drop it.
    const int extents[] = {1, 3, 4, 5, 31, 32, 33, 63, 64, 65,
                           127, 129, 255, 257, 319, 320};
    const std::vector<std::uint8_t> act = randomActs(23);
    for (const int rows : extents) {
        for (const int cols : {1, 33, 64, 65, 200, 320}) {
            std::vector<std::int8_t> w(
                static_cast<std::size_t>(kLanes) * kLanes);
            w[static_cast<std::size_t>(rows - 1) * kLanes +
              (cols / 2)] = -77;
            expectBoundedTiersMatch(w, kLanes, act, kLanes, rows, cols,
                                    "last row " + std::to_string(rows));
            w.assign(w.size(), 0);
            w[static_cast<std::size_t>(rows / 2) * kLanes + cols - 1] =
                101;
            expectBoundedTiersMatch(w, kLanes, act, kLanes, rows, cols,
                                    "last col " + std::to_string(cols));
        }
    }
}

TEST(MxmSimd, BoundedKernelsAllZeroInstall)
{
    // An all-zero install: every tier zeroes the accumulators, or
    // leaves them untouched when accumulating.
    const std::vector<std::int8_t> w(static_cast<std::size_t>(kLanes) *
                                     kLanes);
    const std::vector<std::uint8_t> act = randomActs(3);
    expectBoundedTiersMatch(w, kLanes, act, kLanes, 0, 0, "zero");
    std::vector<std::int32_t> acc(kLanes, 42);
    simd::mxmAbcInt8Scalar(w.data(), kLanes, act.data(), acc.data(),
                           kLanes, 0, 0, /*accumulate=*/false);
    EXPECT_EQ(acc, std::vector<std::int32_t>(kLanes, 0));
    acc.assign(kLanes, 42);
    simd::mxmAbcInt8Scalar(w.data(), kLanes, act.data(), acc.data(),
                           kLanes, 0, 0, /*accumulate=*/true);
    EXPECT_EQ(acc, std::vector<std::int32_t>(kLanes, 42));
}

TEST(MxmSimd, BoundedKernelsShortVectors)
{
    // Fewer active superlanes: n = 256 keeps both vector tiers, n =
    // 96 leaves VNNI without a path (n % 64 != 0), which must decline
    // rather than compute.
    const std::vector<std::uint8_t> act = randomActs(41);
    for (const int n : {256, 96}) {
        for (const int e : {0, 1, 31, 33, 64, 95, 96}) {
            const int rows = std::min(e, n);
            const auto w = blockPlane(rows, n, 77 + e);
            expectBoundedTiersMatch(w, kLanes, act, n, rows, n,
                                    "n=" + std::to_string(n));
        }
    }
    if (cpuHasAvx512Vnni()) {
        const auto w = blockPlane(8, 8, 1);
        const auto rs = rowSums(w, kLanes, 96);
        std::vector<std::int32_t> acc(kLanes);
        EXPECT_FALSE(simd::mxmAbcInt8VnniWindow(
            w.data(), kLanes, act.data(), kLanes, rs.data(), acc.data(),
            kLanes, 1, 96, 8, 8, false));
    }
}

TEST(MxmSimd, WindowKernelMatchesPerTick)
{
    // A window of k activations at once against k calls of the scalar
    // tick kernel: blocks that do and do not fill the kernel's 4-row
    // groups and 64-column blocks, windows that do and do not fill
    // its 4-activation tiles, accumulator rows pre-filled with
    // garbage (rows past n must keep it), accumulate off and on.
    if (!cpuHasAvx512Vnni())
        GTEST_SKIP() << "no AVX-512 VNNI on this host";
    const int extents[] = {0, 1, 4, 63, 64, 65, 320};
    const int windows[] = {1, 2, 3, 4, 5, 63, 64};
    std::uint64_t seed = 301;
    for (const int n : {64, 128, 320}) {
        for (const int re : extents) {
            for (const int ce : extents) {
                const int rows = std::min(re, n);
                const int cols = std::min(ce, n);
                const auto w = blockPlane(rows, cols, ++seed);
                const auto rs = rowSums(w, kLanes, n);
                for (const int k : windows) {
                    const std::size_t len =
                        static_cast<std::size_t>(k) * kLanes;
                    std::vector<std::uint8_t> acts(len);
                    for (auto &v : acts)
                        v = nextByte(seed);
                    std::vector<std::int32_t> init(len);
                    for (auto &v : init) {
                        v = static_cast<std::int32_t>(
                            nextByte(seed) * 0x01010101u ^ 0x5a5a0000u);
                    }
                    for (const bool accumulate : {false, true}) {
                        std::vector<std::int32_t> want = init;
                        for (int j = 0; j < k; ++j) {
                            const std::size_t at =
                                static_cast<std::size_t>(j) * kLanes;
                            simd::mxmAbcInt8Scalar(
                                w.data(), kLanes, acts.data() + at,
                                want.data() + at, n, rows, cols,
                                accumulate);
                        }
                        std::vector<std::int32_t> got = init;
                        ASSERT_TRUE(simd::mxmAbcInt8VnniWindow(
                            w.data(), kLanes, acts.data(), kLanes,
                            rs.data(), got.data(), kLanes, k, n, rows,
                            cols, accumulate));
                        ASSERT_EQ(want, got)
                            << "n=" << n << " " << rows << "x" << cols
                            << " k=" << k << (accumulate ? " acc" : " set");
                    }
                }
            }
        }
    }
    // No path for lane counts that are not whole 64-column blocks.
    const auto w = blockPlane(8, 8, 1);
    const auto rs = rowSums(w, kLanes, 96);
    const std::vector<std::uint8_t> acts(2 * kLanes);
    std::vector<std::int32_t> acc(2 * kLanes);
    for (const int n : {16, 48, 96, 304}) {
        EXPECT_FALSE(simd::mxmAbcInt8VnniWindow(
            w.data(), kLanes, acts.data(), kLanes, rs.data(), acc.data(),
            kLanes, 2, n, 8, 8, false))
            << n;
    }
}

TEST(MxmSimd, RowSumKernelMatchesScalar)
{
    // Per-row extents in 32-column blocks from empty to full, rows
    // whose extent runs past the vector length (the sum stops at n),
    // four-row groups with mixed extents, and saturated rows.
    if (!cpuHasAvx512Vnni())
        GTEST_SKIP() << "no AVX-512 VNNI on this host";
    constexpr int kBlock = 32;
    std::uint64_t seed = 17;
    std::vector<std::int8_t> w(static_cast<std::size_t>(kLanes) * kLanes);
    std::vector<std::uint8_t> ext(kLanes);
    for (int r = 0; r < kLanes; ++r) {
        ext[static_cast<std::size_t>(r)] =
            static_cast<std::uint8_t>(nextByte(seed) % (kLanes / kBlock + 1));
        const int cols = ext[static_cast<std::size_t>(r)] * kBlock;
        for (int c = 0; c < cols; ++c) {
            w[static_cast<std::size_t>(r) * kLanes + c] =
                static_cast<std::int8_t>(nextByte(seed));
        }
    }
    for (int c = 0; c < kLanes; ++c) {
        w[5 * kLanes + c] = -128;
        w[6 * kLanes + c] = 127;
    }
    ext[5] = ext[6] = kLanes / kBlock;
    for (const int n : {16, 48, 64, 96, 304, 320}) {
        for (const int rows : {0, 1, 3, 4, 5, 7, 319, 320}) {
            std::vector<std::int32_t> want(kLanes, -9);
            std::vector<std::int32_t> got(kLanes, -9);
            simd::mxmRowSumsScalar(w.data(), kLanes, ext.data(), kBlock, n,
                                   rows, want.data());
            ASSERT_TRUE(simd::mxmRowSumsVnni(w.data(), kLanes, ext.data(),
                                             kBlock, n, rows, got.data()));
            ASSERT_EQ(want, got) << "n=" << n << " rows=" << rows;
        }
    }
    // The reference itself: a full saturated row sums exactly.
    std::int32_t sums[7];
    simd::mxmRowSumsScalar(w.data(), kLanes, ext.data(), kBlock, kLanes, 7,
                           sums);
    EXPECT_EQ(sums[5], -128 * kLanes);
    EXPECT_EQ(sums[6], 127 * kLanes);
}

TEST(MxmSimd, AccDrainKernelMatchesScalar)
{
    // An accumulator row's four byte planes, int32 and fp32 bit
    // patterns (NaNs, signed zeros, infinities, extremes planted in
    // the first lanes), into planes at unrelated, unaligned addresses
    // pre-filled with garbage that must read zero past the vector
    // length.
    if (!cpuHasAvx512f())
        GTEST_SKIP() << "no AVX-512F on this host";
    const std::uint32_t specials[] = {
        0x00000000u, 0x80000000u, 0x7fffffffu, 0xffffffffu,
        0x7fc00000u, 0xffc00000u, 0x7fa12345u, 0x7f800000u,
        0xff800000u, 0x00000001u, 0x3f800000u, 0x000000ffu,
        0x0000ff00u, 0x00ff0000u, 0xff000000u, 0x01020304u};
    std::uint64_t seed = 71;
    for (const int lanes : {16, 48, 304, 320}) {
        for (const bool fp32 : {false, true}) {
            std::vector<std::uint32_t> bits(kLanes);
            for (auto &u : bits) {
                u = 0;
                for (int b = 0; b < 4; ++b)
                    u = u << 8 | nextByte(seed);
            }
            std::copy(std::begin(specials), std::end(specials),
                      bits.begin());
            std::vector<std::int32_t> ints(kLanes);
            std::vector<float> floats(kLanes);
            std::memcpy(ints.data(), bits.data(), kLanes * 4);
            std::memcpy(floats.data(), bits.data(), kLanes * 4);
            const void *row = fp32 ? static_cast<const void *>(floats.data())
                                   : static_cast<const void *>(ints.data());

            std::vector<std::uint8_t> want(4 * 401 + 8), got(want.size());
            for (auto &v : want)
                v = nextByte(seed);
            got = want;
            std::uint8_t *wp[4], *gp[4];
            for (int k = 0; k < 4; ++k) {
                wp[k] = want.data() + 3 + 401 * k;
                gp[k] = got.data() + 3 + 401 * k;
            }
            simd::accBytePlanesScalar(row, lanes, kLanes, wp);
            ASSERT_TRUE(simd::accBytePlanesAvx512(row, lanes, kLanes, gp));
            const std::string what = std::string(fp32 ? "fp32" : "int32") +
                                     " lanes=" + std::to_string(lanes);
            ASSERT_EQ(want, got) << what;
            for (int k = 0; k < 4; ++k) {
                for (int l = 0; l < kLanes; ++l) {
                    const std::uint8_t b = l < lanes
                        ? static_cast<std::uint8_t>(
                              bits[static_cast<std::size_t>(l)] >> (8 * k))
                        : 0;
                    ASSERT_EQ(gp[k][l], b) << what << " plane " << k
                                           << " lane " << l;
                }
            }
        }
    }
    std::vector<std::int32_t> row(kLanes);
    std::vector<std::uint8_t> out(4 * kLanes);
    std::uint8_t *p[4] = {out.data(), out.data() + kLanes,
                          out.data() + 2 * kLanes, out.data() + 3 * kLanes};
    EXPECT_FALSE(simd::accBytePlanesAvx512(row.data(), 16, 100, p));
    EXPECT_FALSE(simd::accBytePlanesAvx512(row.data(), 48, 32, p));
}

/**
 * Fp16 bit patterns that stress the fp16->fp32 conversion and the
 * mul/add rounding sequence: NaNs (payloads must propagate), signed
 * zeros and infinities, denormals, the largest finite value.
 */
const std::uint16_t kSpecialF16[] = {
    0x0000, // +0
    0x8000, // -0
    0x7e00, // qNaN
    0xfe00, // -qNaN
    0x7e55, // qNaN with payload
    0x7c00, // +inf
    0xfc00, // -inf
    0x0001, // smallest denormal
    0x03ff, // largest denormal
    0x0400, // smallest normal
    0x7bff, // largest finite (65504)
    0xfbff, // most negative finite
    0x3c00, // 1.0
    0xbc00, // -1.0
    0x3800, // 0.5
    0x4200, // 3.0
    0x3555, // ~0.3333 (inexact in binary)
};

/**
 * Scalar reference for one fp16-mode ABC cycle, written exactly as
 * MxmPlane::stepAbc's scalar fp16 loop: per-row fp32 sum starting at
 * 0.0f, one multiply rounding and one add rounding per column,
 * columns ascending.
 */
void
mxmScalarRefF16(const float *wCols, int stride, const float *act,
                float *acc, int n, bool accumulate)
{
    for (int r = 0; r < n; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < n; ++c)
            sum += wCols[static_cast<std::size_t>(c) * stride + r] *
                   act[c];
        if (accumulate)
            acc[r] += sum;
        else
            acc[r] = sum;
    }
}

/**
 * Bit-pattern comparison (NaN-safe, unlike any float equality), with
 * one relaxation: two NaNs compare equal regardless of payload. When
 * a term mixes NaNs with different payloads, *which* payload the
 * mul/add returns depends on operand order — and the compiler treats
 * float mul/add as commutative (the AVX intrinsics are plain vector
 * `*`/`+` in GCC's headers), so payload choice is not pinned even
 * between two compilations of the scalar loop itself. NaN-ness,
 * infinities, denormals, signed zeros and all rounding are exact.
 */
void
expectF32BitsEq(const std::vector<float> &want,
                const std::vector<float> &got, const char *what)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        std::uint32_t wb, gb;
        std::memcpy(&wb, &want[i], 4);
        std::memcpy(&gb, &got[i], 4);
        if ((wb & 0x7fffffffu) > 0x7f800000u &&
            (gb & 0x7fffffffu) > 0x7f800000u)
            continue; // Both NaN: payload choice is unspecified.
        ASSERT_EQ(wb, gb) << what << " row " << i;
    }
}

TEST(MxmSimd, F16KernelsMatchScalar)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    const int n = 320;
    const int ns = static_cast<int>(std::size(kSpecialF16));

    // Weight bits: pseudo-random fp16 with every special planted in
    // the first rows (so every special multiplies every special via
    // the activation plants below).
    std::vector<std::uint16_t> wbits(static_cast<std::size_t>(n) * n);
    std::uint64_t seed = 131;
    for (auto &b : wbits) {
        b = static_cast<std::uint16_t>(nextByte(seed) |
                                       (nextByte(seed) << 8));
    }
    for (int i = 0; i < ns; ++i)
        for (int c = 0; c < n; ++c)
            wbits[static_cast<std::size_t>(i) * n + c] =
                kSpecialF16[(c + i) % ns];

    // Column-major fp32 image, exactly as buildF16WeightCols makes it.
    std::vector<float> wcols(static_cast<std::size_t>(n) * n);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            wcols[static_cast<std::size_t>(c) * n + r] =
                Fp16::fromBits(wbits[static_cast<std::size_t>(r) * n +
                                     c])
                    .toFloat();

    // Activations: converted fp16 values with specials up front.
    std::vector<float> act(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
        const auto b = static_cast<std::uint16_t>(
            nextByte(seed) | (nextByte(seed) << 8));
        act[static_cast<std::size_t>(c)] =
            Fp16::fromBits(c < 2 * ns ? kSpecialF16[c % ns] : b)
                .toFloat();
    }

    for (bool accumulate : {false, true}) {
        // Seed the accumulators with a value that makes += visible
        // (and, in lane 3, a NaN whose payload must survive +=).
        std::vector<float> ref(static_cast<std::size_t>(n), 5.25f);
        std::vector<float> got(static_cast<std::size_t>(n), 5.25f);
        ref[3] = got[3] = __builtin_nanf("0x1234");
        mxmScalarRefF16(wcols.data(), n, act.data(), ref.data(), n,
                        accumulate);

        ASSERT_TRUE(simd::mxmAbcF16Avx2(wcols.data(), n, act.data(),
                                        got.data(), n, accumulate));
        expectF32BitsEq(ref, got,
                        accumulate ? "avx2 acc" : "avx2 ovw");

        if (cpuHasAvx512f()) {
            std::vector<float> g5(static_cast<std::size_t>(n), 5.25f);
            g5[3] = __builtin_nanf("0x1234");
            ASSERT_TRUE(simd::mxmAbcF16Avx512(wcols.data(), n,
                                              act.data(), g5.data(),
                                              n, accumulate));
            expectF32BitsEq(ref, g5,
                            accumulate ? "avx512 acc" : "avx512 ovw");
        }
    }
}

TEST(MxmSimd, F16KernelsDeclineUncoveredShapes)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    std::vector<float> w(32 * 32, 1.0f), a(32, 1.0f), acc(32, 0.0f);
    EXPECT_FALSE(
        simd::mxmAbcF16Avx2(w.data(), 12, a.data(), acc.data(), 12,
                            false));
    if (cpuHasAvx512f()) {
        EXPECT_FALSE(simd::mxmAbcF16Avx512(w.data(), 8, a.data(),
                                           acc.data(), 8, false));
    }
}

// ---------------------------------------------------------------
// SECDED vector tier (mem/ecc_kernels_gfni.cc) against the scalar
// per-word eccCompute / eccCheckCorrect.
// ---------------------------------------------------------------

/** Forces the GFNI tier on for one test; skips without it. */
class EccSimd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        forceScalarKernels(0);
        if (!(simdKernelsEnabled() && cpuHasGfniAvx512()))
            GTEST_SKIP() << "no GFNI + AVX-512BW on this host";
    }

    void TearDown() override { forceScalarKernels(-1); }

    static void
    expectCodesMatch(Vec320 v, const char *what)
    {
        eccComputeVec(v);
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            ASSERT_EQ(v.ecc[static_cast<std::size_t>(sl)],
                      eccCompute(v.bytes.data() + sl * kWordBytes))
                << what << " superlane " << sl;
        }
    }
};

TEST_F(EccSimd, CodesMatchScalar)
{
    std::uint64_t seed = 211;
    Vec320 v;
    expectCodesMatch(v, "all-zero");
    v.bytes.fill(0xff);
    expectCodesMatch(v, "all-0xff");
    for (int bit = 0; bit < kLanes * 8; ++bit) {
        Vec320 one;
        one.bytes[static_cast<std::size_t>(bit / 8)] =
            static_cast<std::uint8_t>(1u << (bit % 8));
        expectCodesMatch(one, "single-bit");
    }
    for (int trial = 0; trial < 2000; ++trial) {
        fillVec(v, seed++);
        expectCodesMatch(v, "random");
        // Sparse: about one byte in 16 holds one set bit.
        Vec320 sparse;
        for (auto &b : sparse.bytes) {
            const std::uint8_t r = nextByte(seed);
            if (r < 16)
                b = static_cast<std::uint8_t>(1u << (r % 8));
        }
        expectCodesMatch(sparse, "sparse");
    }
}

TEST_F(EccSimd, CheckMatchesScalar)
{
    // 0-4 flips over data and check bits, half of them piled into one
    // word, and now and then a stray bit 9-15 in a stored code: the
    // tier must return the scalar status and leave the same bytes and
    // codes as the scalar check of every word.
    std::uint64_t seed = 307;
    int seen[3] = {0, 0, 0};
    for (int trial = 0; trial < 100000; ++trial) {
        Vec320 v;
        fillVec(v, seed++);
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            v.ecc[static_cast<std::size_t>(sl)] =
                eccCompute(v.bytes.data() + sl * kWordBytes);
        }
        const int flips = nextByte(seed) % 5;
        const int pile = nextByte(seed) % kSuperlanes;
        for (int f = 0; f < flips; ++f) {
            const int sl =
                (nextByte(seed) & 1) ? pile : nextByte(seed) % kSuperlanes;
            const int bit =
                ((nextByte(seed) << 8) | nextByte(seed)) % 137;
            if (bit < 128) {
                v.bytes[static_cast<std::size_t>(sl * 16 + bit / 8)] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            } else {
                v.ecc[static_cast<std::size_t>(sl)] ^=
                    static_cast<std::uint16_t>(1u << (bit - 128));
            }
        }
        if (nextByte(seed) % 11 == 0) {
            v.ecc[nextByte(seed) % kSuperlanes] ^=
                static_cast<std::uint16_t>(1u << (9 + nextByte(seed) % 7));
        }

        Vec320 ref = v;
        EccStatus want = EccStatus::Ok;
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            want = std::max(want,
                            eccCheckCorrect(ref.bytes.data() +
                                                sl * kWordBytes,
                                            ref.ecc[static_cast<
                                                std::size_t>(sl)]));
        }
        ASSERT_EQ(eccCheckVec(v), want) << "trial " << trial;
        ASSERT_EQ(v.bytes, ref.bytes) << "trial " << trial;
        ASSERT_EQ(v.ecc, ref.ecc) << "trial " << trial;
        ++seen[static_cast<int>(want)];
    }
    // Every outcome must be exercised for the match to mean anything.
    EXPECT_GT(seen[static_cast<int>(EccStatus::Ok)], 0);
    EXPECT_GT(seen[static_cast<int>(EccStatus::Corrected)], 0);
    EXPECT_GT(seen[static_cast<int>(EccStatus::Uncorrectable)], 0);
}

} // namespace
} // namespace tsp
