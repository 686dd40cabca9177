/**
 * @file
 * Parameterized sweeps of the non-conv engines — max pooling,
 * residual addition (including the same-group staging fallback),
 * and global average pooling — against the golden reference, each
 * with its program's hashProgram() pinned.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "model/resnet.hh"
#include "oracle.hh"
#include "runtime/session.hh"

namespace tsp {
namespace {

std::vector<std::int8_t>
randomData(int h, int w, int c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> d(static_cast<std::size_t>(h) * w * c);
    for (auto &v : d)
        v = static_cast<std::int8_t>(rng.intIn(-110, 110));
    return d;
}

void
expectEqual(const ref::QTensor &got, const ref::QTensor &want)
{
    ASSERT_EQ(got.data.size(), want.data.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.data.size(); ++i)
        bad += got.data[i] != want.data[i];
    EXPECT_EQ(bad, 0u);
}

struct PoolCase
{
    int h, w, c, k, stride, pad;
    const char *name;
    std::uint64_t hash; ///< The compiled program's hashProgram().
};

void
PrintTo(const PoolCase &c, std::ostream *os)
{
    *os << c.name;
}

class PoolSweep : public ::testing::TestWithParam<PoolCase>
{
};

TEST_P(PoolSweep, MatchesReference)
{
    const PoolCase &p = GetParam();
    const auto data = randomData(p.h, p.w, p.c, 31);
    Lowering lw(true);
    auto in = lw.inputTensor(p.h, p.w, p.c, data);
    auto out = lw.maxPool(in, p.k, p.stride, p.pad);
    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
    expectProgramRoundTrips(*sess.program());
    ref::QTensor qin(p.h, p.w, p.c);
    qin.data = data;
    expectEqual(sess.readTensor(out),
                ref::maxPool(qin, p.k, p.stride, p.pad));
    EXPECT_EQ(sess.chip().programHash(), p.hash);
}

const PoolCase kPools[] = {
    {8, 8, 16, 3, 2, 1, "p3s2", 0x2729d3efd61372c8ull},
    {9, 9, 8, 3, 1, 1, "p3s1_odd", 0xa213c38d77f684baull},
    // k != 3: serial plan.
    {8, 8, 16, 2, 2, 0, "p2s2_serial", 0xe01d3f0d8b9b1518ull},
    {12, 8, 330, 3, 2, 1, "p3_kg2", 0x0d5a411dbbcf4340ull},
    {6, 6, 8, 3, 3, 0, "p3s3", 0x82cc4d2e9068a63aull},
};

INSTANTIATE_TEST_SUITE_P(Shapes, PoolSweep, ::testing::ValuesIn(kPools),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

struct ResCase
{
    int h, w, c;
    float sa, sb;
    bool relu;
    const char *name;
    std::uint64_t hash;
};

void
PrintTo(const ResCase &c, std::ostream *os)
{
    *os << c.name;
}

class ResidualSweep : public ::testing::TestWithParam<ResCase>
{
};

TEST_P(ResidualSweep, MatchesReference)
{
    const ResCase &p = GetParam();
    const auto da = randomData(p.h, p.w, p.c, 41);
    const auto db = randomData(p.h, p.w, p.c, 43);
    Lowering lw(true);
    auto a = lw.inputTensor(p.h, p.w, p.c, da);
    auto b = lw.inputTensor(p.h, p.w, p.c, db);
    auto out = lw.residualAdd(a, b, p.sa, p.sb, p.relu);
    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
    expectProgramRoundTrips(*sess.program());
    ref::QTensor qa(p.h, p.w, p.c), qb(p.h, p.w, p.c);
    qa.data = da;
    qb.data = db;
    expectEqual(sess.readTensor(out),
                ref::residualAdd(qa, qb, p.sa, p.sb, p.relu));
    EXPECT_EQ(sess.chip().programHash(), p.hash);
}

const ResCase kRes[] = {
    {8, 8, 16, 0.7f, 0.5f, true, "basic", 0x6f8a53afab34be54ull},
    {5, 7, 24, 1.0f, 1.0f, false, "norelu_odd", 0x51b8474cf2279b80ull},
    {4, 4, 400, 0.3f, 0.9f, true, "kg2", 0xf34ddb30c161b974ull},
    {8, 8, 16, 2.0f, 2.0f, true, "saturating", 0x6f8a53afab34be54ull},
    {1, 4, 8, 0.5f, 0.5f, true, "single_row", 0xb7b1844ba583db49ull},
};

INSTANTIATE_TEST_SUITE_P(Shapes, ResidualSweep,
                         ::testing::ValuesIn(kRes),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(ResidualStaging, SameGroupOperandsAreCopied)
{
    // Force both operands into the same slice group by allocating
    // three dummies between them (group rotation is mod 4).
    const int h = 4, w = 4, c = 8;
    const auto da = randomData(h, w, c, 51);
    const auto db = randomData(h, w, c, 53);
    Lowering lw(true);
    auto a = lw.inputTensor(h, w, c, da);
    lw.inputTensor(h, w, c, da);
    lw.inputTensor(h, w, c, da);
    lw.inputTensor(h, w, c, da);
    auto b = lw.inputTensor(h, w, c, db); // Same group as a.
    ASSERT_EQ(Lowering::groupOf(a), Lowering::groupOf(b));
    auto out = lw.residualAdd(a, b, 0.5f, 0.25f, true);
    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
    expectProgramRoundTrips(*sess.program());
    ref::QTensor qa(h, w, c), qb(h, w, c);
    qa.data = da;
    qb.data = db;
    expectEqual(sess.readTensor(out),
                ref::residualAdd(qa, qb, 0.5f, 0.25f, true));
    EXPECT_EQ(sess.chip().programHash(), 0xcc8b63806a8a3ef7ull);
}

struct GapCase
{
    int h, w, c;
    const char *name;
    std::uint64_t hash;
};

void
PrintTo(const GapCase &c, std::ostream *os)
{
    *os << c.name;
}

class GapSweep : public ::testing::TestWithParam<GapCase>
{
};

TEST_P(GapSweep, MatchesReference)
{
    const GapCase &p = GetParam();
    const auto data = randomData(p.h, p.w, p.c, 61);
    const float scale = 1.0f / static_cast<float>(p.h * p.w);
    Lowering lw(true);
    auto in = lw.inputTensor(p.h, p.w, p.c, data);
    auto out = lw.globalAvgPool(in, scale);
    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
    expectProgramRoundTrips(*sess.program());
    ref::QTensor qin(p.h, p.w, p.c);
    qin.data = data;
    expectEqual(sess.readTensor(out),
                ref::globalAvgPool(qin, scale));
    EXPECT_EQ(sess.chip().programHash(), p.hash);
}

const GapCase kGaps[] = {
    {7, 7, 64, "g7x7", 0x28c249850b49302full},
    {7, 7, 2048, "g7x7_kg7", 0xa212aaf1443751bcull},
    {1, 1, 16, "degenerate", 0xc41c36533d6bae94ull},
    {5, 3, 330, "odd_kg2", 0xee912b8248b1b7ecull},
};

INSTANTIATE_TEST_SUITE_P(Shapes, GapSweep, ::testing::ValuesIn(kGaps),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace tsp
