/**
 * @file
 * Property-style sweep: every lowered conv2d configuration must be
 * bit-exact with the golden reference. Covers channel groups beyond
 * one (inC > 320), output-channel tiling (outC > 320), strides, kernel
 * sizes, padding, odd spatial sizes, and both ReLU settings. Each case
 * also pins its program's hashProgram(): the compiler must keep
 * building the same instructions.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "model/resnet.hh"
#include "oracle.hh"
#include "runtime/session.hh"

namespace tsp {
namespace {

struct ConvCase
{
    int h, w, in_c, out_c, k, stride, pad;
    bool relu;
    const char *name;
    std::uint64_t hash; ///< The compiled program's hashProgram().
};

std::ostream &
operator<<(std::ostream &os, const ConvCase &c)
{
    return os << c.name;
}

class ConvSweep : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvSweep, MatchesGoldenReference)
{
    const ConvCase &p = GetParam();
    Rng rng(0xc0ffee ^ static_cast<std::uint64_t>(p.in_c * 131 +
                                                  p.out_c));
    std::vector<std::int8_t> data(
        static_cast<std::size_t>(p.h) * p.w * p.in_c);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-90, 90));

    const ConvWeights cw = model::makeConvWeights(
        p.out_c, p.in_c, p.k, p.k, /*seed=*/17);
    ConvGeom g;
    g.kh = p.k;
    g.kw = p.k;
    g.stride = p.stride;
    g.pad = p.pad;
    g.relu = p.relu;

    Lowering lw(/*pipelined=*/true);
    LoweredTensor in = lw.inputTensor(p.h, p.w, p.in_c, data);
    LoweredTensor out = lw.conv2d(in, g, cw);

    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
    expectProgramRoundTrips(*sess.program());

    ref::QTensor qin(p.h, p.w, p.in_c);
    qin.data = data;
    const ref::QTensor want =
        ref::conv2d(qin, cw.w.data(), p.out_c, p.k, p.k, p.stride,
                    p.pad, cw.bias.data(), cw.scale.data(), p.relu);
    const ref::QTensor got = sess.readTensor(out);

    ASSERT_EQ(got.data.size(), want.data.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.data.size(); ++i) {
        if (got.data[i] != want.data[i])
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(sess.chip().programHash(), p.hash);
}

const ConvCase kCases[] = {
    {8, 8, 16, 16, 1, 1, 0, true, "c1x1_small", 0xcfc3eb07bd373976ull},
    {8, 8, 16, 16, 3, 1, 1, true, "c3x3_pad", 0x5dd3bcba90be4074ull},
    {9, 7, 24, 40, 3, 1, 1, true, "c3x3_odd_shape", 0x85722fbcfd3f3c5aull},
    {8, 8, 16, 32, 3, 2, 1, true, "c3x3_stride2", 0x5593707595f51a3full},
    {12, 12, 8, 16, 5, 2, 2, true, "c5x5_stride2", 0x48423928c6fcce6eull},
    {6, 6, 16, 16, 3, 1, 0, false, "c3x3_nopad_norelu", 0x9d4e9df51ade2938ull},
    {4, 4, 400, 24, 1, 1, 0, true, "kg2_input", 0x687a2161e145ebe6ull},
    {4, 4, 24, 400, 1, 1, 0, true, "cog2_output", 0x21c48d5dfcbdab04ull},
    {4, 4, 330, 330, 3, 1, 1, false, "kg2_cog2_3x3", 0xbdde7470cd9cab0aull},
    {3, 3, 650, 40, 1, 1, 0, true, "kg3_input", 0x7351668b58489980ull},
    {1, 1, 512, 1000, 1, 1, 0, false, "fc_style", 0x59b5e74c3a3d887aull},
    {16, 16, 8, 8, 3, 1, 1, true, "wide_spatial", 0x8feaac92d033bb0full},
    {5, 5, 16, 16, 2, 1, 0, true, "even_kernel", 0x29fa86b96d1a4fe4ull},
    {7, 7, 64, 64, 3, 2, 1, true, "c3x3_stride2_odd", 0x62c61bd82dff6cb7ull},
};

INSTANTIATE_TEST_SUITE_P(Shapes, ConvSweep, ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace tsp
