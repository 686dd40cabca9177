/**
 * @file
 * SECDED properties: exhaustive single-bit correction over data and
 * check bits, double-bit detection, zero-word code, and vector-level
 * helpers — the paper's 9-bit code over 128-bit words (II.D). The
 * exhaustive properties also run through eccCheckVec on each kernel
 * tier (scalar and GFNI), with the word under test among clean ones.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/cpu.hh"
#include "common/rng.hh"
#include "mem/ecc.hh"

namespace tsp {
namespace {

using Word = std::array<std::uint8_t, 16>;

Word
randomWord(Rng &rng)
{
    Word w;
    for (auto &b : w)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    return w;
}

TEST(Ecc, ZeroWordHasZeroCode)
{
    Word w{};
    EXPECT_EQ(eccCompute(w.data()), 0u);
    std::uint16_t code = 0;
    EXPECT_EQ(eccCheckCorrect(w.data(), code), EccStatus::Ok);
}

TEST(Ecc, CleanWordsPass)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Word w = randomWord(rng);
        std::uint16_t code = eccCompute(w.data());
        EXPECT_EQ(code & ~0x1ffu, 0u) << "code uses 9 bits only";
        EXPECT_EQ(eccCheckCorrect(w.data(), code), EccStatus::Ok);
    }
}

TEST(Ecc, EverySingleDataBitCorrects)
{
    Rng rng(2);
    const Word orig = randomWord(rng);
    const std::uint16_t code = eccCompute(orig.data());
    for (int bit = 0; bit < 128; ++bit) {
        Word w = orig;
        w[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        std::uint16_t c = code;
        ASSERT_EQ(eccCheckCorrect(w.data(), c), EccStatus::Corrected)
            << "bit " << bit;
        EXPECT_EQ(w, orig) << "bit " << bit;
    }
}

TEST(Ecc, EverySingleCheckBitCorrects)
{
    Rng rng(3);
    Word orig = randomWord(rng);
    const std::uint16_t code = eccCompute(orig.data());
    for (int bit = 0; bit < 9; ++bit) {
        Word w = orig;
        std::uint16_t c =
            static_cast<std::uint16_t>(code ^ (1u << bit));
        ASSERT_EQ(eccCheckCorrect(w.data(), c), EccStatus::Corrected)
            << "check bit " << bit;
        EXPECT_EQ(w, orig);
        EXPECT_EQ(c, code);
    }
}

TEST(Ecc, DoubleBitErrorsDetected)
{
    Rng rng(4);
    for (int trial = 0; trial < 500; ++trial) {
        Word orig = randomWord(rng);
        const std::uint16_t code = eccCompute(orig.data());
        const int b1 = static_cast<int>(rng.nextBelow(128));
        int b2 = static_cast<int>(rng.nextBelow(128));
        while (b2 == b1)
            b2 = static_cast<int>(rng.nextBelow(128));
        Word w = orig;
        w[static_cast<std::size_t>(b1 / 8)] ^=
            static_cast<std::uint8_t>(1u << (b1 % 8));
        w[static_cast<std::size_t>(b2 / 8)] ^=
            static_cast<std::uint8_t>(1u << (b2 % 8));
        std::uint16_t c = code;
        EXPECT_EQ(eccCheckCorrect(w.data(), c),
                  EccStatus::Uncorrectable)
            << b1 << "," << b2;
    }
}

TEST(Ecc, DataPlusCheckDoubleDetected)
{
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        Word w = randomWord(rng);
        std::uint16_t c = eccCompute(w.data());
        const int db = static_cast<int>(rng.nextBelow(128));
        const int cb = static_cast<int>(rng.nextBelow(9));
        w[static_cast<std::size_t>(db / 8)] ^=
            static_cast<std::uint8_t>(1u << (db % 8));
        c = static_cast<std::uint16_t>(c ^ (1u << cb));
        EXPECT_EQ(eccCheckCorrect(w.data(), c),
                  EccStatus::Uncorrectable);
    }
}

TEST(Ecc, ExhaustiveAllPairsDoubleBitNeverMiscorrects)
{
    // Every one of the C(137,2) = 9316 distinct double flips across
    // the full codeword (128 data + 9 check bits) must come back
    // Uncorrectable — and, critically, must never *miscorrect*: an
    // Uncorrectable result leaves word and code exactly as presented,
    // so no consumer can be handed plausibly-repaired garbage.
    Rng rng(7);
    const Word orig = randomWord(rng);
    const std::uint16_t code = eccCompute(orig.data());

    auto flip = [](Word &w, std::uint16_t &c, int bit) {
        if (bit < 128) {
            w[static_cast<std::size_t>(bit / 8)] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
            c = static_cast<std::uint16_t>(c ^ (1u << (bit - 128)));
        }
    };

    for (int b1 = 0; b1 < 137; ++b1) {
        for (int b2 = b1 + 1; b2 < 137; ++b2) {
            Word w = orig;
            std::uint16_t c = code;
            flip(w, c, b1);
            flip(w, c, b2);
            const Word damaged = w;
            const std::uint16_t damaged_code = c;
            ASSERT_EQ(eccCheckCorrect(w.data(), c),
                      EccStatus::Uncorrectable)
                << b1 << "," << b2;
            ASSERT_EQ(w, damaged) << b1 << "," << b2;
            ASSERT_EQ(c, damaged_code) << b1 << "," << b2;
        }
    }
}

TEST(Ecc, ExhaustiveTripleFlipsStayInsideTheWord)
{
    // An odd number of three or more flips can give any 8-bit
    // syndrome, including ones past the last codeword position
    // (136). Over all C(137,3) = 419,220 triple flips of one
    // codeword, every result is Corrected (possibly a miscorrection:
    // SECDED cannot tell three flips from one) or Uncorrectable, and
    // a correction never writes outside the 16-byte word. The guard
    // after the word spans every byte an int16 bit index could reach.
    Rng rng(9);
    const Word orig = randomWord(rng);
    const std::uint16_t code = eccCompute(orig.data());

    constexpr std::size_t kFront = 16;
    constexpr std::size_t kBack = 4096;
    std::vector<std::uint8_t> buf(kFront + orig.size() + kBack);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(0xa5 ^ i);
    const std::vector<std::uint8_t> clean = buf;
    std::uint8_t *const word = buf.data() + kFront;

    auto flip = [&](std::uint16_t &c, int bit) {
        if (bit < 128) {
            word[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
            c = static_cast<std::uint16_t>(c ^ (1u << (bit - 128)));
        }
    };

    std::size_t uncorrectable = 0;
    for (int b1 = 0; b1 < 137; ++b1) {
        for (int b2 = b1 + 1; b2 < 137; ++b2) {
            for (int b3 = b2 + 1; b3 < 137; ++b3) {
                std::memcpy(word, orig.data(), orig.size());
                std::uint16_t c = code;
                flip(c, b1);
                flip(c, b2);
                flip(c, b3);
                const EccStatus st = eccCheckCorrect(word, c);
                ASSERT_TRUE(st == EccStatus::Corrected ||
                            st == EccStatus::Uncorrectable)
                    << b1 << "," << b2 << "," << b3;
                ASSERT_EQ(c & ~0x1ffu, 0u)
                    << b1 << "," << b2 << "," << b3;
                ASSERT_EQ(std::memcmp(buf.data(), clean.data(), kFront),
                          0)
                    << b1 << "," << b2 << "," << b3;
                ASSERT_EQ(std::memcmp(word + orig.size(),
                                      clean.data() + kFront +
                                          orig.size(),
                                      kBack),
                          0)
                    << b1 << "," << b2 << "," << b3;
                uncorrectable += st == EccStatus::Uncorrectable;
            }
        }
    }
    // The 137 bits sit one each at codeword positions 0 (overall
    // parity) to 136, and three flips leave the syndrome at the XOR
    // of their positions: exactly the triples whose XOR lies past 136
    // are uncorrectable.
    std::size_t past_end = 0;
    for (int p1 = 0; p1 < 137; ++p1) {
        for (int p2 = p1 + 1; p2 < 137; ++p2) {
            for (int p3 = p2 + 1; p3 < 137; ++p3)
                past_end += (p1 ^ p2 ^ p3) > 136 ? 1 : 0;
        }
    }
    EXPECT_GT(past_end, 0u);
    EXPECT_EQ(uncorrectable, past_end);
}

TEST(Ecc, VectorRoundTripOnRandomVectors)
{
    // eccComputeVec / eccCheckVec round-trip: freshly coded random
    // vectors always check Ok with data untouched, and a single flip
    // in any superlane is restored to the original bytes.
    Rng rng(8);
    for (int trial = 0; trial < 100; ++trial) {
        Vec320 v;
        for (auto &b : v.bytes)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        eccComputeVec(v);
        const Vec320 orig = v;
        ASSERT_EQ(eccCheckVec(v), EccStatus::Ok);
        ASSERT_EQ(v.bytes, orig.bytes);
        ASSERT_EQ(v.ecc, orig.ecc);

        const int sl = static_cast<int>(rng.nextBelow(kSuperlanes));
        const int bit = static_cast<int>(rng.nextBelow(128));
        Vec320 hit = orig;
        hit.bytes[static_cast<std::size_t>(sl * 16 + bit / 8)] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        ASSERT_EQ(eccCheckVec(hit), EccStatus::Corrected);
        ASSERT_EQ(hit.bytes, orig.bytes);
        ASSERT_EQ(hit.ecc, orig.ecc);
    }
}

TEST(Ecc, VectorHelpersCoverAllSuperlanes)
{
    Rng rng(6);
    Vec320 v;
    for (auto &b : v.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    eccComputeVec(v);
    EXPECT_EQ(eccCheckVec(v), EccStatus::Ok);

    // Flip one bit in superlane 13.
    v.bytes[13 * 16 + 5] ^= 0x10;
    Vec320 corrected = v;
    EXPECT_EQ(eccCheckVec(corrected), EccStatus::Corrected);
    // Each superlane's word is independently protected.
    Vec320 double_err = v;
    double_err.bytes[13 * 16 + 5] ^= 0x20; // Second flip, same word.
    EXPECT_EQ(eccCheckVec(double_err), EccStatus::Uncorrectable);
}

/**
 * Runs eccComputeVec / eccCheckVec on one kernel tier: the scalar
 * loops (forceScalarKernels(1)) or the GFNI tier
 * (forceScalarKernels(0)), which skips on a host without it. The
 * word under test sits at an inner superlane among clean random
 * words, so the vector tier's packing of codes is covered too.
 */
class EccVecTier : public ::testing::TestWithParam<bool>
{
  protected:
    static constexpr int kSl = 13;

    void
    SetUp() override
    {
        forceScalarKernels(GetParam() ? 0 : 1);
        if (GetParam() && !(simdKernelsEnabled() && cpuHasGfniAvx512()))
            GTEST_SKIP() << "no GFNI + AVX-512 BW/VBMI on this host";
    }

    void TearDown() override { forceScalarKernels(-1); }

    /** @return a vector of random words, coded on this tier. */
    static Vec320
    codedVector(std::uint64_t seed)
    {
        Rng rng(seed);
        Vec320 v;
        for (auto &b : v.bytes)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        eccComputeVec(v);
        return v;
    }

    /** Flips codeword bit @p bit (data 0..127, check 128..136). */
    static void
    flip(Vec320 &v, int bit)
    {
        if (bit < 128) {
            v.bytes[static_cast<std::size_t>(kSl * 16 + bit / 8)] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
            v.ecc[kSl] =
                static_cast<std::uint16_t>(v.ecc[kSl] ^ (1u << (bit - 128)));
        }
    }
};

TEST_P(EccVecTier, CleanVectorIsOk)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Vec320 v = codedVector(seed);
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            ASSERT_EQ(v.ecc[static_cast<std::size_t>(sl)],
                      eccCompute(v.bytes.data() + sl * kWordBytes))
                << "seed " << seed << " superlane " << sl;
        }
        const Vec320 clean = v;
        ASSERT_EQ(eccCheckVec(v), EccStatus::Ok) << "seed " << seed;
        ASSERT_EQ(v, clean) << "seed " << seed;
    }
}

TEST_P(EccVecTier, EverySingleFlipCorrects)
{
    const Vec320 orig = codedVector(21);
    for (int bit = 0; bit < 137; ++bit) {
        Vec320 v = orig;
        flip(v, bit);
        ASSERT_EQ(eccCheckVec(v), EccStatus::Corrected) << "bit " << bit;
        ASSERT_EQ(v, orig) << "bit " << bit;
    }
}

TEST_P(EccVecTier, EveryDoubleFlipIsUncorrectableAndUntouched)
{
    const Vec320 orig = codedVector(22);
    int pairs = 0;
    for (int b1 = 0; b1 < 137; ++b1) {
        for (int b2 = b1 + 1; b2 < 137; ++b2) {
            Vec320 v = orig;
            flip(v, b1);
            flip(v, b2);
            const Vec320 damaged = v;
            ASSERT_EQ(eccCheckVec(v), EccStatus::Uncorrectable)
                << b1 << "," << b2;
            ASSERT_EQ(v, damaged) << b1 << "," << b2;
            ++pairs;
        }
    }
    EXPECT_EQ(pairs, 9316);
}

TEST_P(EccVecTier, EveryTripleFlipMatchesScalarCheck)
{
    // Three flips may miscorrect or be uncorrectable; either way the
    // tier must do exactly what the scalar check does to the word,
    // and leave the clean words alone.
    const Vec320 orig = codedVector(23);
    int triples = 0;
    for (int b1 = 0; b1 < 137; ++b1) {
        for (int b2 = b1 + 1; b2 < 137; ++b2) {
            for (int b3 = b2 + 1; b3 < 137; ++b3) {
                Vec320 v = orig;
                flip(v, b1);
                flip(v, b2);
                flip(v, b3);
                Vec320 ref = v;
                const EccStatus want = eccCheckCorrect(
                    ref.bytes.data() + kSl * kWordBytes, ref.ecc[kSl]);
                ASSERT_EQ(eccCheckVec(v), want)
                    << b1 << "," << b2 << "," << b3;
                ASSERT_EQ(v, ref) << b1 << "," << b2 << "," << b3;
                ++triples;
            }
        }
    }
    EXPECT_EQ(triples, 419220);
}

INSTANTIATE_TEST_SUITE_P(Tiers, EccVecTier, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "Gfni" : "Scalar";
                         });

} // namespace
} // namespace tsp
