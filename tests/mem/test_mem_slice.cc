/**
 * @file
 * MEM slice model: timed read/write, pseudo-dual-port bank rules
 * (violations panic — there is no arbiter), gather/scatter indirect
 * addressing, ECC maintenance, and soft-error injection.
 */

#include <gtest/gtest.h>

#include "mem/mem_slice.hh"

namespace tsp {
namespace {

Vec320
pattern(std::uint8_t seed)
{
    Vec320 v;
    for (int i = 0; i < kLanes; ++i) {
        v.bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(seed + i);
    }
    eccComputeVec(v);
    return v;
}

TEST(MemSlice, WriteThenReadBack)
{
    MemSlice m(Hemisphere::East, 3);
    const Vec320 v = pattern(7);
    m.write(0x10, v, /*now=*/1);
    Vec320 r;
    m.readInto(0x10, /*now=*/2, r);
    EXPECT_EQ(r.bytes, v.bytes);
    EXPECT_EQ(m.reads(), 1u);
    EXPECT_EQ(m.writes(), 1u);
}

TEST(MemSlice, UntouchedReadsZeroWithValidEcc)
{
    MemSlice m(Hemisphere::West, 0);
    Vec320 r;
    m.readInto(0x1f0, 5, r);
    for (const auto b : r.bytes)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(eccCheckVec(r), EccStatus::Ok);
}

TEST(MemSlice, BankBitIsAddressBit12)
{
    EXPECT_EQ(MemSlice::bankOf(0x0000), 0);
    EXPECT_EQ(MemSlice::bankOf(0x0fff), 0);
    EXPECT_EQ(MemSlice::bankOf(0x1000), 1);
    EXPECT_EQ(MemSlice::bankOf(0x1fff), 1);
}

TEST(MemSlice, ReadAndWriteOppositeBanksSameCycle)
{
    MemSlice m(Hemisphere::East, 1);
    m.backdoorWrite(0x0010, pattern(1));
    // Same cycle: read bank 0, write bank 1 — the paper's
    // pseudo-dual-port concurrency (IV.A).
    Vec320 r;
    m.readInto(0x0010, 9, r);
    m.write(0x1010, pattern(2), 9);
    EXPECT_EQ(r.bytes, pattern(1).bytes);
    EXPECT_EQ(m.backdoorRead(0x1010).bytes, pattern(2).bytes);
}

using MemSliceDeath = ::testing::Test;

TEST(MemSliceDeath, SameBankReadWriteConflictPanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ASSERT_DEATH(
        {
            MemSlice m(Hemisphere::East, 2);
            Vec320 r;
            m.readInto(0x0010, 3, r);
            m.write(0x0020, pattern(0), 3); // Same bank, same cycle.
        },
        "bank conflict");
}

TEST(MemSliceDeath, TwoReadsSameCyclePanic)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ASSERT_DEATH(
        {
            MemSlice m(Hemisphere::East, 2);
            Vec320 r;
            m.readInto(0x0010, 3, r);
            m.readInto(0x1010, 3, r); // Even opposite banks.
        },
        "second read");
}

TEST(MemSlice, GatherReadsPerTileAddresses)
{
    MemSlice m(Hemisphere::West, 5);
    // Distinct pattern at two addresses.
    m.backdoorWrite(0x100, pattern(10));
    m.backdoorWrite(0x200, pattern(99));
    std::array<MemAddr, kSuperlanes> addrs;
    for (int sl = 0; sl < kSuperlanes; ++sl)
        addrs[static_cast<std::size_t>(sl)] =
            sl % 2 ? 0x200 : 0x100;
    Vec320 g;
    m.gatherInto(addrs, 4, g);
    EXPECT_EQ(eccCheckVec(g), EccStatus::Ok);
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        const Vec320 src = sl % 2 ? pattern(99) : pattern(10);
        for (int b = 0; b < kWordBytes; ++b) {
            EXPECT_EQ(g.bytes[static_cast<std::size_t>(
                          sl * kWordBytes + b)],
                      src.bytes[static_cast<std::size_t>(
                          sl * kWordBytes + b)]);
        }
    }
}

TEST(MemSlice, ScatterWritesPerTileAddresses)
{
    MemSlice m(Hemisphere::West, 6);
    std::array<MemAddr, kSuperlanes> addrs;
    for (int sl = 0; sl < kSuperlanes; ++sl)
        addrs[static_cast<std::size_t>(sl)] =
            static_cast<MemAddr>(0x300 + sl);
    const Vec320 v = pattern(42);
    m.scatter(addrs, v, 8);
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        const Vec320 back = m.backdoorRead(
            static_cast<MemAddr>(0x300 + sl));
        for (int b = 0; b < kWordBytes; ++b) {
            EXPECT_EQ(back.bytes[static_cast<std::size_t>(
                          sl * kWordBytes + b)],
                      v.bytes[static_cast<std::size_t>(
                          sl * kWordBytes + b)]);
        }
    }
}

TEST(MemSlice, InjectedBitFlipTravelsWithStoredEcc)
{
    MemSlice m(Hemisphere::East, 7);
    m.backdoorWrite(0x40, pattern(5));
    m.injectBitFlip(0x40, /*byte=*/33, /*bit=*/2);
    // The read forwards the stored (stale) ECC; a consumer-side
    // check corrects the flip.
    Vec320 r;
    m.readInto(0x40, 11, r);
    EXPECT_EQ(eccCheckVec(r), EccStatus::Corrected);
    EXPECT_EQ(r.bytes, pattern(5).bytes);
}

TEST(MemSlice, WriteCountsCorrectedStreamErrors)
{
    MemSlice m(Hemisphere::East, 8);
    Vec320 v = pattern(3);
    v.bytes[5] ^= 0x1; // Simulated datapath upset after ECC gen.
    m.write(0x50, v, 2);
    EXPECT_EQ(m.correctedErrors(), 1u);
    EXPECT_EQ(m.backdoorRead(0x50).bytes, pattern(3).bytes);
}

} // namespace
} // namespace tsp
