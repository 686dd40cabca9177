/**
 * @file
 * Stream register file semantics (paper II.A, V.c): one-hop-per-cycle
 * propagation in the direction of flow, values falling off the chip
 * edge, producer overwrites, scheduled future writes, and the
 * two-producers-per-slot panic.
 */

#include <gtest/gtest.h>

#include "arch/config.hh"
#include "stream/fabric.hh"
#include "stream/stream_io.hh"

namespace tsp {
namespace {

Vec320
mark(std::uint8_t v)
{
    Vec320 x;
    x.bytes.fill(v);
    return x;
}

TEST(Fabric, EastwardPropagation)
{
    StreamFabric f;
    const StreamRef s{4, Direction::East};
    f.write(s, 10, mark(7));
    EXPECT_NE(f.peek(s, 10), nullptr);
    EXPECT_EQ(f.peek(s, 11), nullptr);

    f.advance();
    EXPECT_EQ(f.peek(s, 10), nullptr);
    ASSERT_NE(f.peek(s, 11), nullptr);
    EXPECT_EQ(f.peek(s, 11)->bytes[0], 7);

    for (int i = 0; i < 5; ++i)
        f.advance();
    ASSERT_NE(f.peek(s, 16), nullptr);
}

TEST(Fabric, WestwardPropagation)
{
    StreamFabric f;
    const StreamRef s{0, Direction::West};
    f.write(s, 50, mark(9));
    f.advance();
    EXPECT_EQ(f.peek(s, 50), nullptr);
    ASSERT_NE(f.peek(s, 49), nullptr);
    EXPECT_EQ(f.peek(s, 49)->bytes[10], 9);
}

TEST(Fabric, ValuesFallOffTheEdge)
{
    StreamFabric f;
    const StreamRef e{1, Direction::East};
    const StreamRef w{1, Direction::West};
    f.write(e, Layout::numPositions - 1, mark(1));
    f.write(w, 0, mark(2));
    EXPECT_EQ(f.validEntries(), 2u);
    f.advance();
    EXPECT_EQ(f.validEntries(), 0u);
}

TEST(Fabric, ScheduledWritesAppearOnTime)
{
    StreamFabric f;
    const StreamRef s{2, Direction::East};
    f.scheduleWrite(s, 20, mark(5), /*when=*/3);
    f.advance(); // 1
    f.advance(); // 2
    EXPECT_EQ(f.peek(s, 20), nullptr);
    f.advance(); // 3
    ASSERT_NE(f.peek(s, 20), nullptr);
    EXPECT_EQ(f.peek(s, 20)->bytes[0], 5);
}

TEST(Fabric, ProducerOverwritesFlowingValue)
{
    StreamFabric f;
    const StreamRef s{3, Direction::East};
    f.write(s, 10, mark(1)); // Will be at 12 after two hops.
    f.advance();
    f.write(s, 11, mark(2)); // Overwrites the slot at pos 11 now.
    f.advance();
    // Only one value lives on: the overwriting producer's.
    ASSERT_NE(f.peek(s, 12), nullptr);
    EXPECT_EQ(f.peek(s, 12)->bytes[0], 2);
}

TEST(Fabric, IndependentStreamsAndDirections)
{
    StreamFabric f;
    f.write({5, Direction::East}, 30, mark(1));
    f.write({5, Direction::West}, 30, mark(2));
    f.write({6, Direction::East}, 30, mark(3));
    f.advance();
    EXPECT_EQ(f.peek({5, Direction::East}, 31)->bytes[0], 1);
    EXPECT_EQ(f.peek({5, Direction::West}, 29)->bytes[0], 2);
    EXPECT_EQ(f.peek({6, Direction::East}, 31)->bytes[0], 3);
}

TEST(Fabric, HopAccounting)
{
    StreamFabric f;
    f.write({0, Direction::East}, 0, mark(1));
    const auto before = f.totalHops();
    f.advance();
    f.advance();
    EXPECT_EQ(f.totalHops() - before, 2u);
}

TEST(Fabric, ClearInvalidatesEverything)
{
    StreamFabric f;
    f.write({7, Direction::East}, 40, mark(4));
    f.scheduleWrite({7, Direction::East}, 41, mark(5), 10);
    f.clear();
    EXPECT_EQ(f.validEntries(), 0u);
    for (int i = 0; i < 12; ++i)
        f.advance();
    EXPECT_EQ(f.validEntries(), 0u) << "pending writes were dropped";

    // clear() walks only rings holding values: a refilled ring is
    // emptied again, and its slot takes a new value in the same cycle
    // without a stale producer behind it.
    f.write({7, Direction::East}, 40, mark(6));
    f.clear();
    f.write({7, Direction::East}, 40, mark(7));
    EXPECT_EQ(f.validEntries(), 1u);
    EXPECT_EQ(f.peek({7, Direction::East}, 40)->bytes[0], 7);
    f.clear();
    f.clear();
    EXPECT_EQ(f.validEntries(), 0u);
    EXPECT_EQ(f.peek({7, Direction::East}, 40), nullptr);
}

TEST(FabricDeath, TwoProducersSameSlotPanic)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        StreamFabric f;
        f.write({1, Direction::East}, 10, mark(1));
        f.write({1, Direction::East}, 10, mark(2));
    };
    ASSERT_DEATH(body(), "two producers");
}

TEST(Fabric, AdvanceByMatchesPerCycleAdvance)
{
    // Bulk advance must leave the fabric in exactly the state N
    // single advances produce: same positions, same validity, same
    // hop totals — for entries that survive and entries that fall
    // off the edge mid-span.
    StreamFabric a, b;
    for (StreamFabric *f : {&a, &b}) {
        f->write({4, Direction::East}, 10, mark(7));
        f->write({4, Direction::East}, 90, mark(8)); // Falls off.
        f->write({0, Direction::West}, 3, mark(9));  // Falls off.
        f->write({11, Direction::West}, 80, mark(4));
    }
    const Cycle n = 20;
    for (Cycle i = 0; i < n; ++i)
        a.advance();
    b.advanceBy(n);

    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.totalHops(), b.totalHops());
    EXPECT_EQ(a.validEntries(), b.validEntries());
    ASSERT_NE(b.peek({4, Direction::East}, 30), nullptr);
    EXPECT_EQ(b.peek({4, Direction::East}, 30)->bytes[0], 7);
    ASSERT_NE(b.peek({11, Direction::West}, 60), nullptr);
    EXPECT_EQ(b.peek({11, Direction::West}, 60)->bytes[0], 4);
}

TEST(Fabric, AdvanceByAppliesWritesDueAtTarget)
{
    // A pending write due exactly at the jump target is applied when
    // the jump lands (the fabric applies writes for the new cycle),
    // matching what per-cycle advance() does on arrival.
    StreamFabric f;
    const StreamRef s{2, Direction::East};
    f.scheduleWrite(s, 20, mark(5), /*when=*/8);
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{8});
    f.advanceBy(8);
    EXPECT_EQ(f.now(), Cycle{8});
    ASSERT_NE(f.peek(s, 20), nullptr);
    EXPECT_EQ(f.peek(s, 20)->bytes[0], 5);
    EXPECT_EQ(f.earliestPendingCycle(), kNoEventCycle);
}

TEST(Fabric, EarliestPendingCycleTracksSchedule)
{
    StreamFabric f;
    EXPECT_EQ(f.earliestPendingCycle(), kNoEventCycle);
    f.scheduleWrite({1, Direction::East}, 10, mark(1), 12);
    f.scheduleWrite({2, Direction::East}, 11, mark(2), 5);
    // Far beyond the pending ring horizon: exercises the overflow map.
    f.scheduleWrite({3, Direction::East}, 12, mark(3), 500);
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{5});
    for (int i = 0; i < 5; ++i)
        f.advance();
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{12});
    for (int i = 0; i < 7; ++i)
        f.advance();
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{500});
    f.advanceBy(488);
    EXPECT_EQ(f.earliestPendingCycle(), kNoEventCycle);
    ASSERT_NE(f.peek({3, Direction::East}, 12), nullptr);
}

/** Minimal replay tape: every exchange resolves to one fixed slot. */
struct StubReplayer final : TapeReplayer
{
    Vec320 slot{};
    Vec320 *onProduce() override { return &slot; }
    const Vec320 *onConsume() override { return &slot; }
    void
    onConsumeRun(const Vec320 **outs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            outs[i] = &slot;
    }
};

TEST(Fabric, ReplayConsumeResolvesFromTapeNotFabric)
{
    // While a TapeReplayer is attached, consumes read the tape arena;
    // the fabric stays empty and nothing panics.
    ChipConfig cfg;
    StreamFabric f;
    StubReplayer rep;
    rep.slot = mark(9);
    f.attachTapeHooks(nullptr, &rep);
    StreamIo io(cfg, f, "TEST");

    Vec320 out;
    ASSERT_TRUE(io.tryConsume({4, Direction::East}, 10, out));
    EXPECT_EQ(out.bytes[0], 9);

    const Vec320 *outs[4] = {};
    ASSERT_TRUE(io.replayConsumeRun({4, Direction::East}, 10, outs, 4));
    for (const Vec320 *v : outs) {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->bytes[0], 9);
    }
    EXPECT_EQ(io.consumed(), 5u);
}

TEST(FabricDeath, UntaggedEntryConsumedDuringReplayPanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Replay resolves consumes by recorded tape order, so a value
    // poked into the fabric from outside any StreamIo (a direct
    // StreamFabric::write carries kTapeUntagged) would be silently
    // ignored — the replayed consume would read stale arena state
    // instead of the poked value. Both consume paths must hard-fail.
    const auto single = [] {
        ChipConfig cfg;
        StreamFabric f;
        StubReplayer rep;
        f.attachTapeHooks(nullptr, &rep);
        StreamIo io(cfg, f, "TEST");
        f.write({4, Direction::East}, 10, mark(7)); // Untagged poke.
        Vec320 out;
        io.tryConsume({4, Direction::East}, 10, out);
    };
    ASSERT_DEATH(single(), "outside any StreamIo");

    const auto batched = [] {
        ChipConfig cfg;
        StreamFabric f;
        StubReplayer rep;
        f.attachTapeHooks(nullptr, &rep);
        StreamIo io(cfg, f, "TEST");
        // Poke a mid-run register: ids 4..7 are checked one by one.
        f.write({6, Direction::East}, 10, mark(7));
        const Vec320 *outs[4] = {};
        io.replayConsumeRun({4, Direction::East}, 10, outs, 4);
    };
    ASSERT_DEATH(batched(), "outside any StreamIo");
}

TEST(Fabric, FullTraversalTiming)
{
    // A value written at the west edge reaches the east edge after
    // exactly numPositions - 1 hops, then falls off.
    StreamFabric f;
    const StreamRef s{9, Direction::East};
    f.write(s, 0, mark(6));
    for (int i = 0; i < Layout::numPositions - 1; ++i)
        f.advance();
    ASSERT_NE(f.peek(s, Layout::numPositions - 1), nullptr);
    f.advance();
    EXPECT_EQ(f.validEntries(), 0u);
}

} // namespace
} // namespace tsp
