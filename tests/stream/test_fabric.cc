/**
 * @file
 * Stream register file semantics (paper II.A, V.c): one-hop-per-cycle
 * propagation in the direction of flow, values falling off the chip
 * edge, producer overwrites, scheduled future writes, and the
 * two-producers-per-slot panic, and the slot pool behind the registers
 * (one slot per value held, stable addresses); and the StreamIo port
 * over it on both tiers: run consumes against single consumes, strict
 * misses, tape resolution, in-place produces, in-place consumes of
 * clean registers, and corrections in each consumer's own copy, with
 * and without a fault injector.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "common/snapshot_io.hh"
#include "mem/ecc.hh"
#include "mem/fault.hh"
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
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{5});
    for (int i = 0; i < 5; ++i)
        f.advance();
    EXPECT_EQ(f.earliestPendingCycle(), Cycle{12});
    for (int i = 0; i < 7; ++i)
        f.advance();
    EXPECT_EQ(f.earliestPendingCycle(), kNoEventCycle);
}

/** Minimal replay tape: every exchange resolves to one fixed slot. */
struct StubReplayer final : TapeReplayer
{
    Vec320 slot{};
    Vec320 *onProduce() override { return &slot; }
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
    f.attachTapeReplayer(&rep);
    StreamIo io(cfg, f, "TEST");

    Vec320 out;
    const Vec320 *v = io.tryConsume({4, Direction::East}, 10, out);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->bytes[0], 9);

    Vec320 scratch[4];
    const Vec320 *outs[4] = {};
    io.consumeRun({4, Direction::East}, 10, scratch, outs, 4);
    for (const Vec320 *o : outs) {
        ASSERT_NE(o, nullptr);
        EXPECT_EQ(o->bytes[0], 9);
    }
    EXPECT_EQ(io.consumed(), 5u);
}

TEST(FabricDeath, UntaggedEntryConsumedDuringReplayPanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Replay keeps the fabric empty and resolves consumes in tape
    // order, so a value poked into the fabric from outside any
    // StreamIo (a direct StreamFabric::write) would be silently
    // ignored — the replayed consume would read the tape instead of
    // the poked value. Both consume paths must hard-fail.
    const auto single = [] {
        ChipConfig cfg;
        StreamFabric f;
        StubReplayer rep;
        f.attachTapeReplayer(&rep);
        StreamIo io(cfg, f, "TEST");
        f.write({4, Direction::East}, 10, mark(7)); // Out-of-band poke.
        Vec320 out;
        io.tryConsume({4, Direction::East}, 10, out);
    };
    ASSERT_DEATH(single(), "value\\(s\\) on the fabric");

    const auto batched = [] {
        ChipConfig cfg;
        StreamFabric f;
        StubReplayer rep;
        f.attachTapeReplayer(&rep);
        StreamIo io(cfg, f, "TEST");
        // Poke a register of the run's third stream.
        f.write({6, Direction::East}, 10, mark(7));
        Vec320 scratch[4];
        const Vec320 *outs[4] = {};
        io.consumeRun({4, Direction::East}, 10, scratch, outs, 4);
    };
    ASSERT_DEATH(batched(), "value\\(s\\) on the fabric");
}

/** A value with valid codes and lanes 0..3 set from @p seed. */
Vec320
encoded(std::uint8_t seed)
{
    Vec320 x = mark(seed);
    for (int l = 0; l < 4; ++l)
        x.bytes[static_cast<std::size_t>(l)] =
            static_cast<std::uint8_t>(seed * 3 + l);
    eccComputeVec(x);
    return x;
}

/** Streams s4..s7 east at position 10: s6 silent, s5 one bit off. */
void
stageRun(StreamFabric &f)
{
    f.write({4, Direction::East}, 10, encoded(1));
    Vec320 flipped = encoded(2);
    flipped.bytes[17] ^= 0x08; // Corrected by the consumer's check.
    f.write({5, Direction::East}, 10, flipped);
    f.write({7, Direction::East}, 10, encoded(4));
}

TEST(StreamIo, RunConsumeEqualsSingleConsumes)
{
    // Stepped tier: a run over s4..s7 reads, checks and counts
    // exactly like four single consumes. Clean operands are read in
    // their registers, the corrected one in the caller's scratch (the
    // silent s6 reads as zero).
    ChipConfig cfg;
    cfg.strictStreams = false;
    StreamFabric fr, fs;
    stageRun(fr);
    stageRun(fs);
    StreamIo run(cfg, fr, "RUN");
    StreamIo single(cfg, fs, "SINGLE");

    Vec320 scratch[4];
    const Vec320 *outs[4] = {};
    run.consumeRun({4, Direction::East}, 10, scratch, outs, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE(i);
        Vec320 one;
        const Vec320 *want = single.consumeRef(
            {static_cast<StreamId>(4 + i), Direction::East}, 10, one);
        ASSERT_NE(outs[i], nullptr);
        EXPECT_EQ(*outs[i], *want);
        const StreamRef si{static_cast<StreamId>(4 + i), Direction::East};
        if (i == 1) {
            EXPECT_EQ(outs[i], &scratch[i]);
        } else if (i != 2) {
            EXPECT_EQ(outs[i], fr.peek(si, 10));
        }
    }
    EXPECT_EQ(*outs[1], encoded(2));
    EXPECT_EQ(*outs[2], Vec320{});
    EXPECT_EQ(run.consumed(), 3u);
    EXPECT_EQ(run.missedOperands(), 1u);
    EXPECT_EQ(run.correctedErrors(), 1u);
    EXPECT_EQ(single.consumed(), run.consumed());
    EXPECT_EQ(single.missedOperands(), run.missedOperands());
    EXPECT_EQ(single.correctedErrors(), run.correctedErrors());
}

TEST(StreamIoDeath, MissedOperandPanicsUnderStrictStreams)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Strict schedules: a run stops at its first silent stream, as
    // the single consume of that stream does, naming it.
    const auto run = [] {
        ChipConfig cfg;
        StreamFabric f;
        stageRun(f);
        StreamIo io(cfg, f, "RUN");
        Vec320 scratch[4];
        const Vec320 *outs[4] = {};
        io.consumeRun({4, Direction::East}, 10, scratch, outs, 4);
    };
    ASSERT_DEATH(run(), "RUN: no value flowing on s6.e");
    const auto single = [] {
        ChipConfig cfg;
        StreamFabric f;
        stageRun(f);
        StreamIo io(cfg, f, "ONE");
        Vec320 scratch;
        io.consumeRef({6, Direction::East}, 10, scratch);
    };
    ASSERT_DEATH(single(), "ONE: no value flowing on s6.e");
}

/** Replay tape: consumes resolve to a scripted list of slots. */
struct ScriptReplayer final : TapeReplayer
{
    std::vector<const Vec320 *> tape;
    std::size_t next = 0;
    Vec320 slots[4];
    std::size_t produced = 0;

    Vec320 *onProduce() override { return &slots[produced++ % 4]; }
    void
    onConsumeRun(const Vec320 **outs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            outs[i] = tape.at(next++);
    }
};

TEST(StreamIo, ReplayRunConsumeEqualsTape)
{
    // Replay tier: a run hands out the tape's own slots in one read
    // (a recorded miss reads as zero), as single consumes would.
    ChipConfig cfg;
    cfg.strictStreams = false;
    const Vec320 a = encoded(5), b = encoded(6), c = encoded(7);
    for (const bool batched : {true, false}) {
        SCOPED_TRACE(batched ? "run" : "single");
        StreamFabric f;
        ScriptReplayer rep;
        rep.tape = {&a, &b, nullptr, &c};
        f.attachTapeReplayer(&rep);
        StreamIo io(cfg, f, "TEST");
        Vec320 scratch[4];
        const Vec320 *outs[4] = {};
        if (batched) {
            io.consumeRun({8, Direction::West}, 3, scratch, outs, 4);
        } else {
            for (std::size_t i = 0; i < 4; ++i) {
                outs[i] = io.consumeRef(
                    {static_cast<StreamId>(8 + i), Direction::West}, 3,
                    scratch[i]);
            }
        }
        EXPECT_EQ(outs[0], &a);
        EXPECT_EQ(outs[1], &b);
        ASSERT_NE(outs[2], nullptr);
        EXPECT_EQ(*outs[2], Vec320{});
        EXPECT_EQ(outs[3], &c);
        EXPECT_EQ(rep.next, 4u);
        EXPECT_EQ(io.consumed(), 3u);
        EXPECT_EQ(io.missedOperands(), 1u);
        EXPECT_EQ(f.validEntries(), 0u);
    }
}

TEST(StreamIo, ProduceInPlaceBuildsWhereTheTierKeepsValues)
{
    ChipConfig cfg;
    const auto build = [](Vec320 *const *out) {
        for (int k = 0; k < 2; ++k)
            *out[k] = mark(static_cast<std::uint8_t>(20 + k));
    };
    {
        // Stepped: each result is encoded and scheduled in order.
        StreamFabric f;
        StreamIo io(cfg, f, "TEST");
        io.produceInPlace<2>({2, Direction::East}, 5, /*when=*/1,
                             /*keep_codes=*/false, build);
        EXPECT_EQ(f.pendingWrites(), 2u);
        f.advance();
        for (int k = 0; k < 2; ++k) {
            Vec320 want = mark(static_cast<std::uint8_t>(20 + k));
            eccComputeVec(want);
            const Vec320 *v = f.peek(
                {static_cast<StreamId>(2 + k), Direction::East}, 5);
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, want);
        }
        EXPECT_EQ(io.produced(), 2u);
    }
    {
        // keep_codes: the codes the build stored travel unchanged.
        StreamFabric f;
        StreamIo io(cfg, f, "TEST");
        Vec320 stale = mark(9);
        stale.ecc[3] = 0x1ff;
        io.produceInPlace<1>({2, Direction::East}, 5, 0,
                             /*keep_codes=*/true,
                             [&](Vec320 *const *out) { *out[0] = stale; });
        ASSERT_NE(f.peek({2, Direction::East}, 5), nullptr);
        EXPECT_EQ(*f.peek({2, Direction::East}, 5), stale);
    }
    {
        // Replay: the build writes the tape slots; the fabric stays
        // empty.
        StreamFabric f;
        ScriptReplayer rep;
        f.attachTapeReplayer(&rep);
        StreamIo io(cfg, f, "TEST");
        io.produceInPlace<2>({2, Direction::East}, 5, 1, false, build);
        EXPECT_EQ(rep.slots[0], mark(20));
        EXPECT_EQ(rep.slots[1], mark(21));
        EXPECT_EQ(f.pendingWrites(), 0u);
        EXPECT_EQ(io.produced(), 2u);
    }
}

TEST(Fabric, SlotsInUseEqualValuesHeld)
{
    // Every value the fabric holds, flowing or pending, owns one pool
    // slot, and a dropped or overwritten value gives its slot back:
    // across writes, overwrites, per-cycle and bulk advances with
    // edge fall-off, clear() and loadState().
    StreamFabric f;
    EXPECT_EQ(f.slotsInUse(), 0u) << "a new fabric allocates nothing";
    const auto expectBalanced = [](const StreamFabric &x,
                                   const char *what) {
        SCOPED_TRACE(what);
        EXPECT_EQ(x.slotsInUse(), x.validEntries() + x.pendingWrites());
    };
    const StreamRef e4{4, Direction::East};
    f.write(e4, 10, mark(1));
    f.write(e4, Layout::numPositions - 2, mark(2)); // Off in 2 hops.
    f.write({0, Direction::West}, 2, mark(3));       // Off in 3 hops.
    f.scheduleWrite(e4, 12, mark(4), /*when=*/2);    // Overwrites 1.
    f.scheduleWrite({9, Direction::West}, 50, mark(5), /*when=*/5);
    expectBalanced(f, "writes");
    EXPECT_EQ(f.slotsInUse(), 5u);
    f.advance();
    expectBalanced(f, "advance");
    f.advance();
    expectBalanced(f, "overwrite and fall-off");
    EXPECT_EQ(f.slotsInUse(), 3u);
    ASSERT_NE(f.peek(e4, 12), nullptr);
    EXPECT_EQ(*f.peek(e4, 12), mark(4));
    f.advanceBy(3); // Lands on the write due at 5.
    expectBalanced(f, "advanceBy");
    EXPECT_EQ(f.slotsInUse(), 2u);
    f.advanceBy(100); // Everything falls off the edges.
    expectBalanced(f, "advanceBy past the edges");
    EXPECT_EQ(f.slotsInUse(), 0u);

    // Values in flight and pending survive a save/load into a fresh
    // fabric and into one already holding values.
    f.write(e4, 30, mark(6));
    f.write({7, Direction::West}, 30, mark(7));
    f.scheduleWrite({8, Direction::East}, 3, mark(8), f.now() + 4);
    SnapshotWriter w;
    f.saveState(w);
    const std::vector<std::uint8_t> blob = w.take();
    StreamFabric fresh, busy;
    busy.write({1, Direction::East}, 1, mark(9));
    busy.scheduleWrite({2, Direction::East}, 1, mark(9), 3);
    for (StreamFabric *g : {&fresh, &busy}) {
        SnapshotReader r(blob);
        g->loadState(r);
        ASSERT_TRUE(r.atEnd());
        expectBalanced(*g, "loadState");
        EXPECT_EQ(g->slotsInUse(), 3u);
        EXPECT_EQ(*g->peek(e4, 30), mark(6));
        while (g->pendingWrites() > 0)
            g->advance();
        expectBalanced(*g, "restored write landed");
    }
    f.clear();
    expectBalanced(f, "clear");
    EXPECT_EQ(f.slotsInUse(), 0u);
}

TEST(Fabric, SlotsKeepTheirAddressesAsThePoolGrows)
{
    // A consumer may hold a register's address for its whole dispatch
    // while the same dispatch's produces take new slots: growing the
    // pool must not move a value.
    StreamFabric f;
    f.write({0, Direction::East}, 0, mark(1));
    const Vec320 *first = f.peek({0, Direction::East}, 0);
    for (int i = 0; i < 300; ++i) {
        f.scheduleWrite({static_cast<StreamId>(1 + i % 31),
                         Direction::East},
                        i / 31, mark(static_cast<std::uint8_t>(i)), 1);
    }
    EXPECT_EQ(f.peek({0, Direction::East}, 0), first);
    EXPECT_EQ(*first, mark(1));
    EXPECT_EQ(f.slotsInUse(), 301u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u);
}

TEST(StreamIo, CleanRegistersAreReadInPlace)
{
    // Fault-free, a consume returns the register itself when the
    // check would pass, publish-encoded or not; a value whose stored
    // codes do not hold (as a MEM read of a flipped SRAM word keeps
    // them) is corrected in the consumer's scratch, and the register
    // keeps the flip.
    ChipConfig cfg;
    StreamFabric f;
    StreamIo io(cfg, f, "TEST");
    const StreamRef a{1, Direction::East}, b{2, Direction::East},
        c{3, Direction::East};
    io.produceInPlace<1>(a, 7, 1, /*keep_codes=*/false,
                         [](Vec320 *const *out) { *out[0] = mark(3); });
    Vec320 flipped = encoded(5);
    flipped.bytes[200] ^= 0x01;
    io.produceInPlace<1>(b, 7, 1, /*keep_codes=*/true,
                         [&](Vec320 *const *out) { *out[0] = flipped; });
    f.scheduleWrite(c, 7, encoded(6), 1);
    f.advance();
    Vec320 scratch[3];
    EXPECT_EQ(io.consumeRef(a, 7, scratch[0]), f.peek(a, 7));
    EXPECT_EQ(io.consumeRef(c, 7, scratch[2]), f.peek(c, 7));
    const Vec320 *vb = io.consumeRef(b, 7, scratch[1]);
    EXPECT_EQ(vb, &scratch[1]);
    EXPECT_EQ(*vb, encoded(5));
    EXPECT_EQ(*f.peek(b, 7), flipped);
    EXPECT_EQ(io.correctedErrors(), 1u);
    EXPECT_EQ(io.consumed(), 3u);
}

TEST(StreamIo, EachConsumerCorrectsItsOwnCopyOfARawValue)
{
    // A raw write carries whatever codes it was given: here one data
    // bit is off. Two consumers of the one register each correct it
    // in their own copy and count it, and the register keeps the
    // flip for whoever samples it next.
    ChipConfig cfg;
    StreamFabric f;
    const StreamRef s{3, Direction::West};
    const Vec320 good = encoded(8);
    Vec320 flipped = good;
    flipped.bytes[33] ^= 0x40;
    f.write(s, 60, flipped);
    StreamIo a(cfg, f, "A");
    StreamIo b(cfg, f, "B");
    Vec320 sa, sb;
    const Vec320 *va = a.consumeRef(s, 60, sa);
    const Vec320 *vb = b.consumeRef(s, 60, sb);
    EXPECT_EQ(*va, good);
    EXPECT_EQ(*vb, good);
    EXPECT_EQ(a.correctedErrors(), 1u);
    EXPECT_EQ(b.correctedErrors(), 1u);
    ASSERT_NE(f.peek(s, 60), nullptr);
    EXPECT_EQ(*f.peek(s, 60), flipped);
}

TEST(StreamIo, InjectedStreamFlipsOnPublishedValuesAreCorrected)
{
    // With a fault injector attached, every consume draws and checks
    // its own copy, publish-encoded values included: each injected
    // single-bit flip is corrected and counted, the consumer reads
    // the produced value, and the registers stay as produced. The
    // draw counts are pinned: the RNG sees one draw per consume.
    ChipConfig cfg;
    cfg.fault.seed = 0x51ab;
    cfg.fault.streamRate = 0.5;
    FaultInjector fi(cfg.fault);
    MachineCheckSink mc;
    StreamFabric f;
    f.attachFaultHooks(&fi, &mc);
    StreamIo prod(cfg, f, "PROD");
    StreamIo cons(cfg, f, "CONS");
    constexpr int kValues = 64;
    const StreamRef s{6, Direction::East};
    for (int i = 0; i < kValues; ++i) {
        const auto seed = static_cast<std::uint8_t>(i + 1);
        prod.produceInPlace<1>(s, 20, f.now() + 1, /*keep_codes=*/false,
                               [&](Vec320 *const *out) {
                                   *out[0] = encoded(seed);
                               });
        f.advance();
        for (int c = 0; c < 2; ++c) {
            Vec320 scratch;
            const Vec320 *v = cons.consumeRef(s, 20, scratch);
            EXPECT_EQ(*v, encoded(seed));
        }
        EXPECT_EQ(*f.peek(s, 20), encoded(seed));
    }
    EXPECT_EQ(fi.streamFlips(), 64u);
    EXPECT_EQ(cons.correctedErrors(), fi.streamFlips());
    EXPECT_EQ(cons.uncorrectableErrors(), 0u);
    EXPECT_EQ(cons.consumed(), 2u * kValues);
    EXPECT_FALSE(mc.raised());
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
