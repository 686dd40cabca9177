/**
 * @file
 * Differential tests for the event-driven fast-forward core: every
 * program runs once with per-cycle stepping (fastForwardEnabled =
 * false) and once with fast-forward, and the two executions must be
 * indistinguishable — identical cycle counts, identical stats()
 * counters (including the idle-cycle and power-activity counters),
 * and bit-identical output bytes. Covers ICU-heavy microprograms
 * (NOP spans, Repeat, Sync/Notify, co-issue, gather/scatter), a
 * compiled end-to-end network, and bounded-run timeout behaviour.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compiler/schedule.hh"
#include "graph/graph.hh"
#include "isa/assembler.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "sim/chip.hh"

namespace tsp {
namespace {

Vec320
fill(std::uint8_t v)
{
    Vec320 x;
    x.bytes.fill(v);
    return x;
}

ChipConfig
configFor(bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    return cfg;
}

/** One memory word to seed before the run. */
struct Seed
{
    Hemisphere hem;
    int slice;
    MemAddr addr;
    Vec320 vec;
};

/** One memory word to read back and compare after the run. */
struct Probe
{
    Hemisphere hem;
    int slice;
    MemAddr addr;
};

/**
 * Runs @p prog under both stepping modes and asserts the executions
 * are indistinguishable: same cycle count, same stats() counters,
 * same bytes at every probe address, same accumulated energy.
 */
void
expectIdenticalExecutions(const AsmProgram &prog,
                          const std::vector<Seed> &seeds,
                          const std::vector<Probe> &probes)
{
    Chip legacy(configFor(false));
    Chip fast(configFor(true));
    for (Chip *chip : {&legacy, &fast}) {
        for (const auto &s : seeds)
            chip->mem(s.hem, s.slice).backdoorWrite(s.addr, s.vec);
        chip->loadProgram(prog);
    }

    const Cycle legacy_cycles = legacy.run();
    const Cycle fast_cycles = fast.run();
    EXPECT_EQ(legacy_cycles, fast_cycles);

    EXPECT_EQ(legacy.stats().all(), fast.stats().all());
    EXPECT_EQ(legacy.power().cycles(), fast.power().cycles());
    // Energy is a function of the (identical) counters and clock.
    EXPECT_EQ(legacy.power().totalEnergyJ(),
              fast.power().totalEnergyJ());

    for (const auto &p : probes) {
        const Vec320 a = legacy.mem(p.hem, p.slice).backdoorRead(p.addr);
        const Vec320 b = fast.mem(p.hem, p.slice).backdoorRead(p.addr);
        EXPECT_EQ(a.bytes, b.bytes)
            << "probe slice " << p.slice << " addr " << p.addr;
    }
}

TEST(FastForward, StreamAddWithLongIdleSpans)
{
    // The Table I read->add->write program, padded with long NOPs so
    // fast-forward has hundreds of provably idle cycles to jump.
    const std::string text = "@MEM_W0:\n"
                             "    nop 510\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 509\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 517\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 513\n"
                             "    add.sat s16.e, s17.e, s29.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalExecutions(
        r.program,
        {{Hemisphere::West, 0, 0x5, fill(30)},
         {Hemisphere::West, 1, 0x6, fill(40)}},
        {{Hemisphere::West, 2, 0x7}});
}

TEST(FastForward, RepeatWithWideGaps)
{
    // Repeat with a 7-cycle gap: the queue is idle between re-issues
    // but holds a pending event, so fast-forward must land exactly on
    // every re-issue cycle.
    // E3 (pos 51) reads westward at 40; Repeat re-issues at 41, 48,
    // ..., 118. The last vector is visible at 120 and reaches E2
    // (pos 50) at 121, where the write commits it.
    const std::string text = "@MEM_E3:\n"
                             "    nop 40\n"
                             "    read 0x9, s2.w\n"
                             "    repeat 12, 7\n"
                             "@MEM_E2:\n"
                             "    nop 121\n"
                             "    write 0x30, s2.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalExecutions(
        r.program, {{Hemisphere::East, 3, 0x9, fill(5)}},
        {{Hemisphere::East, 2, 0x30}});
}

TEST(FastForward, SyncNotifyBarrier)
{
    // Two queues park on Sync; a third runs a long NOP and then
    // Notifies. The parked queues release exactly kBarrierLatency
    // cycles after the broadcast in both modes.
    // W1 (pos 45) and W0 (pos 46) park at cycle 0; the Notify at 300
    // releases both at 300 + kBarrierLatency = 335. W1's read is
    // visible at 337 and reaches pos 46 at 338, where W0's write
    // (released 335, NOP 3) commits it.
    const std::string text = "@MEM_W1:\n"
                             "    sync\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W0:\n"
                             "    sync\n"
                             "    nop 3\n"
                             "    write 0x6, s16.e\n"
                             "@VXM0:\n"
                             "    nop 300\n"
                             "    notify\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalExecutions(
        r.program, {{Hemisphere::West, 1, 0x5, fill(21)}},
        {{Hemisphere::West, 0, 0x6}});
}

TEST(FastForward, BarrierPreambleProgram)
{
    // The compulsory all-queue barrier preamble: 144 parked queues
    // plus one Notify — the densest Sync/Notify pattern we generate.
    ScheduledProgram empty;
    expectIdenticalExecutions(empty.toAsm(/*with_preamble=*/true), {},
                              {});
}

TEST(FastForward, CoIssuedReadWritePair)
{
    // A MEM queue dual-issuing a read+write in one cycle via the
    // co-issue flag (the scheduler's MEM pairing), after a long idle
    // span.
    // Timing: W5 (pos 41) reads s8.e at 147, visible 149, reaching
    // W4 (pos 42) at 150 — the cycle W4 dual-issues its read (s3.e)
    // and the co-issued write that commits s8.e. W4's read is
    // visible at 152 and reaches W3 (pos 43) at 153.
    const std::string text = "@MEM_W4:\n"
                             "    nop 150\n"
                             "    read 0x10, s3.e\n"
                             "    write 0x1011, s8.e\n"
                             "@MEM_W5:\n"
                             "    nop 147\n"
                             "    read 0x12, s8.e\n"
                             "@MEM_W3:\n"
                             "    nop 153\n"
                             "    write 0x20, s3.e\n";
    AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    // Mark the write as co-issued with the preceding read.
    auto &w4 = r.program.queues.at(IcuId::mem(Hemisphere::West, 4).id);
    ASSERT_EQ(w4.back().op, Opcode::Write);
    w4.back().flags |= Instruction::kFlagCoIssue;
    expectIdenticalExecutions(
        r.program,
        {{Hemisphere::West, 4, 0x10, fill(9)},
         {Hemisphere::West, 5, 0x12, fill(33)}},
        {{Hemisphere::West, 4, 0x1011}, {Hemisphere::West, 3, 0x20}});
}

TEST(FastForward, GatherScatterIndirection)
{
    // Gather through a map vector, then scatter the gathered data to
    // map-selected addresses — both address-indirect MEM paths.
    Vec320 map;
    for (int sl = 0; sl < kSuperlanes; ++sl)
        map.bytes[static_cast<std::size_t>(sl * kWordBytes)] = 0x20;
    // Timing: map read at 60 is visible at W5 (pos 41) at 62, so it
    // reaches W4 (pos 42) at 63 for the gather. The NOP-spaced
    // Repeat re-reads the map at 62, placing a second copy at W3
    // (pos 43) at 66 —
    // the same cycle the gathered data (visible 65 at pos 42)
    // arrives there for the scatter.
    const std::string text = "@MEM_W5:\n"
                             "    nop 60\n"
                             "    read 0x1, s0.e\n"
                             "    nop 1\n"
                             "    repeat 1, 2\n"
                             "@MEM_W4:\n"
                             "    nop 63\n"
                             "    gather s1.e, s0.e\n"
                             "@MEM_W3:\n"
                             "    nop 66\n"
                             "    scatter s1.e, s0.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalExecutions(
        r.program,
        {{Hemisphere::West, 5, 0x1, map},
         {Hemisphere::West, 4, 0x20, fill(77)}},
        {{Hemisphere::West, 3, 0x20}});
}

TEST(FastForward, CompiledNetworkMatchesLegacy)
{
    // End-to-end: a compiled network (conv/pool/residual/classifier
    // layers, real NOP-padded schedules) under both modes, for both
    // scheduling strategies. Cycle counts, stats and every output
    // byte must match.
    for (const bool pipelined : {false, true}) {
        const int h = 12, w = 12, c = 8;
        Graph g = model::buildTinyNet(/*seed=*/42, h, w, c);
        Rng rng(7);
        std::vector<std::int8_t> input(
            static_cast<std::size_t>(h) * w * c);
        for (auto &v : input)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));

        Lowering lw(pipelined);
        const auto lowered = g.lower(lw, input);

        InferenceSession legacy(lw, configFor(false));
        InferenceSession fast(lw, configFor(true));
        const Cycle legacy_cycles = legacy.run();
        const Cycle fast_cycles = fast.run();
        EXPECT_EQ(legacy_cycles, fast_cycles)
            << (pipelined ? "pipelined" : "sequential");
        EXPECT_EQ(legacy.chip().stats().all(),
                  fast.chip().stats().all());

        for (const auto &[id, lt] : lowered) {
            const ref::QTensor a = legacy.readTensor(lt);
            const ref::QTensor b = fast.readTensor(lt);
            ASSERT_EQ(a.data, b.data)
                << "node " << id << " differs under fast-forward";
        }
    }
}

TEST(FastForward, BoundedRunTimeoutIsIdentical)
{
    // A queue parked forever (Sync with no Notify): fast-forward
    // jumps straight to the cycle limit; the legacy core crawls to
    // it. Both must report exhaustion at exactly the same clock with
    // the same idle accounting.
    const std::string text = "@MEM_W0:\n"
                             "    nop 5\n"
                             "    sync\n"
                             "    read 0x5, s16.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;

    Chip legacy(configFor(false));
    Chip fast(configFor(true));
    for (Chip *chip : {&legacy, &fast})
        chip->loadProgram(r.program);

    const Cycle limit = 5000;
    EXPECT_FALSE(legacy.runBounded(limit));
    EXPECT_FALSE(fast.runBounded(limit));
    EXPECT_EQ(legacy.now(), limit);
    EXPECT_EQ(fast.now(), limit);
    EXPECT_EQ(legacy.stats().all(), fast.stats().all());
}

TEST(FastForward, LayerStopsReadIdenticalEnergy)
{
    // Per-layer power (Fig. 10) is read from energy at bounded-run
    // stops: a compiled network stopped at every lowered layer
    // boundary reads the same energy at each stop under both modes,
    // and no layer averages below the static floor.
    const int h = 12, w = 12, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/42, h, w, c);
    Rng rng(7);
    std::vector<std::int8_t> input(static_cast<std::size_t>(h) * w * c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    Lowering lw(/*pipelined=*/true);
    g.lower(lw, input);
    ASSERT_FALSE(lw.layers().empty());

    InferenceSession legacy(lw, configFor(false));
    InferenceSession fast(lw, configFor(true));
    const Cycle base = legacy.chip().now();
    const ChipConfig cfg;
    const double floor = cfg.power.uncoreStaticW +
                         cfg.power.superlaneStaticW * kSuperlanes;
    for (const auto &L : lw.layers()) {
        const double e0 = legacy.chip().power().totalEnergyJ();
        const Cycle c0 = legacy.chip().now();
        for (InferenceSession *s : {&legacy, &fast})
            s->chip().runBounded(base + L.end);
        ASSERT_EQ(legacy.chip().now(), fast.chip().now()) << L.name;
        EXPECT_EQ(legacy.chip().power().totalEnergyJ(),
                  fast.chip().power().totalEnergyJ())
            << L.name << " ending at " << L.end;
        const Cycle c1 = legacy.chip().now();
        if (c1 > c0) {
            const double avg_w =
                (legacy.chip().power().totalEnergyJ() - e0) /
                (static_cast<double>(c1 - c0) * cfg.cyclePeriodSec());
            EXPECT_GE(avg_w, floor) << L.name << " ending at " << L.end;
        }
    }
    for (InferenceSession *s : {&legacy, &fast})
        EXPECT_TRUE(s->chip().runBounded(base + 2 * lw.finishCycle()));
    EXPECT_EQ(legacy.chip().now(), fast.chip().now());
    EXPECT_EQ(legacy.chip().power().totalEnergyJ(),
              fast.chip().power().totalEnergyJ());
}

TEST(FastForward, NextEventCycleReportsQueueEvents)
{
    // White-box: after dispatching a NOP the chip's next event is the
    // NOP expiry, and a retired chip reports no event at all.
    const std::string text = "@MEM_W0:\n"
                             "    nop 100\n"
                             "    read 0x1, s0.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    Chip chip(configFor(true));
    chip.loadProgram(r.program);
    EXPECT_EQ(chip.nextEventCycle(), chip.now());
    chip.step(); // Dispatches the NOP; queue idle until cycle 100.
    EXPECT_EQ(chip.nextEventCycle(), Cycle{100});
    chip.run();
    // The queue retired at 100 but its read scheduled a stream write
    // for cycle 102 (d_func = 2) — still a fabric event.
    EXPECT_EQ(chip.nextEventCycle(), Cycle{102});
    chip.step();
    EXPECT_EQ(chip.nextEventCycle(), kNoEventCycle);
}

} // namespace
} // namespace tsp
