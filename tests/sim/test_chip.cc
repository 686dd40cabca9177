/**
 * @file
 * Full-chip integration at the assembly level: a hand-written Table I
 * program (read -> add -> write) with the compulsory barrier preamble,
 * Repeat-driven streaming, gather/scatter, run-to-run determinism of
 * the cycle count, and stat/power plumbing.
 */

#include <gtest/gtest.h>

#include "compiler/schedule.hh"
#include "isa/assembler.hh"
#include "mem/ecc.hh"
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

TEST(Chip, HandAssembledStreamAdd)
{
    // Z = X + Y with X in MEM_W0 (pos 46), Y in MEM_W1 (pos 45),
    // both flowing east to the VXM (pos 47), result flowing west to
    // MEM_W2 (pos 44).
    //
    // Timing: Read issued at t makes the vector visible at its slice
    // at t+2; arrival at the VXM adds the transit. X@46: t=10 ->
    // visible 12 -> VXM at 13. Y@45: t=9 -> visible 11 -> VXM at 13.
    // Add at 13 -> s29.w visible 14 -> MEM_W2 (44) at 17.
    const std::string text = "@MEM_W0:\n"
                             "    nop 10\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 9\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 17\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 13\n"
                             "    add.sat s16.e, s17.e, s29.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;

    Chip chip;
    chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(30));
    chip.mem(Hemisphere::West, 1).backdoorWrite(0x6, fill(40));
    chip.loadProgram(r.program);
    const Cycle cycles = chip.run();
    EXPECT_GE(cycles, 18u);

    const Vec320 z = chip.mem(Hemisphere::West, 2).backdoorRead(0x7);
    for (int i = 0; i < kLanes; ++i)
        EXPECT_EQ(z.bytes[static_cast<std::size_t>(i)], 70);

    const StatGroup stats = chip.stats();
    EXPECT_EQ(stats.get("mem_reads"), 2u);
    EXPECT_EQ(stats.get("mem_writes"), 1u);
    EXPECT_EQ(stats.get("vxm_lane_ops"),
              static_cast<std::uint64_t>(kLanes));
    EXPECT_EQ(stats.get("ecc_uncorrectable"), 0u);
    EXPECT_GT(chip.power().totalEnergyJ(), 0.0);
}

TEST(Chip, RepeatStreamsVectorsEveryCycle)
{
    // Stream 4 vectors from MEM_E0 via Repeat: addresses differ, so
    // use 4 explicit reads driven at 1/cycle; the identical-read
    // Repeat form streams the same address.
    const std::string text = "@MEM_E3:\n"
                             "    read 0x9, s2.e\n"
                             "    repeat 3, 1\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    Chip chip;
    chip.mem(Hemisphere::East, 3).backdoorWrite(0x9, fill(5));
    chip.loadProgram(r.program);
    chip.run();
    EXPECT_EQ(chip.mem(Hemisphere::East, 3).reads(), 4u);
}

TEST(Chip, BarrierPreambleCostsThirtyFiveCycles)
{
    // An empty preamble'd program retires right after the barrier.
    ScheduledProgram empty;
    Chip chip;
    chip.loadProgram(empty.toAsm(/*with_preamble=*/true));
    const Cycle cycles = chip.run();
    // Notify at 0; the broadcast satisfies the parked Syncs at 35
    // and the final step advances once more (paper III.A.2:
    // 35-cycle chip-wide barrier).
    EXPECT_EQ(cycles, kBarrierLatency + 1);
}

TEST(Chip, GatherReadsIndirectAddresses)
{
    // Map vector selects address 0x20 for every superlane; gather
    // places the addressed words on the stream; a write commits.
    const std::string text = "@MEM_W5:\n"
                             "    read 0x1, s0.e\n"      // map
                             "@MEM_W4:\n"
                             "    nop 3\n"               // map arrives
                             "    gather s1.e, s0.e\n"
                             "@MEM_W3:\n"
                             "    nop 6\n"
                             "    write 0x30, s1.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;

    Chip chip;
    // Map word: per-superlane little-endian address 0x20.
    Vec320 map;
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        map.bytes[static_cast<std::size_t>(sl * kWordBytes)] = 0x20;
    }
    chip.mem(Hemisphere::West, 5).backdoorWrite(0x1, map);
    chip.mem(Hemisphere::West, 4).backdoorWrite(0x20, fill(77));
    chip.loadProgram(r.program);
    chip.run();
    const Vec320 out =
        chip.mem(Hemisphere::West, 3).backdoorRead(0x30);
    for (int i = 0; i < kLanes; ++i)
        EXPECT_EQ(out.bytes[static_cast<std::size_t>(i)], 77);
}

TEST(Chip, DeterministicCycleCounts)
{
    const std::string text = "@MEM_W0:\n"
                             "    read 0x5, s16.e\n"
                             "    repeat 10, 2\n"
                             "@VXM1:\n"
                             "    nop 3\n"
                             "    relu s16.e, s20.e\n"
                             "    repeat 10, 2\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    Cycle first = 0;
    for (int run = 0; run < 3; ++run) {
        Chip chip;
        chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(1));
        chip.loadProgram(r.program);
        const Cycle c = chip.run();
        if (run == 0)
            first = c;
        EXPECT_EQ(c, first);
    }
}

TEST(Chip, EccErrorInSramIsCorrectedByConsumer)
{
    const std::string text = "@MEM_W0:\n"
                             "    read 0x5, s16.e\n"
                             "@VXM0:\n"
                             "    nop 3\n"
                             "    relu s16.e, s20.w\n"
                             "@MEM_W1:\n"
                             "    nop 6\n"
                             "    write 0x6, s20.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    Chip chip;
    chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(9));
    chip.mem(Hemisphere::West, 0).injectBitFlip(0x5, 100, 3);
    chip.loadProgram(r.program);
    chip.run();
    EXPECT_EQ(chip.stats().get("ecc_corrected"), 1u);
    const Vec320 out =
        chip.mem(Hemisphere::West, 1).backdoorRead(0x6);
    EXPECT_EQ(out.bytes[100], 9); // Corrected before the ALU.
}

TEST(Chip, ReducedVectorLengthLowersStaticPower)
{
    ChipConfig full;
    ChipConfig narrow;
    narrow.activeSuperlanes = 4; // VL 64 (paper II.F power gating).
    Chip a(full), b(narrow);
    a.loadProgram(AsmProgram{});
    b.loadProgram(AsmProgram{});
    a.step();
    b.step();
    EXPECT_GT(a.power().totalEnergyJ(), b.power().totalEnergyJ());
}

} // namespace
} // namespace tsp
