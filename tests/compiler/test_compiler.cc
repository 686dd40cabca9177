/**
 * @file
 * Compiler infrastructure: schedule lowering with NOP padding and the
 * MEM dual-issue co-issue path, over-booking panics, the memory
 * allocator's bank/striping behavior, and the schedule dump formats.
 */

#include <gtest/gtest.h>

#include "compiler/builder.hh"
#include "compiler/mem_alloc.hh"
#include "compiler/schedule.hh"
#include "sim/chip.hh"

namespace tsp {
namespace {

Instruction
readInst(MemAddr a)
{
    Instruction i;
    i.op = Opcode::Read;
    i.addr = a;
    i.dst = {0, Direction::East};
    return i;
}

TEST(Schedule, NopPaddingReconstructsTimes)
{
    ScheduledProgram prog;
    const IcuId icu = IcuId::mem(Hemisphere::East, 0);
    prog.emit(5, icu, readInst(1));
    prog.emit(6, icu, readInst(2));
    prog.emit(20, icu, readInst(3));

    const AsmProgram out = prog.toAsm();
    const auto &q = out.queue(icu);
    ASSERT_EQ(q.size(), 5u);
    EXPECT_EQ(q[0].op, Opcode::Nop);
    EXPECT_EQ(q[0].imm0, 5u);
    EXPECT_EQ(q[1].addr, 1u);
    EXPECT_EQ(q[2].addr, 2u);
    EXPECT_EQ(q[3].op, Opcode::Nop);
    EXPECT_EQ(q[3].imm0, 13u);
    EXPECT_EQ(q[4].addr, 3u);
}

TEST(Schedule, MemDualIssueGetsCoIssueFlag)
{
    ScheduledProgram prog;
    const IcuId icu = IcuId::mem(Hemisphere::West, 3);
    Instruction wr;
    wr.op = Opcode::Write;
    wr.addr = 0x1000; // Opposite bank.
    wr.srcA = {1, Direction::East};
    prog.emit(7, icu, readInst(0x10));
    prog.emit(7, icu, wr);

    const AsmProgram out = prog.toAsm();
    const auto &q = out.queue(icu);
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q[1].flags & Instruction::kFlagCoIssue, 0);
    EXPECT_NE(q[2].flags & Instruction::kFlagCoIssue, 0);
}

TEST(ScheduleDeath, NonMemOverIssuePanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        ScheduledProgram prog;
        Instruction add;
        add.op = Opcode::Add;
        prog.emit(3, IcuId::vxmAlu(0), add);
        prog.emit(3, IcuId::vxmAlu(0), add);
        (void)prog.toAsm();
    };
    ASSERT_DEATH(body(), "over-issued");
}

TEST(Schedule, PreambleAddsBarrier)
{
    ScheduledProgram prog;
    prog.emit(40, IcuId::mem(Hemisphere::East, 1), readInst(5));
    const AsmProgram out = prog.toAsm(/*with_preamble=*/true);
    // Queue 0 is the notifier.
    ASSERT_FALSE(out.queue(IcuId{0}).empty());
    EXPECT_EQ(out.queue(IcuId{0})[0].op, Opcode::Notify);
    const auto &q = out.queue(IcuId::mem(Hemisphere::East, 1));
    ASSERT_GE(q.size(), 3u);
    EXPECT_EQ(q[0].op, Opcode::Sync);
    EXPECT_EQ(q[1].op, Opcode::Nop);
    EXPECT_EQ(q[1].imm0, 5u); // 40 - 35.
}

TEST(Schedule, DumpsContainEvents)
{
    ScheduledProgram prog;
    prog.emit(2, IcuId::vxmAlu(1), readInst(0)); // Abuses Read; fine.
    const std::string gantt = prog.gantt(0, 10);
    EXPECT_NE(gantt.find("VXM1"), std::string::npos);
    EXPECT_NE(gantt.find('#'), std::string::npos);
    const std::string listing = prog.listing();
    EXPECT_NE(listing.find("VXM1"), std::string::npos);
}

TEST(MemAllocator, BanksFillIndependently)
{
    MemAllocator a;
    const GlobalAddr x =
        a.alloc(Hemisphere::East, 3, 10, /*bank=*/0);
    const GlobalAddr y =
        a.alloc(Hemisphere::East, 3, 10, /*bank=*/1);
    EXPECT_EQ(x.bank(), 0);
    EXPECT_EQ(y.bank(), 1);
    EXPECT_EQ(a.freeWords(Hemisphere::East, 3, 0), 4096 - 10);
    EXPECT_EQ(a.freeWords(Hemisphere::East, 3, 1), 4096 - 10);
    // Default picks the fuller-free bank.
    a.alloc(Hemisphere::East, 3, 100, 0);
    const GlobalAddr z = a.alloc(Hemisphere::East, 3, 5);
    EXPECT_EQ(z.bank(), 1);
}

TEST(MemAllocator, StripedSharesOffset)
{
    MemAllocator a;
    a.alloc(Hemisphere::West, 10, 7, 0); // Unbalance one slice.
    const GlobalAddr s =
        a.allocStriped(Hemisphere::West, 10, 4, 20, /*bank=*/0);
    // All four slices advance to the same high-water mark.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(a.freeWords(Hemisphere::West, 10 + i, 0),
                  4096 - 7 - 20);
    }
    EXPECT_EQ(s.addr, 7u);
}

TEST(MemAllocator, ZeroPageReserved)
{
    MemAllocator a;
    const GlobalAddr z = a.zeroAddr(Hemisphere::East);
    EXPECT_EQ(z.slice, 0);
    EXPECT_EQ(z.addr, 0u);
    const GlobalAddr first = a.alloc(Hemisphere::East, 0, 1, 0);
    EXPECT_NE(first.addr, 0u);
}

TEST(MemAllocatorDeath, ExhaustionIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        MemAllocator a;
        a.alloc(Hemisphere::East, 5, 4096, 0);
        a.alloc(Hemisphere::East, 5, 1, 0);
    };
    ASSERT_EXIT(body(), ::testing::ExitedWithCode(1), "exhausted");
}

TEST(Builder, ReadArrivingComputesLead)
{
    ScheduledProgram prog;
    KernelBuilder kb(prog);
    const GlobalAddr a{Hemisphere::West, 0, 0x10}; // pos 46.
    const Cycle issue =
        kb.readArriving(a, {4, Direction::East}, Layout::vxm, 100);
    // lead = dFunc(Read) + delta(46, 47) = 2 + 1.
    EXPECT_EQ(issue, 97u);
    ASSERT_EQ(prog.size(), 1u);
    EXPECT_EQ(prog.events()[0].cycle, 97u);
}

} // namespace
} // namespace tsp

namespace tsp {
namespace {

TEST(Schedule, RepeatCompressionPreservesExecution)
{
    // A streaming pattern with gap-1 and gap-3 runs; the compressed
    // and raw programs must behave identically on the chip.
    ScheduledProgram prog;
    const IcuId mem0 = IcuId::mem(Hemisphere::West, 0);
    const IcuId mem1 = IcuId::mem(Hemisphere::West, 1);
    Instruction rd;
    rd.op = Opcode::Read;
    rd.addr = 0x11;
    rd.dst = {0, Direction::West};
    for (int i = 0; i < 12; ++i)
        prog.emit(10 + static_cast<Cycle>(i), mem0, rd);
    Instruction rd3 = rd;
    rd3.addr = 0x22;
    for (int i = 0; i < 7; ++i)
        prog.emit(40 + 3 * static_cast<Cycle>(i), mem1, rd3);

    const AsmProgram compressed = prog.toAsm(false, true);
    const AsmProgram raw = prog.toAsm(false, false);
    EXPECT_LT(ScheduledProgram::instructionCount(compressed),
              ScheduledProgram::instructionCount(raw));
    // Repeats present in the compressed form.
    bool has_repeat = false;
    for (const auto &[id, q] : compressed.queues) {
        for (const auto &inst : q)
            has_repeat |= inst.op == Opcode::Repeat;
    }
    EXPECT_TRUE(has_repeat);

    auto run = [](const AsmProgram &p) {
        Chip chip;
        chip.loadProgram(p);
        const Cycle cycles = chip.run();
        return std::make_tuple(cycles,
                               chip.mem(Hemisphere::West, 0).reads(),
                               chip.mem(Hemisphere::West, 1).reads());
    };
    EXPECT_EQ(run(compressed), run(raw));
    const auto [cycles, r0, r1] = run(compressed);
    EXPECT_EQ(r0, 12u);
    EXPECT_EQ(r1, 7u);
    EXPECT_EQ(cycles, 40u + 3 * 6 + 1);
}

} // namespace
} // namespace tsp
