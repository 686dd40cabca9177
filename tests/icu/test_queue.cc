/**
 * @file
 * Instruction queue semantics: NOP delay precision, Repeat re-issue,
 * Sync/Notify barrier timing (35 cycles, paper III.A.2), MEM
 * dual-issue via the co-issue flag, and the inert state in which a
 * retired queue can never act again.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "icu/queue.hh"

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

Instruction
nop(std::uint32_t n)
{
    Instruction i;
    i.op = Opcode::Nop;
    i.imm0 = n;
    return i;
}

/** Ticks the queue once; returns the dispatched count. */
int
tick(InstructionQueue &q, Cycle now, const Instruction *out[2])
{
    out[0] = out[1] = nullptr;
    return q.tick(now, out);
}

TEST(Queue, NopDelaysExactly)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::East, 0), barrier);
    const std::vector<Instruction> prog{readInst(1), nop(5), readInst(2)};
    q.loadProgram(prog);

    const Instruction *out[2];
    EXPECT_EQ(tick(q, 0, out), 1);
    EXPECT_EQ(out[0]->addr, 1u);
    // Cycles 1..5: the NOP retires at 1 and gates until 6.
    for (Cycle t = 1; t <= 5; ++t)
        EXPECT_EQ(tick(q, t, out), 0) << t;
    EXPECT_EQ(tick(q, 6, out), 1);
    EXPECT_EQ(out[0]->addr, 2u);
    EXPECT_TRUE(q.done());
}

TEST(Queue, BackToBackDispatch)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::East, 1), barrier);
    const std::vector<Instruction> prog{readInst(1), readInst(2), readInst(3)};
    q.loadProgram(prog);
    const Instruction *out[2];
    for (Cycle t = 0; t < 3; ++t) {
        ASSERT_EQ(tick(q, t, out), 1);
        EXPECT_EQ(out[0]->addr, t + 1);
    }
    EXPECT_TRUE(q.done());
    EXPECT_EQ(q.dispatched(), 3u);
}

TEST(Queue, RepeatReissuesPrevious)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::West, 0), barrier);
    Instruction rep;
    rep.op = Opcode::Repeat;
    rep.imm0 = 3; // Three more issues...
    rep.imm1 = 2; // ...two cycles apart.
    const std::vector<Instruction> prog{readInst(9), rep};
    q.loadProgram(prog);

    const Instruction *out[2];
    EXPECT_EQ(tick(q, 0, out), 1); // Original at cycle 0.
    // First iteration fires at the Repeat's dispatch, then every
    // d = 2 cycles: cycles 1, 3, 5.
    EXPECT_EQ(tick(q, 1, out), 1);
    EXPECT_EQ(out[0]->addr, 9u);
    EXPECT_EQ(tick(q, 2, out), 0);
    EXPECT_EQ(tick(q, 3, out), 1);
    EXPECT_EQ(tick(q, 4, out), 0);
    EXPECT_EQ(tick(q, 5, out), 1);
    EXPECT_TRUE(q.done());
    EXPECT_EQ(q.dispatched(), 4u);
}

TEST(Queue, SyncParksUntilNotify)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::vxmAlu(0), barrier);
    Instruction sync;
    sync.op = Opcode::Sync;
    const std::vector<Instruction> prog{sync, readInst(5)};
    q.loadProgram(prog);

    const Instruction *out[2];
    EXPECT_EQ(tick(q, 0, out), 0);
    EXPECT_TRUE(q.parked());
    for (Cycle t = 1; t < 10; ++t)
        EXPECT_EQ(tick(q, t, out), 0);

    barrier.notify(10);
    // Broadcast arrives at 10 + 35 = 45 (paper: 35-cycle barrier).
    EXPECT_EQ(tick(q, 44, out), 0);
    EXPECT_TRUE(q.parked());
    EXPECT_EQ(tick(q, 45, out), 1);
    EXPECT_EQ(out[0]->addr, 5u);
    EXPECT_FALSE(q.parked());
}

TEST(Queue, MissedBroadcastWaitsForNext)
{
    BarrierController barrier;
    barrier.notify(0); // Arrives at 35.
    InstructionQueue q(IcuId::vxmAlu(1), barrier);
    Instruction sync;
    sync.op = Opcode::Sync;
    const std::vector<Instruction> prog{sync, readInst(1)};
    q.loadProgram(prog);

    const Instruction *out[2];
    // Parks at cycle 40, after the broadcast passed: must wait for a
    // new Notify.
    EXPECT_EQ(tick(q, 40, out), 0);
    EXPECT_EQ(tick(q, 50, out), 0);
    barrier.notify(60);
    EXPECT_EQ(tick(q, 94, out), 0);
    EXPECT_EQ(tick(q, 95, out), 1);
}

TEST(Queue, CoIssueDispatchesPairTogether)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::East, 2), barrier);
    Instruction rd = readInst(0x10);
    Instruction wr;
    wr.op = Opcode::Write;
    wr.addr = 0x1010;
    wr.srcA = {1, Direction::East};
    wr.flags |= Instruction::kFlagCoIssue;
    const std::vector<Instruction> prog{rd, wr, readInst(0x20)};
    q.loadProgram(prog);

    const Instruction *out[2];
    EXPECT_EQ(tick(q, 0, out), 2);
    EXPECT_EQ(out[0]->op, Opcode::Read);
    EXPECT_EQ(out[1]->op, Opcode::Write);
    EXPECT_EQ(tick(q, 1, out), 1);
    EXPECT_EQ(out[0]->addr, 0x20u);
}

TEST(Queue, StatsTrackNopAndParkCycles)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::vxmAlu(2), barrier);
    const std::vector<Instruction> prog{nop(3), readInst(1)};
    q.loadProgram(prog);
    const Instruction *out[2];
    for (Cycle t = 0; t <= 3; ++t)
        tick(q, t, out);
    EXPECT_EQ(q.nopCycles(), 3u); // Dispatch cycle + 2 gated.
    EXPECT_EQ(q.dispatched(), 1u);
}

TEST(Queue, NextEventCycleMirrorsTickStates)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::East, 4), barrier);
    Instruction sync;
    sync.op = Opcode::Sync;
    const std::vector<Instruction> prog{nop(10), readInst(1), sync, readInst(2)};
    q.loadProgram(prog);

    const Instruction *out[2];
    // Ready instruction: the event is now.
    EXPECT_EQ(q.nextEventCycle(0), Cycle{0});
    tick(q, 0, out); // NOP; idle until 10.
    EXPECT_EQ(q.nextEventCycle(1), Cycle{10});
    EXPECT_EQ(q.nextEventCycle(9), Cycle{10});
    tick(q, 10, out); // Read dispatches.
    tick(q, 11, out); // Sync parks; no broadcast pending.
    EXPECT_TRUE(q.parked());
    EXPECT_EQ(q.nextEventCycle(12), kNoEventCycle);
    barrier.notify(20); // Release at 55.
    EXPECT_EQ(q.nextEventCycle(12), Cycle{55});
    tick(q, 55, out); // Unparks and dispatches.
    EXPECT_EQ(tick(q, 56, out), 0);
    EXPECT_TRUE(q.done());
    EXPECT_EQ(q.nextEventCycle(57), kNoEventCycle);
}

TEST(Queue, NextEventCycleTracksRepeatGaps)
{
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::West, 7), barrier);
    Instruction rep;
    rep.op = Opcode::Repeat;
    rep.imm0 = 2;
    rep.imm1 = 4;
    const std::vector<Instruction> prog{readInst(3), rep};
    q.loadProgram(prog);

    const Instruction *out[2];
    tick(q, 0, out); // Original read.
    tick(q, 1, out); // Repeat dispatches; first re-issue fires.
    // One re-issue left, due at 5.
    EXPECT_EQ(q.nextEventCycle(2), Cycle{5});
    EXPECT_EQ(q.nextEventCycle(4), Cycle{5});
    tick(q, 5, out);
    EXPECT_TRUE(q.done());
}

TEST(Queue, SkipIdleCreditsCountersLikePerCycleTicks)
{
    // Two identical queues: one ticked per cycle through an idle
    // span, one fast-forwarded with skipIdle. Counters must match.
    BarrierController barrier;
    InstructionQueue slow(IcuId::mem(Hemisphere::East, 5), barrier);
    InstructionQueue fast(IcuId::mem(Hemisphere::East, 6), barrier);
    const std::vector<Instruction> prog{nop(50), readInst(1)};
    slow.loadProgram(prog);
    fast.loadProgram(prog);

    const Instruction *out[2];
    tick(slow, 0, out);
    tick(fast, 0, out);
    for (Cycle t = 1; t < 50; ++t)
        tick(slow, t, out);
    fast.skipIdle(1, 50);
    EXPECT_EQ(fast.nopCycles(), slow.nopCycles());
    tick(slow, 50, out);
    tick(fast, 50, out);
    EXPECT_EQ(fast.dispatched(), slow.dispatched());
    EXPECT_TRUE(slow.done());
    EXPECT_TRUE(fast.done());
}

TEST(Queue, TrailingNopStaysLiveUntilItExpires)
{
    // A queue whose last instruction is a NOP is done() once the NOP
    // dispatches, but it still counts a NOP cycle per tick until the
    // delay runs out: only then is it inert.
    BarrierController barrier;
    InstructionQueue q(IcuId::mem(Hemisphere::West, 9), barrier);
    const std::vector<Instruction> prog{readInst(1), nop(5)};
    q.loadProgram(prog);
    EXPECT_FALSE(q.inert(0));

    const Instruction *out[2];
    EXPECT_EQ(tick(q, 0, out), 1);
    EXPECT_EQ(tick(q, 1, out), 0); // NOP: idle through cycle 5.
    EXPECT_TRUE(q.done());
    for (Cycle t = 2; t <= 5; ++t) {
        EXPECT_FALSE(q.inert(t)) << t;
        EXPECT_EQ(q.nextEventCycle(t), Cycle{6}) << t;
        tick(q, t, out);
    }
    EXPECT_EQ(q.nopCycles(), 5u);
    EXPECT_TRUE(q.inert(6));

    // Reloading ends the inert state.
    q.loadProgram(prog);
    EXPECT_FALSE(q.inert(6));
}

/**
 * A random legal single-queue program: reads, co-issued read+write
 * pairs, NOP n, Repeat n d of the previous dispatching instruction,
 * Sync, Notify, and sometimes a trailing NOP.
 */
std::vector<Instruction>
randomQueueProgram(Rng &rng)
{
    std::vector<Instruction> prog;
    bool repeatable = false; // The last non-NOP may be repeated.
    const int n = rng.intIn(0, 14);
    for (int i = 0; i < n; ++i) {
        Instruction inst;
        switch (rng.nextBelow(6)) {
          case 0:
            prog.push_back(nop(static_cast<std::uint32_t>(
                rng.intIn(1, 20))));
            continue;
          case 1:
            if (repeatable) {
                inst.op = Opcode::Repeat;
                inst.imm0 = static_cast<std::uint32_t>(rng.intIn(0, 4));
                inst.imm1 = static_cast<std::uint32_t>(rng.intIn(1, 6));
                prog.push_back(inst);
                repeatable = false;
                continue;
            }
            prog.push_back(readInst(static_cast<MemAddr>(i)));
            break;
          case 2:
            inst.op = Opcode::Sync;
            prog.push_back(inst);
            repeatable = false;
            continue;
          case 3:
            inst.op = Opcode::Notify;
            prog.push_back(inst);
            break;
          case 4: {
            prog.push_back(readInst(static_cast<MemAddr>(i)));
            Instruction wr;
            wr.op = Opcode::Write;
            wr.addr = 0x1000;
            wr.srcA = {1, Direction::East};
            wr.flags |= Instruction::kFlagCoIssue;
            prog.push_back(wr);
            break;
          }
          default:
            prog.push_back(readInst(static_cast<MemAddr>(i)));
            break;
        }
        repeatable = true;
    }
    if (rng.nextBelow(3) == 0)
        prog.push_back(nop(static_cast<std::uint32_t>(rng.intIn(1, 30))));
    return prog;
}

TEST(Queue, InertQueueNeverActsAgain)
{
    // The chip stops visiting a queue once inert(now) holds. Over
    // generated programs, with Notify broadcasts at random cycles
    // (and from the queue's own Notifies), an inert queue must stay
    // inert and, for 200 more ticks, dispatch nothing, report no
    // event and leave every counter where it was.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const std::vector<Instruction> prog = randomQueueProgram(rng);
        BarrierController barrier;
        InstructionQueue q(IcuId::vxmAlu(3), barrier);
        q.loadProgram(prog);

        const Instruction *out[2];
        auto step = [&](Cycle c) {
            if (rng.nextBelow(40) == 0)
                barrier.notify(c);
            const int n = tick(q, c, out);
            for (int i = 0; i < n; ++i) {
                if (out[i]->op == Opcode::Notify)
                    barrier.notify(c);
            }
            return n;
        };

        Cycle c = 0;
        while (!q.inert(c)) {
            ASSERT_LT(c, Cycle{100'000}) << "program never retires";
            step(c);
            ++c;
            if (q.parked()) {
                ASSERT_FALSE(q.inert(c));
            }
        }
        ASSERT_TRUE(q.done());

        const std::uint64_t dispatched = q.dispatched();
        const std::uint64_t nops = q.nopCycles();
        const std::uint64_t parked = q.parkedCycles();
        for (Cycle k = c; k < c + 200; ++k) {
            ASSERT_TRUE(q.inert(k)) << k;
            ASSERT_EQ(q.nextEventCycle(k), kNoEventCycle) << k;
            ASSERT_EQ(step(k), 0) << k;
        }
        q.skipIdle(c + 200, c + 400);
        EXPECT_EQ(q.dispatched(), dispatched);
        EXPECT_EQ(q.nopCycles(), nops);
        EXPECT_EQ(q.parkedCycles(), parked);
    }
}

TEST(Barrier, ReleaseTimeSemantics)
{
    BarrierController b;
    EXPECT_FALSE(b.releaseTime(0).has_value());
    b.notify(100);
    ASSERT_TRUE(b.releaseTime(100).has_value());
    EXPECT_EQ(*b.releaseTime(100), 135u);
    EXPECT_EQ(*b.releaseTime(0), 135u);
    // A Sync parked after the broadcast misses it.
    EXPECT_FALSE(b.releaseTime(136).has_value());
    b.notify(200);
    EXPECT_EQ(*b.releaseTime(136), 235u);
}

TEST(Barrier, PruneDropsOnlyUnreachableBroadcasts)
{
    BarrierController b;
    b.notify(0);   // Arrives 35.
    b.notify(100); // Arrives 135.
    b.notify(200); // Arrives 235.
    EXPECT_EQ(b.notifyCount(), 3u);

    // A queue parked at 120 still needs the 135 arrival; pruning with
    // that floor drops only the cycle-35 broadcast.
    b.prune(120);
    EXPECT_EQ(b.notifyCount(), 2u);
    EXPECT_EQ(b.totalNotifies(), 3u);
    ASSERT_TRUE(b.releaseTime(120).has_value());
    EXPECT_EQ(*b.releaseTime(120), 135u);
    EXPECT_EQ(*b.releaseTime(150), 235u);

    // Nothing parked, clock at 300: every past broadcast is useless
    // for present *and* future Syncs except the one arriving >= 265.
    b.prune(300);
    EXPECT_EQ(b.notifyCount(), 0u);
    EXPECT_EQ(b.totalNotifies(), 3u);
    EXPECT_FALSE(b.releaseTime(300).has_value());
}

TEST(Barrier, ClearForgetsBroadcasts)
{
    BarrierController b;
    b.notify(10);
    ASSERT_TRUE(b.releaseTime(10).has_value());
    b.clear();
    EXPECT_FALSE(b.releaseTime(10).has_value());
    EXPECT_EQ(b.notifyCount(), 0u);
}

TEST(Barrier, NotifiesStayBoundedUnderSteadyTraffic)
{
    // The regression the prune exists for: a long-running serving
    // loop issuing a Notify per request must not accumulate
    // broadcasts without bound.
    BarrierController b;
    for (Cycle t = 0; t < 10'000; ++t) {
        b.notify(t * 100);
        b.prune(t * 100); // Nothing parked: floor = current cycle.
    }
    EXPECT_EQ(b.totalNotifies(), 10'000u);
    EXPECT_LE(b.notifyCount(), 2u);
}

} // namespace
} // namespace tsp
