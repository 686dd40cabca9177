/**
 * @file
 * The derived trace against its oracle. deriveTrace() computes a pod's
 * replay trace from its member programs' text; replayed on a fresh,
 * identically loaded pod it must end exactly as a stepped run of the
 * same programs (tests/oracle.hh). Covered here: the pinned tiny-net
 * batches, the sequential tiny net, ResNet-50 and ring all-reduce
 * sessions of 2 and 4 chips (test_replay.cc covers the hand-written
 * programs, the sweeps their shapes, test_lowering_internals.cc the
 * pinned rings and test_stepped_core.cc the generated programs). Also:
 * the oracle is not vacuous, the derived dispatches are the compiler's
 * schedule, each program the derivation declines steps instead (a
 * queue that cannot retire within the budget is declined from its
 * text), and one text on two wire latencies has two traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "compiler/builder.hh"
#include "graph/batch_program.hh"
#include "isa/assembler.hh"
#include "model/resnet.hh"
#include "oracle.hh"
#include "runtime/session.hh"
#include "sim/exec_trace.hh"

namespace tsp {
namespace {

std::vector<std::int8_t>
randomData(int h, int w, int c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> d(static_cast<std::size_t>(h) * w * c);
    for (auto &v : d)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return d;
}

/** @return @p text assembled (the test fails on an error). */
AsmProgram
assembled(const std::string &text)
{
    const AsmResult r = assemble(text);
    EXPECT_TRUE(r.ok) << r.error << " at line " << r.errorLine;
    return r.program;
}

/** One dispatch: cycle, queue and instruction (co-issue flag aside). */
using Dispatch = std::tuple<Cycle, int, std::uint64_t>;

Dispatch
dispatchOf(Cycle cycle, int queue, Instruction inst)
{
    inst.flags &= static_cast<std::uint8_t>(~Instruction::kFlagCoIssue);
    return {cycle, queue, hashInstruction(0, inst)};
}

/**
 * Checks that the dispatches derived from @p prog, the assembly of
 * @p sched with its barrier preamble, are the compiler's scheduled
 * events plus the preamble's Notify: timing checked against code the
 * derivation does not share.
 */
void
expectDispatchesAreTheSchedule(const ScheduledProgram &sched,
                               const AsmProgram &prog)
{
    std::vector<Dispatch> want;
    want.reserve(sched.events().size() + 1);
    for (const ScheduledInst &e : sched.events())
        want.push_back(dispatchOf(e.cycle, e.icu.id, e.inst));
    Instruction notify;
    notify.op = Opcode::Notify;
    want.push_back(dispatchOf(0, 0, notify));

    const auto trace = deriveTrace(prog);
    ASSERT_NE(trace, nullptr);
    std::vector<Dispatch> got;
    got.reserve(want.size());
    for (const ExecutionTrace::Event &e : trace->events) {
        if (e.kind == ExecutionTrace::EventKind::Dispatch) {
            got.push_back(dispatchOf(
                e.cycleOffset, e.unit,
                prog.queue(IcuId{e.unit})[e.instIndex]));
        }
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diff.first == got.end())
        << "first difference at cycle " << std::get<0>(*diff.first)
        << " on " << IcuId{std::get<1>(*diff.first)}.name();
}

TEST(DeriveTrace, MatchesRecordingsOfPinnedTinyNets)
{
    // CompiledPrograms.TinyNetBatchesArePinned's programs: each one's
    // derived trace replays to its stepped run's end.
    const int nets[][3] = {{8, 8, 4}, {12, 12, 8}};
    for (const auto &n : nets) {
        for (const std::uint64_t seed : {1, 7, 11}) {
            BatchProgramCache cache(
                model::buildTinyNet(seed, n[0], n[1], n[2]),
                randomData(n[0], n[1], n[2], seed), 4);
            for (int b = 1; b <= 4; ++b) {
                SCOPED_TRACE(testing::Message()
                             << n[0] << "x" << n[1] << "x" << n[2]
                             << " seed " << seed << " batch " << b);
                const auto bp = cache.acquire(b);
                InferenceSession sess(*bp->lw);
                EXPECT_EQ(runAndCheckDerivation(*bp->lw, sess),
                          bp->cycles);
            }
        }
    }
}

TEST(DeriveTrace, MatchesRecordingOfSequentialTinyNet)
{
    Lowering lw(/*pipelined=*/false);
    model::buildTinyNet(11, 12, 12, 8).lower(lw, randomData(12, 12, 8, 2));
    InferenceSession sess(lw);
    runAndCheckDerivation(lw, sess);
}

TEST(DeriveTrace, DispatchesAreTheCompilersSchedule)
{
    // The pinned tiny-net batches, compiled as BatchProgramCache
    // compiles them, with the schedule read before the lowering seals.
    const int nets[][3] = {{8, 8, 4}, {12, 12, 8}};
    for (const auto &n : nets) {
        const Graph g = model::buildTinyNet(1, n[0], n[1], n[2]);
        const auto warm = randomData(n[0], n[1], n[2], 1);
        BatchProgramCache cache(g, warm, 4);
        for (int b = 1; b <= 4; ++b) {
            SCOPED_TRACE(testing::Message() << n[0] << "x" << n[1] << "x"
                                            << n[2] << " batch " << b);
            Lowering lw;
            for (int s = 0; s < b; ++s)
                g.lower(lw, warm);
            const AsmProgram &prog = *lw.assembled().get();
            EXPECT_EQ(hashProgram(prog), cache.acquire(b)->prog.hash());
            expectDispatchesAreTheSchedule(lw.program(), prog);
        }
    }
}

TEST(DeriveTrace, ResNet50FirstRunReplaysItsDerivedTrace)
{
    // The derived dispatches are the compiler's schedule, and a
    // replay-enabled session's first run replays the derived trace and
    // ends exactly as the stepped run: cycles, every counter, energy,
    // the MEM image and the output.
    Graph g = model::buildResNet(50, /*seed=*/1);
    Lowering lw(/*pipelined=*/true);
    const auto tensors =
        g.lower(lw, model::im2colStem(model::makeImage(7)));
    const LoweredTensor &out = tensors.at(g.outputNode());
    expectDispatchesAreTheSchedule(lw.program(), *lw.assembled().get());

    InferenceSession stepped(lw);
    InferenceSession derived(lw);
    derived.enableReplay();
    ASSERT_TRUE(stepped.runBounded().completed);
    ASSERT_TRUE(derived.runBounded().completed);
    EXPECT_EQ(stepped.cycles(), 130'530u);
    EXPECT_EQ(derived.recordCount(), 1u);
    EXPECT_EQ(derived.replayCount(), 0u);
    EXPECT_EQ(derived.cycles(), stepped.cycles());
    EXPECT_EQ(podEndMismatch(stepped.pod(), derived.pod()), "");
    EXPECT_EQ(derived.readTensor(out).data, stepped.readTensor(out).data);
}

/** A ring all-reduce session of @p chips members with local vectors
 *  from @p seed. */
std::unique_ptr<InferenceSession>
ringSession(int chips, bool replay, std::uint64_t seed)
{
    auto sess = std::make_unique<InferenceSession>(chips, /*wire_latency=*/17);
    std::vector<ScheduledProgram> ring;
    buildRingAllReduce(sess->pod(), ring, /*batch=*/2);
    std::vector<SharedProgram> members;
    for (ScheduledProgram &p : ring)
        members.emplace_back(p.toAsm());
    sess->bind(members);
    sess->reset();
    if (replay)
        sess->enableReplay();
    Rng rng(seed);
    for (int c = 0; c < chips; ++c) {
        for (int k = 0; k < 2; ++k) {
            Vec320 v;
            for (auto &b : v.bytes)
                b = static_cast<std::uint8_t>(rng.intIn(-90, 90));
            sess->pod()
                .chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorWrite(
                    static_cast<MemAddr>(AllReducePlan::kLocalAddr + k), v);
        }
    }
    return sess;
}

TEST(DeriveTrace, PodFirstRunsReplayTheirDerivedTraces)
{
    // A replay-enabled ring's first run derives the members' trace from
    // their text and replays it, ending as a replay-disabled ring does.
    for (const int chips : {2, 4}) {
        SCOPED_TRACE(testing::Message() << chips << " chips");
        auto stepped = ringSession(chips, /*replay=*/false, 5);
        auto derived = ringSession(chips, /*replay=*/true, 5);
        ASSERT_TRUE(stepped->runBounded().completed);
        ASSERT_TRUE(derived->runBounded().completed);
        EXPECT_EQ(derived->recordCount(), 1u);
        EXPECT_EQ(derived->replayCount(), 0u);
        ASSERT_NE(derived->trace(), nullptr);
        EXPECT_EQ(derived->trace()->chips.size(),
                  static_cast<std::size_t>(chips));
        // The members advance cycle by cycle in ring order, as
        // Pod::stepAll() steps them.
        const auto &events = derived->trace()->events;
        EXPECT_TRUE(std::is_sorted(
            events.begin(), events.end(),
            [](const ExecutionTrace::Event &a, const ExecutionTrace::Event &b) {
                return std::pair(a.cycleOffset, a.chip) <
                       std::pair(b.cycleOffset, b.chip);
            }));
        EXPECT_EQ(derived->cycles(), stepped->cycles());
        EXPECT_EQ(podEndMismatch(stepped->pod(), derived->pod()), "");
    }
}

/**
 * A 2-chip ring's text for wire latency @p wire: member 0 sends the
 * word at @p src on link 1 at cycle 10, and member 1 receives on link 0
 * a cycle before the vector lands (onto s3) and as it lands (onto s4),
 * then writes s4 to @p dst.
 */
std::vector<SharedProgram>
lateReceiveRing(Cycle wire, GlobalAddr src, GlobalAddr dst)
{
    ScheduledProgram sender, receiver;
    Instruction deskew;
    deskew.op = Opcode::Deskew;
    sender.emit(0, IcuId::c2c(Pod::kRightLink), deskew);
    receiver.emit(0, IcuId::c2c(Pod::kLeftLink), deskew);
    Instruction send;
    send.op = Opcode::Send;
    send.imm0 = Pod::kRightLink;
    send.srcA = {0, Direction::East};
    KernelBuilder(sender).readArriving(src, send.srcA, Layout::c2cEast, 10);
    sender.emit(10, IcuId::c2c(Pod::kRightLink), send);
    const Cycle lands = 10 + kC2cSerializationCycles + wire;
    Instruction receive;
    receive.op = Opcode::Receive;
    receive.imm0 = Pod::kLeftLink;
    receive.dst = {3, Direction::East};
    receiver.emit(lands - 1, IcuId::c2c(Pod::kLeftLink), receive);
    receive.dst = {4, Direction::East};
    receiver.emit(lands, IcuId::c2c(Pod::kLeftLink), receive);
    KernelBuilder(receiver).write(
        dst, receive.dst,
        lands + opTiming(Opcode::Receive).dFunc +
            Layout::transitDelay(Layout::c2cWest, dst.pos()));
    return {SharedProgram(sender.toAsm()), SharedProgram(receiver.toAsm())};
}

/** @return a random vector from @p seed. */
Vec320
randomWord(std::uint64_t seed)
{
    Rng rng(seed);
    Vec320 word;
    for (auto &b : word.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    return word;
}

TEST(DeriveTrace, ReceiveBeforeItsVectorLandsDrivesNothing)
{
    // Under non-strict streams a Receive a cycle before its link's
    // vector lands drops it (the stepped link counts the drop), and the
    // next Receive, at the landing cycle, drives the vector, which
    // member 1 writes to SRAM. The derived trace must say which Receive
    // produced, or the write stores nothing.
    constexpr Cycle kWire = 5;
    ChipConfig cfg;
    cfg.strictStreams = false;
    const GlobalAddr src{Hemisphere::East, 43, 0x1};
    const GlobalAddr dst{Hemisphere::West, 43, 0x2};
    const std::vector<SharedProgram> text = lateReceiveRing(kWire, src, dst);
    const Vec320 word = randomWord(13);
    InferenceSession stepped(2, kWire, cfg);
    InferenceSession derived(2, kWire, cfg);
    derived.enableReplay();
    for (InferenceSession *ring : {&stepped, &derived}) {
        ring->bind(text);
        ring->reset();
        ring->pod().chip(0).mem(src).backdoorWrite(src.addr, word);
        ASSERT_TRUE(ring->runBounded().completed);
    }
    EXPECT_EQ(derived.recordCount(), 1u);
    const Chip &rx = derived.pod().chip(1);
    EXPECT_EQ(rx.stats().get("c2c_dropped_receives"), 1u);
    EXPECT_EQ(rx.stats().get("c2c_received"), 1u);
    EXPECT_EQ(rx.mem(dst.hem, dst.slice).backdoorRead(dst.addr).bytes,
              word.bytes);
    EXPECT_EQ(podEndMismatch(stepped.pod(), derived.pod()), "");
}

TEST(DeriveTrace, OneTextOnTwoWireLatenciesDerivesTwoTraces)
{
    // The wire latency decides which of the two Receives drives the
    // vector (the first on a wire of 17, the second on 18, the wire
    // the text was built for), so one text on the two rings has two
    // traces. Sessions of one pool that bind the same program objects
    // must each derive their own, and end as their stepped runs do.
    ChipConfig cfg;
    cfg.strictStreams = false;
    const GlobalAddr src{Hemisphere::East, 43, 0x1};
    const GlobalAddr dst{Hemisphere::West, 43, 0x2};
    const std::vector<SharedProgram> text = lateReceiveRing(18, src, dst);
    const Vec320 word = randomWord(21);
    auto pool = std::make_shared<TraceCache>();
    for (const Cycle wire : {Cycle{17}, Cycle{18}}) {
        SCOPED_TRACE(testing::Message() << "wire " << wire);
        InferenceSession stepped(2, wire, cfg);
        InferenceSession derived(2, wire, cfg);
        derived.enableReplay(pool);
        for (InferenceSession *ring : {&stepped, &derived}) {
            ring->bind(text);
            ring->reset();
            ring->pod().chip(0).mem(src).backdoorWrite(src.addr, word);
            ASSERT_TRUE(ring->runBounded().completed);
        }
        EXPECT_EQ(derived.recordCount(), 1u);
        EXPECT_EQ(derived.replayCount(), 0u);
        EXPECT_EQ(podEndMismatch(stepped.pod(), derived.pod()), "");
        // Only the Receive at the landing cycle feeds the write.
        const Chip &rx = derived.pod().chip(1);
        EXPECT_EQ(rx.mem(dst.hem, dst.slice).backdoorRead(dst.addr).bytes ==
                      word.bytes,
                  wire == 18);
    }
    EXPECT_EQ(pool->size(), 2u);
}

TEST(DeriveTrace, ChangedTapeEntryOrMovedSendFailsTheOracle)
{
    // The oracle has teeth. A one-chip trace with one consume citing
    // another produce replays to a different end than the stepped run.
    Lowering lw(true);
    model::buildTinyNet(3, 8, 8, 4).lower(lw, randomData(8, 8, 4, 3));
    InferenceSession stepped(lw);
    ASSERT_TRUE(stepped.runBounded().completed);
    const auto derived = deriveTrace(*stepped.program());
    ASSERT_NE(derived, nullptr);
    const auto replayedEnd = [&](const ExecutionTrace &t) {
        InferenceSession fresh(lw);
        replayTrace(t, {&fresh.chip()});
        return podEndMismatch(stepped.pod(), fresh.pod());
    };
    ASSERT_EQ(replayedEnd(*derived), "");
    // The last consume is an output write's; make it store the first
    // produce, which ran before it.
    ExecutionTrace edited = *derived;
    std::uint32_t &last = edited.consumeTape.back();
    ASSERT_NE(last, kTapeMiss);
    ASSERT_NE(last, 0u);
    last = 0;
    EXPECT_NE(replayedEnd(edited), "");

    // A 2-chip ring trace with one Send a cycle late: its vector lands
    // a cycle after the peer's Receive, which the replay refuses, as
    // the stepped link would.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto ring = ringSession(2, /*replay=*/false, 9);
    std::vector<const AsmProgram *> texts;
    for (int c = 0; c < 2; ++c)
        texts.push_back(ring->pod().chip(c).program().get());
    const auto pod_trace = deriveTrace(texts, ring->pod().wireLatency());
    ASSERT_NE(pod_trace, nullptr);
    ExecutionTrace moved = *pod_trace;
    const auto send = std::find_if(
        moved.events.begin(), moved.events.end(),
        [&](const ExecutionTrace::Event &e) {
            return e.kind == ExecutionTrace::EventKind::Dispatch &&
                   texts[e.chip]->queue(IcuId{e.unit})[e.instIndex].op ==
                       Opcode::Send;
        });
    ASSERT_NE(send, moved.events.end());
    ++send->cycleOffset;
    EXPECT_DEATH(replayTrace(moved, membersOf(ring->pod())),
                 "no arrived vector");
    // The unmoved trace replays to the stepped ring's end.
    auto stepped_ring = ringSession(2, /*replay=*/false, 9);
    ASSERT_TRUE(stepped_ring->runBounded().completed);
    replayTrace(*pod_trace, membersOf(ring->pod()));
    EXPECT_EQ(podEndMismatch(stepped_ring->pod(), ring->pod()), "");
}

TEST(DeriveTrace, DeclinedProgramsStepWithoutATrace)
{
    // Each program the derivation declines: deriveTrace() says null.
    // Most are ones a stepped run refuses too; a replay-enabled
    // session's first run of the others steps and keeps no trace.
    //
    // A Receive before its link's Deskew, and a Send on an unwired
    // link (a lone chip's): the stepped link refuses both.
    EXPECT_EQ(deriveTrace(assembled("@C2C0:\n    receive l0, s0.e\n")),
              nullptr);
    EXPECT_EQ(deriveTrace(assembled("@C2C1:\n    deskew\n"
                                    "    send l1, s0.e\n")),
              nullptr);
    // On a 2-chip ring: a Send before its link's Deskew, and one over a
    // link that still serializes the previous vector.
    const AsmProgram idle = assembled("@MEM_W0:\n    nop 10\n");
    const AsmProgram early =
        assembled("@C2C1:\n    send l1, s0.e\n    deskew\n");
    EXPECT_EQ(deriveTrace({&early, &idle}, 5), nullptr);
    const AsmProgram twice = assembled("@C2C1:\n    deskew\n    nop 70\n"
                                       "    send l1, s0.e\n"
                                       "    send l1, s0.e\n");
    EXPECT_EQ(deriveTrace({&twice, &idle}, 5), nullptr);
    // An ABC issued over its plane's open window: the stepped tier
    // refuses it, so the derivation leaves it to that refusal.
    EXPECT_EQ(deriveTrace(assembled("@MXM0_A:\n"
                                    "    abc p0, s0.e, n4\n"
                                    "    abc p0, s0.e, n4\n")),
              nullptr);
    // Two writes to one stream register in one cycle (a co-issued
    // pair of reads onto one stream), which the stepped fabric refuses.
    EXPECT_EQ(deriveTrace(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                                    "    || read 0x2, s0.e\n"
                                    "@MEM_W1:\n    nop 5\n"
                                    "    read 0x3, s1.e\n")),
              nullptr);
    // A Repeat with nothing to repeat.
    EXPECT_EQ(deriveTrace(assembled("@MEM_W0:\n    repeat 2, 1\n")),
              nullptr);
    // A trace past the tape's 32-bit produce indices, declined from
    // the text before anything runs.
    EXPECT_EQ(deriveTrace(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                                    "    repeat 4294967295, 1\n")),
              nullptr);
    // A Receive with no arrival due drives nothing, in the derived
    // trace as on the stepped link (a lone chip's unwired link never
    // has an arrival): the derivation covers it.
    EXPECT_NE(deriveTrace(assembled("@C2C0:\n    deskew\n    nop 70\n"
                                    "    receive l0, s0.e\n")),
              nullptr);

    // A program that never retires: the stepped run times out and
    // keeps no trace.
    const AsmProgram parked = assembled("@MEM_W0:\n    sync\n");
    EXPECT_EQ(deriveTrace(parked), nullptr);
    InferenceSession never(1, 0);
    never.bind({SharedProgram(parked)});
    never.reset();
    never.enableReplay();
    EXPECT_FALSE(never.runBounded(1000).completed);
    EXPECT_EQ(never.recordCount(), 0u);
    EXPECT_EQ(never.trace(), nullptr);

    // A span past the run's cycle budget: no derived trace within it.
    const AsmProgram late = assembled("@MEM_W0:\n    nop 500\n"
                                      "    read 0x1, s0.e\n");
    EXPECT_NE(deriveTrace(late), nullptr);
    EXPECT_EQ(deriveTrace(late, /*max_span=*/100), nullptr);

    // A first run that starts with a value already on the fabric: the
    // text does not hold it, so the run steps.
    InferenceSession flowing(1, 0);
    flowing.bind({SharedProgram(late)});
    flowing.reset();
    flowing.enableReplay();
    flowing.chip().fabric().write(StreamRef{7, Direction::East}, 10,
                                  Vec320{});
    ASSERT_TRUE(flowing.runBounded().completed);
    EXPECT_EQ(flowing.recordCount(), 0u);
    EXPECT_EQ(flowing.trace(), nullptr);

    // A ring whose first run leaves a vector on a link (sent, never
    // received): the second run does not start from the text's state,
    // so it steps, and ends as a replay-disabled ring's does.
    ChipConfig loose;
    loose.strictStreams = false; // The Send reads nothing flowing.
    const AsmProgram sender = assembled("@C2C1:\n    deskew\n"
                                        "    send l1, s0.e\n"
                                        "    nop 30\n    deskew\n");
    InferenceSession ref(2, /*wire_latency=*/5, loose);
    InferenceSession rep(2, /*wire_latency=*/5, loose);
    rep.enableReplay();
    for (InferenceSession *ring : {&ref, &rep}) {
        ring->bind({SharedProgram(sender), SharedProgram(idle)});
        for (int run = 0; run < 2; ++run) {
            ring->reset();
            ASSERT_TRUE(ring->runBounded().completed);
        }
    }
    EXPECT_EQ(rep.recordCount(), 1u);
    EXPECT_EQ(rep.replayCount(), 0u);
    EXPECT_EQ(rep.pod().chip(1).c2c().pendingRx(Pod::kLeftLink), 2u);
    EXPECT_EQ(podEndMismatch(ref.pod(), rep.pod()), "");
}

TEST(DeriveTrace, QueueThatCannotRetireInTheBudgetIsDeclinedFromItsText)
{
    // Three billion re-issues cannot retire within 1,000 cycles: the
    // derivation declines the text before it reserves the run's
    // events, so a replay-enabled session steps to its cycle limit and
    // keeps no trace.
    const AsmProgram huge = assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                                      "    repeat 3000000000, 1\n");
    EXPECT_EQ(deriveTrace(huge, 1000), nullptr);
    InferenceSession sess(1, 0);
    sess.bind({SharedProgram(huge)});
    sess.reset();
    sess.enableReplay();
    EXPECT_EQ(sess.runBounded(1000).status, RunStatus::CycleLimit);
    EXPECT_EQ(sess.recordCount(), 0u);
    EXPECT_EQ(sess.trace(), nullptr);
}

TEST(DeriveTrace, TextDerivesAtItsSpanAndDeclinesOneCycleShort)
{
    // A text's retire bound never exceeds the span its run retires at:
    // each text derives with its own span as the budget and declines
    // with a cycle less. The Repeats' bounds are their spans, a
    // trailing NOP gates nothing, and the pinned tiny net co-issues MEM
    // pairs and parks on its preamble's Sync.
    std::vector<AsmProgram> texts;
    texts.push_back(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                              "    repeat 3000, 1\n"));
    texts.push_back(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                              "    repeat 40, 7\n    nop 1000\n"));
    texts.push_back(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                              "    || write 0x2, s1.w\n    nop 30\n"
                              "    read 0x3, s2.e\n"));
    BatchProgramCache cache(model::buildTinyNet(1, 8, 8, 4),
                            std::vector<std::int8_t>(8 * 8 * 4, 3), 1);
    texts.push_back(*cache.acquire(1)->prog.get());
    for (const AsmProgram &text : texts) {
        const auto trace = deriveTrace(text);
        ASSERT_NE(trace, nullptr);
        SCOPED_TRACE(testing::Message() << "span " << trace->span);
        EXPECT_NE(deriveTrace(text, trace->span), nullptr);
        EXPECT_EQ(deriveTrace(text, trace->span - 1), nullptr);
    }
    EXPECT_EQ(deriveTrace(texts[0])->span, 3001u);
    EXPECT_EQ(deriveTrace(texts[1])->span, 276u);
}

} // namespace
} // namespace tsp
