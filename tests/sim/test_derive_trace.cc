/**
 * @file
 * The derived trace against its oracle. deriveTrace() computes a
 * one-chip program's replay trace from its text; a TraceRecording of
 * the program's stepped run must seal the same trace, field by field.
 * Covered here: the pinned tiny-net batches, the sequential tiny net
 * and ResNet-50 (test_replay.cc covers the hand-written programs, the
 * sweeps their shapes and test_stepped_core.cc the generated one-chip
 * programs). Also: the comparison is not vacuous, a session's first
 * run replays the derived trace and ends exactly as the stepped run
 * does, and each program the derivation declines is recorded instead.
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "common/rng.hh"
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

TEST(DeriveTrace, MatchesRecordingsOfPinnedTinyNets)
{
    // CompiledPrograms.TinyNetBatchesArePinned's programs.
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
                EXPECT_EQ(runAndCheckDerivation(sess), bp->cycles);
            }
        }
    }
}

TEST(DeriveTrace, MatchesRecordingOfSequentialTinyNet)
{
    Lowering lw(/*pipelined=*/false);
    model::buildTinyNet(11, 12, 12, 8).lower(lw, randomData(12, 12, 8, 2));
    InferenceSession sess(lw);
    runAndCheckDerivation(sess);
}

TEST(DeriveTrace, ResNet50FirstRunReplaysItsDerivedTrace)
{
    // The derived trace equals the recording of the stepped run, and a
    // replay-enabled session's first run replays it and ends exactly
    // as the stepped run: cycles, every counter, energy and output.
    Graph g = model::buildResNet(50, /*seed=*/1);
    Lowering lw(/*pipelined=*/true);
    const auto tensors =
        g.lower(lw, model::im2colStem(model::makeImage(7)));
    const LoweredTensor &out = tensors.at(g.outputNode());
    InferenceSession stepped(lw);
    const Cycle cycles = runAndCheckDerivation(stepped);
    EXPECT_EQ(cycles, 130'530u);

    InferenceSession derived(lw);
    derived.enableReplay();
    ASSERT_TRUE(derived.runBounded().completed);
    EXPECT_EQ(derived.derivedCount(), 1u);
    EXPECT_EQ(derived.recordCount(), 1u);
    EXPECT_EQ(derived.replayCount(), 0u);
    EXPECT_EQ(derived.cycles(), cycles);
    EXPECT_EQ(derived.chip().stats().all(), stepped.chip().stats().all());
    EXPECT_EQ(derived.chip().power().totalEnergyJ(),
              stepped.chip().power().totalEnergyJ());
    EXPECT_EQ(derived.readTensor(out).data, stepped.readTensor(out).data);
}

TEST(DeriveTrace, OneMovedEventOrChangedTapeEntryIsAMismatch)
{
    // The comparison has teeth: the derived trace equals the recording,
    // and each single edit of it no longer does.
    Lowering lw(true);
    model::buildTinyNet(3, 8, 8, 4).lower(lw, randomData(8, 8, 4, 3));
    InferenceSession sess(lw);
    std::shared_ptr<const ExecutionTrace> recorded;
    {
        TraceRecording rec({&sess.chip()});
        ASSERT_TRUE(sess.runBounded().completed);
        recorded = rec.finish(/*completed=*/true);
    }
    ASSERT_NE(recorded, nullptr);
    const auto derived = deriveTrace(*sess.program());
    ASSERT_NE(derived, nullptr);
    ASSERT_EQ(traceMismatch(*derived, *recorded), "");
    ASSERT_GT(recorded->events.size(), 100u);
    ASSERT_GT(recorded->consumeTape.size(), 100u);

    const auto edited = [&](auto &&edit) {
        ExecutionTrace t = *derived;
        edit(t);
        return traceMismatch(t, *recorded);
    };
    const std::size_t mid = derived->events.size() / 2;
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.events[mid].cycleOffset; }),
              "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.events[mid].instIndex; }),
              "");
    const std::size_t c = derived->consumeTape.size() / 2;
    EXPECT_NE(edited([&](ExecutionTrace &t) {
                  t.consumeTape[c] = t.consumeTape[c] == kTapeMiss
                                         ? 0
                                         : t.consumeTape[c] + 1;
              }),
              "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { t.consumeTape.pop_back(); }),
              "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.produceSlot[1]; }), "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.chips[0].fabricHops; }),
              "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.chips[0].nopCycles; }),
              "");
    EXPECT_NE(edited([&](ExecutionTrace &t) { ++t.span; }), "");
}

TEST(DeriveTrace, DeclinedProgramsAreRecorded)
{
    // Each program the derivation declines: deriveTrace() says null,
    // and a replay-enabled session's first run records it instead.
    const auto recordsFirstRun = [](const AsmProgram &prog) {
        EXPECT_EQ(deriveTrace(prog), nullptr);
        InferenceSession sess(1, 0);
        sess.bind({SharedProgram(prog)});
        sess.reset();
        sess.enableReplay();
        EXPECT_TRUE(sess.runBounded().completed);
        EXPECT_EQ(sess.recordCount(), 1u);
        EXPECT_EQ(sess.derivedCount(), 0u);
    };
    // A C2C instruction.
    recordsFirstRun(assembled("@C2C0:\n    deskew\n"
                              "@MEM_W0:\n    read 0x1, s0.e\n"));
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
    // A trace past the tape's 32-bit produce tags, declined from the
    // text before anything runs.
    EXPECT_EQ(deriveTrace(assembled("@MEM_W0:\n    read 0x1, s0.e\n"
                                    "    repeat 4294967295, 1\n")),
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
    // text does not hold it, so the run is recorded.
    InferenceSession flowing(1, 0);
    flowing.bind({SharedProgram(late)});
    flowing.reset();
    flowing.enableReplay();
    flowing.chip().fabric().write(StreamRef{7, Direction::East}, 10,
                                  Vec320{});
    ASSERT_TRUE(flowing.runBounded().completed);
    EXPECT_EQ(flowing.recordCount(), 1u);
    EXPECT_EQ(flowing.derivedCount(), 0u);

    // A pod: its members' programs hold C2C transfers.
    InferenceSession pod(/*chips=*/2, /*wire_latency=*/17);
    std::vector<ScheduledProgram> ring;
    buildRingAllReduce(pod.pod(), ring);
    std::vector<SharedProgram> members;
    for (ScheduledProgram &p : ring)
        members.emplace_back(p.toAsm());
    EXPECT_EQ(deriveTrace(*members[0].get()), nullptr);
    pod.bind(members);
    pod.reset();
    pod.enableReplay();
    ASSERT_TRUE(pod.runBounded().completed);
    EXPECT_EQ(pod.recordCount(), 1u);
    EXPECT_EQ(pod.derivedCount(), 0u);
}

} // namespace
} // namespace tsp
