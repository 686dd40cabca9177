/**
 * @file
 * Checks shared by the suites that pin compiled programs: the trace
 * derived from a program's text against a stepped run of it (the
 * derivation's oracle), and the program's text and binary forms
 * against the program itself.
 */

#ifndef TSP_TESTS_ORACLE_HH
#define TSP_TESTS_ORACLE_HH

#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "runtime/session.hh"
#include "sim/exec_trace.hh"
#include "sim/snapshot.hh"

namespace tsp {

/**
 * Checks that @p p's listing assembles back to @p p and that each of
 * its queues decodes back from its binary bundle, both by content.
 */
inline void
expectProgramRoundTrips(const AsmProgram &p)
{
    const AsmResult r = assemble(disassemble(p));
    ASSERT_TRUE(r.ok) << r.error << " at line " << r.errorLine;
    EXPECT_EQ(hashProgram(r.program), hashProgram(p));
    AsmProgram decoded;
    for (const auto &[icu, insts] : p.queues) {
        ASSERT_TRUE(decodeQueue(encodeQueue(insts), decoded.queues[icu]))
            << IcuId{icu}.name();
    }
    EXPECT_EQ(hashProgram(decoded), hashProgram(p));
}

/** @return @p slice's serialized SRAM image: bytes, check bits and
 *  port counters. */
inline std::vector<std::uint8_t>
memImage(const MemSlice &slice)
{
    SnapshotWriter w;
    slice.saveState(w);
    return w.take();
}

/**
 * @return "" when chips @p a and @p b ended alike — clock, every
 * stats() counter, exact energy and every MEM slice's image (bytes
 * and check bits) — otherwise the first difference.
 */
inline std::string
chipEndMismatch(const Chip &a, const Chip &b)
{
    if (a.now() != b.now())
        return "clock " + std::to_string(a.now()) + " vs " +
               std::to_string(b.now());
    const auto sa = a.stats().all();
    const auto sb = b.stats().all();
    for (const auto &[name, value] : sa) {
        const auto it = sb.find(name);
        if (it == sb.end() || it->second != value) {
            return name + " " + std::to_string(value) + " vs " +
                   (it == sb.end() ? "none" : std::to_string(it->second));
        }
    }
    if (sa.size() != sb.size())
        return "stats count differs";
    if (a.power().totalEnergyJ() != b.power().totalEnergyJ())
        return "energy differs";
    for (const Hemisphere hem : {Hemisphere::West, Hemisphere::East}) {
        for (int s = 0; s < kMemSlicesPerHem; ++s) {
            if (memImage(a.mem(hem, s)) != memImage(b.mem(hem, s))) {
                return std::string("MEM_") +
                       (hem == Hemisphere::West ? "W" : "E") +
                       std::to_string(s) + " image differs";
            }
        }
    }
    return "";
}

/** chipEndMismatch() over every pod member, in ring order. */
inline std::string
podEndMismatch(const Pod &a, const Pod &b)
{
    if (a.size() != b.size())
        return "pod sizes differ";
    for (int c = 0; c < a.size(); ++c) {
        const std::string m = chipEndMismatch(a.chip(c), b.chip(c));
        if (!m.empty())
            return "chip " + std::to_string(c) + ": " + m;
    }
    return "";
}

/** @return @p pod's members in ring order. */
inline std::vector<Chip *>
membersOf(Pod &pod)
{
    std::vector<Chip *> chips;
    for (int c = 0; c < pod.size(); ++c)
        chips.push_back(&pod.chip(c));
    return chips;
}

/**
 * The derivation's oracle: derives the trace of @p fresh's loaded
 * programs from their text, replays it on @p fresh (a pod loaded as
 * @p stepped was before its stepped run, which has ended) and checks
 * that both end alike (podEndMismatch()).
 */
inline void
expectDerivedReplayMatches(Pod &fresh, const Pod &stepped)
{
    std::vector<const AsmProgram *> texts;
    for (int c = 0; c < fresh.size(); ++c)
        texts.push_back(fresh.chip(c).program().get());
    const auto trace = deriveTrace(texts, fresh.wireLatency());
    ASSERT_NE(trace, nullptr);
    replayTrace(*trace, membersOf(fresh));
    EXPECT_EQ(podEndMismatch(stepped, fresh), "");
}

/**
 * Runs @p sess, a session of @p lw with replay off, so its run steps,
 * and checks a fresh replay-enabled session of @p lw against it: its
 * first run derives the trace from the program text and replays it,
 * and must end as the stepped run did (podEndMismatch()). @return the
 * stepped run's cycles.
 */
inline Cycle
runAndCheckDerivation(Lowering &lw, InferenceSession &sess)
{
    const RunResult r = sess.runBounded();
    EXPECT_TRUE(r.completed);
    InferenceSession replayed(lw);
    replayed.enableReplay();
    EXPECT_TRUE(replayed.runBounded().completed);
    EXPECT_EQ(replayed.recordCount(), 1u);
    EXPECT_EQ(podEndMismatch(sess.pod(), replayed.pod()), "");
    return r.cycles;
}

} // namespace tsp

#endif // TSP_TESTS_ORACLE_HH
