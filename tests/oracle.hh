/**
 * @file
 * Checks shared by the suites that pin compiled programs: the trace
 * derived from a program's text against a recording of its stepped
 * run (the derivation's oracle), and the program's text and binary
 * forms against the program itself.
 */

#ifndef TSP_TESTS_ORACLE_HH
#define TSP_TESTS_ORACLE_HH

#include <gtest/gtest.h>

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

/**
 * Runs @p sess (replay off, so its run steps) under a recording and
 * checks that the trace derived from its program's text equals the
 * recording field by field. @return the run's cycles.
 */
inline Cycle
runAndCheckDerivation(InferenceSession &sess)
{
    std::shared_ptr<const ExecutionTrace> recorded;
    Cycle cycles = 0;
    {
        TraceRecording rec({&sess.chip()});
        const RunResult r = sess.runBounded();
        EXPECT_TRUE(r.completed);
        cycles = r.cycles;
        recorded = rec.finish(r.completed);
    }
    EXPECT_NE(recorded, nullptr);
    const auto derived = deriveTrace(*sess.program());
    EXPECT_NE(derived, nullptr);
    if (recorded && derived) {
        EXPECT_EQ(traceMismatch(*derived, *recorded), "");
    }
    return cycles;
}

} // namespace tsp

#endif // TSP_TESTS_ORACLE_HH
