/**
 * @file
 * Dispatch listings derived from a program's text: Chrome-trace event
 * structure, escaping, a file round-trip, and runs cut off before they
 * retire.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "isa/assembler.hh"
#include "sim/chip.hh"
#include "sim/exec_trace.hh"
#include "sim/trace_export.hh"

namespace tsp {
namespace {

TEST(TraceExport, JsonContainsQueuesAndEvents)
{
    const AsmResult r = assemble("@MEM_W0:\n"
                                 "    read 0x1, s0.e\n"
                                 "    nop 2\n"
                                 "    read 0x2, s1.e\n"
                                 "@VXM3:\n"
                                 "    nop 3\n"
                                 "    relu s0.e, s2.e\n");
    ASSERT_TRUE(r.ok) << r.error;
    const auto trace = deriveTrace(r.program);
    ASSERT_NE(trace, nullptr);

    const std::string json = traceToChromeJson(trace->events, {&r.program});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("MEM_W0"), std::string::npos);
    EXPECT_NE(json.find("VXM3"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"relu\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1,"), std::string::npos);
    // Three dispatched instructions -> three duration events.
    std::size_t durations = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) !=
           std::string::npos) {
        ++durations;
        ++pos;
    }
    EXPECT_EQ(durations, 3u);
}

TEST(TraceExport, WritesFile)
{
    const AsmResult r = assemble("@MEM_E1:\n    read 0x4, s5.w\n");
    ASSERT_TRUE(r.ok);

    const std::string path = "/tmp/tsp_trace_test.json";
    ASSERT_TRUE(writeChromeTrace(deriveSchedule(r.program, 10),
                                 {&r.program}, path));
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("MEM_E1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceExport, EscapesAssemblyText)
{
    // toString never emits quotes/backslashes today, but the escaper
    // must be safe regardless.
    AsmProgram prog;
    prog.queues[IcuId::vxmAlu(0).id].resize(1);
    prog.queues[IcuId::vxmAlu(0).id][0].op = Opcode::Relu;
    ExecutionTrace t;
    ExecutionTrace::Event e;
    e.cycleOffset = 3;
    e.unit = static_cast<std::uint16_t>(IcuId::vxmAlu(0).id);
    e.chip = 1;
    t.events.push_back(e);
    const std::string json = traceToChromeJson(t.events, {&prog, &prog});
    EXPECT_NE(json.find("\"pid\":2,"), std::string::npos);
    EXPECT_NE(json.find("\"asm\""), std::string::npos);
    EXPECT_EQ(json.find('\n', json.find("\"asm\"")),
              json.find("\"}}", json.find("\"asm\"")) + 3);
}

TEST(TraceExport, CutOffRunStillListsItsDispatches)
{
    // tsp-run's example listing, stopped at cycle 12: the run has not
    // retired, so it has no trace, but its derived schedule lists the
    // two reads that dispatched (cycles 9 and 10).
    const AsmResult r = assemble("@MEM_W0:\n"
                                 "    nop 10\n"
                                 "    read 0x5, s16.e\n"
                                 "@MEM_W1:\n"
                                 "    nop 9\n"
                                 "    read 0x6, s17.e\n"
                                 "@VXM0:\n"
                                 "    nop 13\n"
                                 "    add.sat s16.e, s17.e, s29.w\n"
                                 "@MEM_W2:\n"
                                 "    nop 17\n"
                                 "    write 0x7, s29.w\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(deriveTrace(r.program, /*max_span=*/12), nullptr);

    const std::vector<ExecutionTrace::Event> listed =
        deriveSchedule(r.program, 12);
    std::vector<std::pair<std::uint32_t, std::string>> reads;
    for (const ExecutionTrace::Event &e : listed) {
        if (e.kind != ExecutionTrace::EventKind::Dispatch)
            continue;
        EXPECT_EQ(r.program.queue(IcuId{e.unit})[e.instIndex].op,
                  Opcode::Read);
        reads.emplace_back(e.cycleOffset, IcuId{e.unit}.name());
    }
    const std::vector<std::pair<std::uint32_t, std::string>> want = {
        {9, "MEM_W1"}, {10, "MEM_W0"}};
    EXPECT_EQ(reads, want);
    EXPECT_EQ(listed.size(), 2u);
    // The whole run lists all four dispatches, as its trace does.
    EXPECT_EQ(deriveSchedule(r.program, 1000).size(),
              deriveTrace(r.program)->events.size());
    EXPECT_EQ(deriveSchedule(r.program, 1000).size(), 4u);
}

TEST(TraceExport, HugeRepeatListsOnlyWhatDispatchedBeforeItsCycle)
{
    // A text that would run for billions of cycles has no trace, but
    // its listing up to cycle 100 holds the dispatches a stepped run
    // stopped there made, reserving nothing for the rest of the text.
    for (const char *count : {"3000000000", "4294967295"}) {
        SCOPED_TRACE(count);
        const AsmResult r = assemble(std::string("@MEM_W0:\n"
                                                 "    read 0x1, s0.e\n"
                                                 "    repeat ") +
                                     count + ", 1\n");
        ASSERT_TRUE(r.ok) << r.error;
        const std::vector<ExecutionTrace::Event> listed =
            deriveSchedule(r.program, 100);

        Chip chip;
        chip.loadProgram(r.program);
        EXPECT_FALSE(chip.runBounded(100));
        ASSERT_EQ(listed.size(), chip.totalDispatched());
        EXPECT_GT(listed.size(), 10u);
        std::uint32_t last = 0;
        for (std::size_t i = 0; i < listed.size(); ++i) {
            const ExecutionTrace::Event &e = listed[i];
            EXPECT_EQ(e.kind, ExecutionTrace::EventKind::Dispatch);
            EXPECT_EQ(e.unit, IcuId::mem(Hemisphere::West, 0).id);
            EXPECT_EQ(e.instIndex, 0u);
            EXPECT_LT(e.cycleOffset, 100u);
            EXPECT_TRUE(i == 0 || e.cycleOffset > last);
            last = e.cycleOffset;
        }
    }
}

} // namespace
} // namespace tsp
