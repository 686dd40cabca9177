/**
 * @file
 * Dispatch listings from a recording: Chrome-trace event structure,
 * escaping, a file round-trip, and a run cut off before it retires.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "isa/assembler.hh"
#include "sim/chip.hh"
#include "sim/trace_export.hh"

namespace tsp {
namespace {

TEST(TraceExport, JsonContainsQueuesAndEvents)
{
    Chip chip;
    const AsmResult r = assemble("@MEM_W0:\n"
                                 "    read 0x1, s0.e\n"
                                 "    nop 2\n"
                                 "    read 0x2, s1.e\n"
                                 "@VXM3:\n"
                                 "    nop 3\n"
                                 "    relu s0.e, s2.e\n");
    ASSERT_TRUE(r.ok) << r.error;
    chip.loadProgram(r.program);
    TraceRecording rec({&chip});
    chip.run();

    const std::string json = traceToChromeJson(rec.recorded(), {&r.program});
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
    Chip chip;
    const AsmResult r = assemble("@MEM_E1:\n    read 0x4, s5.w\n");
    ASSERT_TRUE(r.ok);
    chip.loadProgram(r.program);
    TraceRecording rec({&chip});
    chip.run();

    const std::string path = "/tmp/tsp_trace_test.json";
    ASSERT_TRUE(writeChromeTrace(rec.recorded(), {&r.program}, path));
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
    const std::string json = traceToChromeJson(t, {&prog, &prog});
    EXPECT_NE(json.find("\"pid\":2,"), std::string::npos);
    EXPECT_NE(json.find("\"asm\""), std::string::npos);
    EXPECT_EQ(json.find('\n', json.find("\"asm\"")),
              json.find("\"}}", json.find("\"asm\"")) + 3);
}

TEST(TraceExport, CutOffRunStillListsItsDispatches)
{
    // tsp-run's example listing, stopped at cycle 12: finish() will
    // not seal the unretired run, but the recording still lists the
    // two reads that dispatched (cycles 9 and 10).
    Chip chip;
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
    chip.loadProgram(r.program);
    TraceRecording rec({&chip});
    EXPECT_FALSE(chip.runBounded(12));

    const ExecutionTrace &t = rec.recorded();
    std::vector<std::pair<std::uint32_t, std::string>> reads;
    for (const ExecutionTrace::Event &e : t.events) {
        if (e.kind != ExecutionTrace::EventKind::Dispatch)
            continue;
        EXPECT_EQ(r.program.queue(IcuId{e.unit})[e.instIndex].op,
                  Opcode::Read);
        reads.emplace_back(e.cycleOffset, IcuId{e.unit}.name());
    }
    const std::vector<std::pair<std::uint32_t, std::string>> want = {
        {9, "MEM_W1"}, {10, "MEM_W0"}};
    EXPECT_EQ(reads, want);
    EXPECT_EQ(rec.finish(/*completed=*/false), nullptr);
    EXPECT_EQ(rec.recorded().events.size(), 2u);
}

} // namespace
} // namespace tsp
