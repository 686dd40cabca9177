#include "sim/trace_export.hh"

#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/strutil.hh"

namespace tsp {

namespace {

/** Escapes a string for a JSON literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
traceToChromeJson(const ExecutionTrace &trace)
{
    using Kind = ExecutionTrace::EventKind;
    std::ostringstream os;
    os << "{\"traceEvents\":[\n";

    // Thread metadata: name each (chip, queue) once, grouped by slice
    // kind via the sort index.
    std::set<std::pair<int, int>> named;
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            os << ",\n";
        first = false;
        os << line;
    };

    for (const ExecutionTrace::Event &e : trace.events) {
        if (e.kind != Kind::Dispatch ||
            !named.insert({e.chip, e.unit}).second) {
            continue;
        }
        emit(strformat(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
            "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
            e.chip + 1, e.unit, IcuId{e.unit}.name().c_str()));
        emit(strformat(
            "{\"name\":\"thread_sort_index\",\"ph\":\"M\","
            "\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}",
            e.chip + 1, e.unit, e.unit));
    }

    for (const ExecutionTrace::Event &e : trace.events) {
        if (e.kind != Kind::Dispatch)
            continue;
        const Instruction &inst = trace.insts[e.instIndex];
        emit(strformat(
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
            "\"ts\":%u,\"dur\":1,\"args\":{\"asm\":\"%s\"}}",
            opcodeName(inst.op), e.chip + 1, e.unit, e.cycleOffset,
            jsonEscape(inst.toString()).c_str()));
    }
    os << "\n]}\n";
    return os.str();
}

bool
writeChromeTrace(const ExecutionTrace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << traceToChromeJson(trace);
    return static_cast<bool>(out);
}

} // namespace tsp
