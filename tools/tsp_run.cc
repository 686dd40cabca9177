/**
 * @file
 * tsp-run: assemble and execute a Table I assembly listing on the
 * simulated chip.
 *
 *   tsp-run PROGRAM.tsp [options]
 *     --mem HEM:SLICE:ADDR=BYTE[,BYTE...]   preload a word (repeats)
 *     --dump HEM:SLICE:ADDR                 print a word after the run
 *     --max-cycles N                        abort limit (default 10M)
 *     --trace                               print every dispatch
 *     --trace-json FILE                     write a chrome://tracing file
 *     --stats                               print chip statistics
 *     --power                               print average power
 *     --fault-rate R                        per-access bit-upset rate on
 *                                           MEM reads/writes and stream
 *                                           hops (default 0)
 *     --fault-double F                      fraction of upsets striking a
 *                                           second bit in the same word
 *     --fault-seed S                        fault-injector seed
 *     --snapshot-every N                    capture a chip snapshot every
 *                                           N cycles; on a machine check
 *                                           the run migrates onto a
 *                                           rebuilt chip restored from
 *                                           the last pre-fault snapshot
 *                                           (fresh fault seed) instead
 *                                           of dying
 *
 * --trace and --trace-json list the program's schedule derived from
 * its text (deriveSchedule(), sim/exec_trace.hh) up to the cycle the
 * run stopped at, so a run that is cut off, machine-checked, migrated
 * or never retires still lists everything it dispatched. A listing
 * ends at cycle 2^32 - 1 (its cycle offsets are 32-bit).
 *
 * Exit status: 0 on clean retirement, 1 on error or cycle-limit
 * abort, 2 on usage errors, 3 on a machine check (uncorrectable
 * error; the first-error context is printed).
 *
 * Example:
 *   cat > add.tsp <<'EOF'
 *   @MEM_W0:
 *       nop 10
 *       read 0x5, s16.e
 *   @MEM_W1:
 *       nop 9
 *       read 0x6, s17.e
 *   @VXM0:
 *       nop 13
 *       add.sat s16.e, s17.e, s29.w
 *   @MEM_W2:
 *       nop 17
 *       write 0x7, s29.w
 *   EOF
 *   tsp-run add.tsp --mem W:0:0x5=30 --mem W:1:0x6=40 \
 *           --dump W:2:0x7 --stats
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strutil.hh"
#include "isa/assembler.hh"
#include "runtime/session.hh"
#include "sim/chip.hh"
#include "sim/snapshot.hh"
#include "sim/trace_export.hh"

namespace {

using namespace tsp;

struct MemSpec
{
    Hemisphere hem;
    int slice;
    MemAddr addr;
    std::vector<std::uint8_t> bytes; // Empty for --dump.
};

bool
parseLocation(const std::string &text, MemSpec &out)
{
    // "W:12:0x40" or "E:3:16".
    const auto parts = split(text, ':');
    if (parts.size() != 3)
        return false;
    if (iequals(parts[0], "w")) {
        out.hem = Hemisphere::West;
    } else if (iequals(parts[0], "e")) {
        out.hem = Hemisphere::East;
    } else {
        return false;
    }
    long slice = 0, addr = 0;
    if (!parseInt(parts[1], slice) || slice < 0 ||
        slice >= kMemSlicesPerHem) {
        return false;
    }
    if (!parseInt(parts[2], addr) || addr < 0 ||
        addr >= kMemWordsPerSlice) {
        return false;
    }
    out.slice = static_cast<int>(slice);
    out.addr = static_cast<MemAddr>(addr);
    return true;
}

bool
parseMemArg(const std::string &text, MemSpec &out)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos)
        return false;
    if (!parseLocation(text.substr(0, eq), out))
        return false;
    for (const auto &b : split(text.substr(eq + 1), ',')) {
        long v = 0;
        if (!parseInt(b, v) || v < -128 || v > 255)
            return false;
        out.bytes.push_back(static_cast<std::uint8_t>(v & 0xff));
    }
    return !out.bytes.empty();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: tsp-run PROGRAM.tsp [--mem H:S:A=b,b,...] "
                 "[--dump H:S:A] [--max-cycles N] [--trace] "
                 "[--trace-json FILE] [--stats] [--power] [--fault-rate R] "
                 "[--fault-double F] [--fault-seed S] "
                 "[--snapshot-every N]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }

    std::vector<MemSpec> preloads, dumps;
    Cycle max_cycles = 10'000'000;
    bool want_trace = false, want_stats = false, want_power = false;
    const char *trace_json = nullptr;
    const char *path = nullptr;
    double fault_rate = 0.0;
    double fault_double = 0.0;
    bool have_fault_seed = false;
    std::uint64_t fault_seed = 0;
    Cycle snapshot_every = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--mem") {
            MemSpec m;
            if (!parseMemArg(next(), m)) {
                std::fprintf(stderr, "bad --mem argument\n");
                return 2;
            }
            preloads.push_back(std::move(m));
        } else if (arg == "--dump") {
            MemSpec m;
            if (!parseLocation(next(), m)) {
                std::fprintf(stderr, "bad --dump argument\n");
                return 2;
            }
            dumps.push_back(std::move(m));
        } else if (arg == "--max-cycles") {
            long v = 0;
            if (!parseInt(next(), v) || v <= 0) {
                std::fprintf(stderr, "bad --max-cycles\n");
                return 2;
            }
            max_cycles = static_cast<Cycle>(v);
        } else if (arg == "--trace") {
            want_trace = true;
        } else if (arg == "--trace-json") {
            trace_json = next();
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--power") {
            want_power = true;
        } else if (arg == "--fault-rate") {
            if (!parseDouble(next(), fault_rate) || fault_rate < 0.0 ||
                fault_rate > 1.0) {
                std::fprintf(stderr, "bad --fault-rate\n");
                return 2;
            }
        } else if (arg == "--fault-double") {
            if (!parseDouble(next(), fault_double) ||
                fault_double < 0.0 || fault_double > 1.0) {
                std::fprintf(stderr, "bad --fault-double\n");
                return 2;
            }
        } else if (arg == "--fault-seed") {
            long v = 0;
            if (!parseInt(next(), v)) {
                std::fprintf(stderr, "bad --fault-seed\n");
                return 2;
            }
            fault_seed = static_cast<std::uint64_t>(v);
            have_fault_seed = true;
        } else if (arg == "--snapshot-every") {
            long v = 0;
            if (!parseInt(next(), v) || v <= 0) {
                std::fprintf(stderr, "bad --snapshot-every\n");
                return 2;
            }
            snapshot_every = static_cast<Cycle>(v);
        } else if (!path) {
            path = argv[i];
        } else {
            usage();
            return 2;
        }
    }
    if (!path) {
        usage();
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    const AsmResult result = assemble(text.str());
    if (!result.ok) {
        std::fprintf(stderr, "%s:%d: %s\n", path, result.errorLine,
                     result.error.c_str());
        return 1;
    }

    ChipConfig cfg;
    cfg.fault.memReadRate = fault_rate;
    cfg.fault.memWriteRate = fault_rate;
    cfg.fault.streamRate = fault_rate;
    cfg.fault.doubleBitFraction = fault_double;
    if (have_fault_seed)
        cfg.fault.seed = fault_seed;
    // A chip is a pod of one: the session runs the program, captures
    // the snapshots and, on a machine check, migrates the run onto a
    // rebuilt chip (derived fault seed) restored from the last one.
    InferenceSession sess(1, 0, cfg);
    sess.bind({SharedProgram(result.program)});
    sess.reset();
    for (const MemSpec &m : preloads) {
        Vec320 v;
        for (std::size_t b = 0;
             b < m.bytes.size() && b < static_cast<std::size_t>(kLanes);
             ++b) {
            v.bytes[b] = m.bytes[b];
        }
        // Single-byte preloads broadcast across all lanes.
        if (m.bytes.size() == 1)
            v.bytes.fill(m.bytes[0]);
        sess.chip().mem(m.hem, m.slice).backdoorWrite(m.addr, v);
    }

    sess.enableSnapshots(snapshot_every);
    RunResult run = sess.runBounded(max_cycles);
    while (run.status == RunStatus::MachineCheck && run.resumeAt > 0 &&
           sess.migrations() < InferenceSession::kMaxMigrations) {
        const Cycle from = run.resumeAt;
        std::fprintf(stderr,
                     "machine check at cycle %llu; migrated to a rebuilt "
                     "chip from the cycle-%llu snapshot\n",
                     static_cast<unsigned long long>(
                         sess.chip().machineCheckInfo().cycle),
                     static_cast<unsigned long long>(from));
        // The resumed run keeps the absolute cycle limit.
        run = sess.migrateAndResume(max_cycles - from);
    }
    const bool retired = run.completed;
    const int migrations = sess.migrations();
    Chip &chip = sess.chip();
    const Cycle cycles = chip.now();

    if (snapshot_every > 0) {
        std::printf("snapshots: %llu captured every %llu cycles, "
                    "%d migration%s\n",
                    static_cast<unsigned long long>(sess.snapshotCount()),
                    static_cast<unsigned long long>(snapshot_every),
                    migrations, migrations == 1 ? "" : "s");
    }
    if (retired) {
        std::printf("retired in %llu cycles (%.3f us at 1 GHz)\n",
                    static_cast<unsigned long long>(cycles),
                    static_cast<double>(cycles) * 1e-3);
    } else if (chip.machineCheck()) {
        const MachineCheckInfo &mc = chip.machineCheckInfo();
        std::fprintf(stderr,
                     "MACHINE CHECK at cycle %llu in %s: %s "
                     "(%llu uncorrectable error%s total)\n",
                     static_cast<unsigned long long>(mc.cycle),
                     mc.unit.c_str(), mc.detail.c_str(),
                     static_cast<unsigned long long>(
                         chip.machineCheckCount()),
                     chip.machineCheckCount() == 1 ? "" : "s");
    } else {
        std::fprintf(stderr,
                     "cycle limit hit at %llu cycles; program did "
                     "not retire\n",
                     static_cast<unsigned long long>(cycles));
    }

    // The schedule is the program's, faults or not: list what
    // dispatched before the run stopped.
    std::vector<ExecutionTrace::Event> listed;
    if (want_trace || trace_json)
        listed = deriveSchedule(result.program, cycles);
    if (want_trace) {
        for (const ExecutionTrace::Event &e : listed) {
            if (e.kind != ExecutionTrace::EventKind::Dispatch)
                continue;
            std::printf("%8u  %-12s %s\n", e.cycleOffset,
                        IcuId{e.unit}.name().c_str(),
                        result.program.queue(IcuId{e.unit})[e.instIndex]
                            .toString()
                            .c_str());
        }
    }
    if (trace_json) {
        if (!writeChromeTrace(listed, {&result.program}, trace_json)) {
            std::fprintf(stderr, "cannot write %s\n", trace_json);
            return 1;
        }
        std::printf("wrote %s (open in chrome://tracing)\n",
                    trace_json);
    }
    if (want_stats)
        std::fputs(chip.stats().toString().c_str(), stdout);
    if (want_power) {
        std::printf("average power: %.1f W\n",
                    chip.power().averagePowerW());
    }
    for (const MemSpec &m : dumps) {
        const Vec320 v = chip.mem(m.hem, m.slice).backdoorRead(m.addr);
        std::printf("%c%d:0x%04x:", m.hem == Hemisphere::East ? 'E'
                                                              : 'W',
                    m.slice, m.addr);
        for (int b = 0; b < 16; ++b)
            std::printf(" %02x", v.bytes[static_cast<std::size_t>(b)]);
        std::printf(" ...\n");
    }
    if (chip.machineCheck())
        return 3;
    return retired ? 0 : 1;
}
