/**
 * @file
 * Host-side microbenchmarks (google-benchmark): how fast the
 * simulator itself runs — fabric hops, ECC codec, MXM matvec tick,
 * and a full chip cycle — for anyone profiling or extending the
 * model. These measure the *simulator*, not the simulated chip.
 *
 * After the microbenchmarks, main() runs an end-to-end full-program
 * comparison across the three execution tiers: the legacy per-cycle
 * stepper, the event-driven fast-forward core, and trace replay
 * (derive the resolved micro-op sequence from the program's text
 * once, then re-execute only the numerics — see sim/exec_trace.hh),
 * reporting simulated cycles per wall-clock second for each and
 * asserting the executions are identical (cycles, and stats for the
 * first two; the replay tier's full bit-identity is proven by
 * tests/sim/test_replay.cc). It also times the derivation of the
 * program's trace (median of five) beside the tiers and prints the
 * trace's bytes. Two variants run: the dense compiled schedule as-is, and a
 * NOP-dominated variant — the same program padded with a long
 * trailing NOP on an unused queue, modeling a deadline-padded
 * serving slot where the chip idles until the next batch window
 * (paper VI: deterministic deadlines). Results land in
 * BENCH_sim_speed.json, and the active SIMD kernel tiers are named
 * in the end-to-end header (scalar, or avx2 plus +vnni for the MXM
 * and +gfni for the ECC codec when the host has them; see
 * common/cpu.hh).
 *
 * Flags: --e2e=resnet50 (default) | tiny | off selects the
 * end-to-end workload (CI smoke uses tiny; both exit nonzero if a
 * tier's run differs from the per-cycle one or the derivation
 * declines the program);
 * --min-replay-over-ff=<x> exits nonzero unless the dense replay
 * tier is at least x times faster than fast-forward, comparing the
 * medians of kGateReps runs of each tier (CI smoke); all other flags
 * pass through to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "arch/layout.hh"
#include "bench_util.hh"
#include "common/cpu.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "graph/graph.hh"
#include "mem/ecc.hh"
#include "model/resnet.hh"
#include "mxm/mxm_plane.hh"
#include "runtime/session.hh"
#include "sim/chip.hh"
#include "stream/fabric.hh"

namespace tsp {
namespace {

void
BM_FabricAdvance(benchmark::State &state)
{
    StreamFabric fabric;
    Vec320 v;
    for (int i = 0; i < 32; ++i)
        fabric.write({static_cast<StreamId>(i), Direction::East},
                     40 + i % 8, v);
    for (auto _ : state) {
        fabric.advance();
        benchmark::DoNotOptimize(fabric.validEntries());
    }
}
BENCHMARK(BM_FabricAdvance);

void
BM_EccComputeVec(benchmark::State &state)
{
    Rng rng(1);
    Vec320 v;
    for (auto &b : v.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    for (auto _ : state) {
        eccComputeVec(v);
        benchmark::DoNotOptimize(v.ecc[0]);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLanes);
}
BENCHMARK(BM_EccComputeVec);

void
BM_EccCheckVec(benchmark::State &state)
{
    Rng rng(2);
    Vec320 v;
    for (auto &b : v.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    eccComputeVec(v);
    for (auto _ : state) {
        Vec320 copy = v;
        benchmark::DoNotOptimize(eccCheckVec(copy));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLanes);
}
BENCHMARK(BM_EccCheckVec);

void
BM_EccCheckVecOneFlip(benchmark::State &state)
{
    // One flipped data bit per vector: the vector tier's check falls
    // back to the scalar check for that word.
    Rng rng(3);
    Vec320 v;
    for (auto &b : v.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    eccComputeVec(v);
    v.bytes[13 * kWordBytes + 5] ^= 0x10;
    for (auto _ : state) {
        Vec320 copy = v;
        benchmark::DoNotOptimize(eccCheckVec(copy));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLanes);
}
BENCHMARK(BM_EccCheckVecOneFlip);

void
BM_MxmMatvecTick(benchmark::State &state)
{
    ChipConfig cfg;
    cfg.strictStreams = false;
    StreamFabric fabric;
    MxmPlane plane(0, cfg, fabric);
    // A long activation window; each tick is one 320x320 matvec.
    Instruction abc;
    abc.op = Opcode::Abc;
    abc.imm1 = kMxmAccDepth;
    abc.srcA = {16, Direction::West};
    std::uint32_t left = 0;
    for (auto _ : state) {
        if (left == 0) {
            plane.issue(abc, fabric.now());
            left = kMxmAccDepth;
        }
        plane.tick(fabric.now());
        fabric.advance();
        --left;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kMxmDim * kMxmDim));
}
BENCHMARK(BM_MxmMatvecTick);

void
BM_ChipIdleCycle(benchmark::State &state)
{
    Chip chip;
    chip.loadProgram(AsmProgram{});
    for (auto _ : state)
        chip.step();
}
BENCHMARK(BM_ChipIdleCycle);

void
BM_FabricAdvanceBy64(benchmark::State &state)
{
    // The fast-forward path's bulk hop: 64 idle cycles in one call.
    StreamFabric fabric;
    Vec320 v;
    for (auto _ : state) {
        fabric.write({3, Direction::East}, 0, v);
        fabric.advanceBy(64);
        benchmark::DoNotOptimize(fabric.totalHops());
    }
}
BENCHMARK(BM_FabricAdvanceBy64);

/** Runs of each tier the --min-replay-over-ff gate compares. */
constexpr int kGateReps = 5;

/** One timed end-to-end simulation of @p lw. */
struct E2eRun
{
    Cycle cycles = 0;
    double wallSec = 0.0;
    std::string stats;
};

/** Seconds since @p t0. */
double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

E2eRun
timedRun(Lowering &lw, bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    InferenceSession sess(lw, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const Cycle cycles = sess.run();
    const auto t1 = std::chrono::steady_clock::now();
    E2eRun r;
    r.cycles = cycles;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    const StatGroup stats = sess.chip().stats();
    for (const auto &[name, val] : stats.all())
        r.stats += name + "=" + std::to_string(val) + ";";
    return r;
}

/** Runs @p prog on a bare chip seeded from @p lw, timed. */
E2eRun
timedChipRun(const AsmProgram &prog, Lowering &lw, bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    Chip chip(cfg);
    chip.loadProgram(prog);
    lw.image().applyTo(chip);
    const auto t0 = std::chrono::steady_clock::now();
    const Cycle cycles = chip.run(/*max_cycles=*/1ull << 40);
    const auto t1 = std::chrono::steady_clock::now();
    E2eRun r;
    r.cycles = cycles;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    const StatGroup stats = chip.stats();
    for (const auto &[name, val] : stats.all())
        r.stats += name + "=" + std::to_string(val) + ";";
    return r;
}

/** Timed replays of the compiled session: its first run (untimed)
 * derives the trace, then @p reps times reset with fresh state and
 * time the replayed run. @return the last replay, timed by the
 * median. */
E2eRun
timedReplayRun(Lowering &lw, int reps, bench::Measurement *wall)
{
    ChipConfig cfg;
    InferenceSession sess(lw, cfg);
    sess.enableReplay();
    sess.run(); // Derives the trace, then replays it.
    E2eRun r;
    *wall = bench::measure(
        [&] {
            sess.reset();
            const auto t0 = std::chrono::steady_clock::now();
            r.cycles = sess.run(); // Replays the trace.
            return since(t0);
        },
        reps, 0.0);
    if (sess.replayCount() != static_cast<std::uint64_t>(wall->reps))
        std::fprintf(stderr, "replay tier did not engage!\n");
    r.wallSec = wall->median;
    return r;
}

/** Timed chip-level replay of @p prog (the padded variant). */
E2eRun
timedChipReplay(const AsmProgram &prog, Lowering &lw, int reps,
                bench::Measurement *wall)
{
    ChipConfig cfg;
    const auto mk = [&] {
        auto chip = std::make_unique<Chip>(cfg);
        chip->loadProgram(prog);
        lw.image().applyTo(*chip);
        return chip;
    };
    const auto trace = deriveTrace(prog);
    E2eRun r;
    if (!trace) {
        // No replay: its zero cycles fail the tier identity.
        std::fprintf(stderr, "the derivation declined the program!\n");
        *wall = {};
        return r;
    }
    *wall = bench::measure(
        [&] {
            auto chip = mk();
            const auto t0 = std::chrono::steady_clock::now();
            replayTrace(*trace, {chip.get()});
            const double sec = since(t0);
            r.cycles = chip->now();
            return sec;
        },
        reps, 0.0);
    r.wallSec = wall->median;
    return r;
}

/** The first run's trace, derived from the program text. */
struct DerivedTrace
{
    bench::Measurement derive;  ///< deriveTrace() of the program.
    std::size_t traceBytes = 0; ///< ExecutionTrace::memoryBytes().
};

/** Derives @p lw's trace from its program's text @p reps times. */
DerivedTrace
timedDerivation(Lowering &lw, int reps)
{
    DerivedTrace t;
    std::shared_ptr<const ExecutionTrace> derived;
    t.derive = bench::measure(
        [&] {
            derived.reset();
            const auto t0 = std::chrono::steady_clock::now();
            derived = deriveTrace(*lw.assembled().get());
            return since(t0);
        },
        reps, 0.0);
    t.traceBytes = derived ? derived->memoryBytes() : 0;
    std::printf("  %-22s derive %8.1f ms [%.1f-%.1f] over %d runs | "
                "trace %.1f MiB%s\n",
                "first-run trace", 1e3 * t.derive.median,
                1e3 * t.derive.q1, 1e3 * t.derive.q3, t.derive.reps,
                static_cast<double>(t.traceBytes) / (1 << 20),
                derived ? "" : " | DECLINED");
    return t;
}

/** A legacy/fast-forward/replay triple over one workload variant. */
struct E2eTriple
{
    double legacyCps = 0.0;
    double fastCps = 0.0;
    double replayCps = 0.0;
    double speedup = 0.0;       ///< fast-forward over legacy.
    double replaySpeedup = 0.0; ///< replay over legacy.
    double replayOverFast = 0.0;
    bool identical = false;
    Cycle cycles = 0;
    E2eRun legacy, fast, replay;
    /** Wall times of the fast-forward and replay runs. */
    bench::Measurement fastWall, replayWall;
};

/**
 * Runs one variant per-cycle once, then fast-forward and replay
 * @p reps times each; the fast-forward and replay rates come from the
 * median run.
 */
template <typename Runner, typename ReplayRunner>
E2eTriple
compareTriple(const char *label, Runner &&run,
              ReplayRunner &&replay_run, int reps)
{
    E2eTriple p;
    p.legacy = run(false);
    p.fastWall = bench::measure(
        [&] {
            p.fast = run(true);
            return p.fast.wallSec;
        },
        reps, 0.0);
    p.fast.wallSec = p.fastWall.median;
    p.replay = replay_run(reps, &p.replayWall);
    p.legacyCps =
        static_cast<double>(p.legacy.cycles) / p.legacy.wallSec;
    p.fastCps = static_cast<double>(p.fast.cycles) / p.fast.wallSec;
    p.replayCps =
        static_cast<double>(p.replay.cycles) / p.replay.wallSec;
    p.speedup = p.fastCps / p.legacyCps;
    p.replaySpeedup = p.replayCps / p.legacyCps;
    p.replayOverFast = p.replayCps / p.fastCps;
    p.identical = p.legacy.cycles == p.fast.cycles &&
                  p.legacy.stats == p.fast.stats &&
                  p.replay.cycles == p.legacy.cycles;
    p.cycles = p.legacy.cycles;
    std::printf(
        "  %-22s per-cycle %10llu cyc %8.3f s %12.0f c/s | "
        "fast-forward %8.3f s %12.0f c/s %6.2fx | "
        "replay %8.3f s %12.0f c/s %6.2fx (%5.2fx over ff) %s\n",
        label, static_cast<unsigned long long>(p.legacy.cycles),
        p.legacy.wallSec, p.legacyCps, p.fast.wallSec, p.fastCps,
        p.speedup, p.replay.wallSec, p.replayCps, p.replaySpeedup,
        p.replayOverFast, p.identical ? "(identical)" : "MISMATCH!");
    return p;
}

int
runEndToEnd(const std::string &workload, double min_replay_over_ff)
{
    // The gate compares medians of several runs; without it, one run
    // per tier keeps the ResNet-50 default short.
    const int reps = min_replay_over_ff > 0.0 ? kGateReps : 1;
    Graph g = workload == "resnet50"
                  ? model::buildResNetBlocks(
                        (const int[4]){3, 4, 6, 3}, /*seed=*/42)
                  : model::buildTinyNet(/*seed=*/42, 12, 12, 8);
    std::vector<std::int8_t> input;
    if (workload == "resnet50") {
        input = model::im2colStem(model::makeImage(7));
    } else {
        Rng rng(7);
        input.resize(12 * 12 * 8);
        for (auto &v : input)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    }
    Lowering lw(/*pipelined=*/true);
    g.lower(lw, input);

    std::printf("\nend-to-end full-program simulation (%s "
                "schedule, %s%s%s kernels):\n",
                workload.c_str(),
                simdKernelsEnabled() ? "avx2" : "scalar",
                simdKernelsEnabled() && cpuHasAvx512Vnni() ? "+vnni" : "",
                simdKernelsEnabled() && cpuHasGfniAvx512() ? "+gfni"
                                                           : "");
    const E2eTriple dense = compareTriple(
        "dense", [&](bool ff) { return timedRun(lw, ff); },
        [&](int n, bench::Measurement *wall) {
            return timedReplayRun(lw, n, wall);
        },
        reps);

    const DerivedTrace derived = timedDerivation(lw, kGateReps);

    // NOP-dominated variant: the compiled program plus one long NOP
    // on an otherwise unused C2C queue — the chip sits provably idle
    // until the deadline, exactly the span the event core elides.
    const Cycle pad =
        workload == "resnet50" ? 25'000'000 : 2'000'000;
    // The sessions above sealed lw; copy its one cached assembly.
    AsmProgram padded = *lw.assembled().get();
    Instruction deadline;
    deadline.op = Opcode::Nop;
    deadline.imm0 = static_cast<std::uint32_t>(pad);
    Instruction wake; // A queue retires at its last *dispatch*, so a
    wake.op = Opcode::Nop;
    wake.imm0 = 1; // trailing 1-cycle NOP pins the end of the pad.
    auto &pad_queue = padded.queues[IcuId::c2c(kC2cLinks - 1).id];
    pad_queue.push_back(deadline);
    pad_queue.push_back(wake);
    const E2eTriple nop = compareTriple(
        "nop-padded (deadline)",
        [&](bool ff) { return timedChipRun(padded, lw, ff); },
        [&](int n, bench::Measurement *wall) {
            return timedChipReplay(padded, lw, n, wall);
        },
        1);

    const bool identical =
        dense.identical && nop.identical && derived.traceBytes > 0;
    std::printf("  headline: replay %.2fx over per-cycle, %.2fx over "
                "fast-forward on the dense schedule (%s)\n",
                dense.replaySpeedup, dense.replayOverFast,
                identical ? "all runs identical"
                          : "MISMATCH — execution-tier bug!");

    bench::writeJson(
        "BENCH_sim_speed.json",
        {{"workload_is_resnet50", workload == "resnet50" ? 1.0 : 0.0},
         {"simd_kernels_avx2", simdKernelsEnabled() ? 1.0 : 0.0},
         {"simulated_cycles", static_cast<double>(dense.cycles)},
         {"legacy_wall_sec", dense.legacy.wallSec},
         {"legacy_cycles_per_sec", dense.legacyCps},
         {"fast_forward_wall_sec", dense.fast.wallSec},
         {"fast_forward_cycles_per_sec", dense.fastCps},
         {"dense_speedup", dense.speedup},
         {"replay_wall_sec", dense.replay.wallSec},
         {"replay_cycles_per_sec", dense.replayCps},
         {"replay_speedup", dense.replaySpeedup},
         {"replay_over_fast_forward", dense.replayOverFast},
         {"nop_padded_cycles", static_cast<double>(nop.cycles)},
         {"nop_padded_legacy_wall_sec", nop.legacy.wallSec},
         {"nop_padded_legacy_cycles_per_sec", nop.legacyCps},
         {"nop_padded_fast_forward_wall_sec", nop.fast.wallSec},
         {"nop_padded_fast_forward_cycles_per_sec", nop.fastCps},
         {"nop_padded_replay_wall_sec", nop.replay.wallSec},
         {"nop_padded_replay_cycles_per_sec", nop.replayCps},
         {"nop_padded_replay_speedup", nop.replaySpeedup},
         {"speedup", nop.speedup},
         {"derive_wall_sec", derived.derive.median},
         {"derive_wall_sec_q1", derived.derive.q1},
         {"derive_wall_sec_q3", derived.derive.q3},
         {"trace_bytes", static_cast<double>(derived.traceBytes)},
         {"identical_results", identical ? 1.0 : 0.0}});
    if (!identical)
        return 1;
    if (min_replay_over_ff <= 0.0)
        return 0;
    // The ratio of medians, and its spread: the fast quartile range
    // over the replay quartile range bounds where most pairs of runs
    // would put it.
    const bench::Measurement &f = dense.fastWall;
    const bench::Measurement &r = dense.replayWall;
    const bool pass = dense.replayOverFast >= min_replay_over_ff;
    std::printf("  gate: replay over fast-forward %.2fx = median %.3f ms "
                "[%.3f-%.3f] / median %.3f ms [%.3f-%.3f] over %d and "
                "%d runs (quartile spread %.2fx-%.2fx); required >= "
                "%.2fx: %s\n",
                dense.replayOverFast, 1e3 * f.median, 1e3 * f.q1,
                1e3 * f.q3, 1e3 * r.median, 1e3 * r.q1, 1e3 * r.q3,
                f.reps, r.reps, f.q1 / r.q3, f.q3 / r.q1,
                min_replay_over_ff, pass ? "pass" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    // Strip our flags before google-benchmark parses the rest.
    std::string workload = "resnet50";
    double min_replay_over_ff = 0.0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--e2e=", 6) == 0)
            workload = argv[i] + 6;
        else if (std::strncmp(argv[i], "--min-replay-over-ff=",
                              21) == 0)
            min_replay_over_ff = std::atof(argv[i] + 21);
        else
            argv[out++] = argv[i];
    }
    argc = out;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (workload == "off")
        return 0;
    return tsp::runEndToEnd(workload, min_replay_over_ff);
}
