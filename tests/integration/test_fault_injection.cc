/**
 * @file
 * Whole-chip ECC fault injection (paper III.C: producers generate
 * ECC, consumers check and correct) and the machine-check path built
 * on it: single-bit upsets are absorbed bit-exactly, double-bit
 * upsets condemn the chip with first-error context instead of
 * flowing corrupted data into results, and the injector is
 * bit-identical under per-cycle stepping and the event-driven
 * fast-forward core.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

namespace tsp {
namespace {

std::vector<std::int8_t>
randomInput(int h, int w, int c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(static_cast<std::size_t>(h) * w *
                                  c);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return data;
}

TEST(FaultInjection, UniversalSingleBitUpsetIsFullyCorrected)
{
    const int h = 12, w = 12, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/42, h, w, c);
    const auto input = randomInput(h, w, c, 7);

    Lowering lw(/*pipelined=*/true);
    const auto lowered = g.lower(lw, input);

    InferenceSession sess(lw);

    // One upset per stored word, in a position that varies with the
    // address so every byte lane and bit index gets hit somewhere.
    Rng rng(99);
    for (const auto hem : {Hemisphere::West, Hemisphere::East}) {
        for (int sl = 0; sl < kMemSlicesPerHem; ++sl) {
            auto &mem = sess.chip().mem(hem, sl);
            for (MemAddr a = 0; a < kMemWordsPerSlice; ++a) {
                mem.injectBitFlip(a, rng.intIn(0, 319),
                                  rng.intIn(0, 7));
            }
        }
    }

    const Cycle cycles = sess.run();
    EXPECT_GT(cycles, 0u);
    // Every word the program consumed had a flipped bit; the
    // corrected count proves the error path actually ran.
    EXPECT_GT(sess.chip().stats().get("ecc_corrected"), 100u);
    EXPECT_FALSE(sess.chip().machineCheck());

    ref::QTensor qin(h, w, c);
    qin.data = input;
    const auto refs = g.runReference(qin);
    for (const auto &[id, lt] : lowered) {
        if (g.node(id).kind == OpKind::Input)
            continue;
        const ref::QTensor got = sess.readTensor(lt);
        const ref::QTensor &want = refs.at(id);
        ASSERT_EQ(got.data, want.data) << "node " << id;
    }
}

TEST(FaultInjection, DoubleBitUpsetRaisesMachineCheck)
{
    // Two flips in one 128-bit chunk exceed SECDED's correction
    // ability. The first consumer that touches a poisoned chunk must
    // condemn the chip: the run ends in MachineCheck with first-error
    // context, and nothing was silently "fixed".
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(3, h, w, c);
    const auto input = randomInput(h, w, c, 11);
    Lowering lw(true);
    g.lower(lw, input);
    InferenceSession sess(lw);
    for (const auto hem : {Hemisphere::West, Hemisphere::East}) {
        for (int sl = 0; sl < kMemSlicesPerHem; ++sl) {
            auto &mem = sess.chip().mem(hem, sl);
            for (MemAddr a = 0; a < kMemWordsPerSlice; ++a) {
                // Both flips land in ECC chunk 0 (bytes 0..15).
                mem.injectBitFlip(a, 0, 1);
                mem.injectBitFlip(a, 1, 5);
            }
        }
    }
    const RunResult rr = sess.runBounded();
    EXPECT_EQ(rr.status, RunStatus::MachineCheck);
    EXPECT_FALSE(rr.completed);
    EXPECT_TRUE(sess.machineChecked());
    EXPECT_FALSE(sess.timedOut());

    const Chip &chip = sess.chip();
    EXPECT_TRUE(chip.machineCheck());
    EXPECT_GE(chip.stats().get("ecc_uncorrectable"), 1u);
    EXPECT_EQ(chip.stats().get("machine_checks"),
              chip.stats().get("ecc_uncorrectable"));
    // Corrections require a clean syndrome, which a double flip
    // never produces.
    EXPECT_EQ(chip.stats().get("ecc_corrected"), 0u);

    // First-error context names the detecting unit and cycle.
    const MachineCheckInfo &mc = chip.machineCheckInfo();
    EXPECT_FALSE(mc.unit.empty());
    EXPECT_FALSE(mc.detail.empty());
    EXPECT_LE(mc.cycle, chip.now());
    EXPECT_EQ(mc.cycle, sess.lastMachineCheck().cycle);
    EXPECT_EQ(mc.unit, sess.lastMachineCheck().unit);

    // The halt is prompt: the chip stopped at the detection cycle,
    // not at program retirement.
    EXPECT_FALSE(chip.done());
}

TEST(FaultInjection, DoubleBitStreamFlipNeverServesSilently)
{
    // Regression for an old stream-consume bug: an
    // uncorrectable stream error used to warn and return the
    // corrupted vector as success. Force stream strikes that are
    // always double-bit: the run must end in MachineCheck, never in a
    // "completed" run whose output silently differs from the golden
    // reference.
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(5, h, w, c);
    const auto input = randomInput(h, w, c, 13);
    Lowering lw(true);
    const auto lowered = g.lower(lw, input);

    ChipConfig cfg;
    cfg.fault.seed = 0xdeadull;
    cfg.fault.streamRate = 0.01;
    cfg.fault.doubleBitFraction = 1.0; // Every strike uncorrectable.
    InferenceSession sess(lw, cfg);

    const RunResult rr = sess.runBounded();
    if (rr.status == RunStatus::Completed) {
        // No strike hit (possible at low rates): the output must be
        // bit-exact — corruption without detection is the one
        // forbidden outcome.
        ref::QTensor qin(h, w, c);
        qin.data = input;
        const auto refs = g.runReference(qin);
        for (const auto &[id, lt] : lowered) {
            if (g.node(id).kind == OpKind::Input)
                continue;
            ASSERT_EQ(sess.readTensor(lt).data, refs.at(id).data);
        }
        EXPECT_EQ(sess.chip().stats().get("faults_injected_stream"),
                  0u);
    } else {
        EXPECT_EQ(rr.status, RunStatus::MachineCheck);
        EXPECT_GE(sess.chip().stats().get("faults_injected_stream"),
                  2u);
        EXPECT_GE(sess.chip().machineCheckCount(), 1u);
    }
}

TEST(FaultInjection, RateInjectedSingleBitUpsetsAreCorrected)
{
    // The injector's single-bit strikes (doubleBitFraction = 0) land
    // anywhere in the 137-bit codeword, check bits included, and the
    // consumer-side SECDED must absorb every one bit-exactly.
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(9, h, w, c);
    const auto input = randomInput(h, w, c, 17);
    Lowering lw(true);
    const auto lowered = g.lower(lw, input);

    ChipConfig cfg;
    cfg.fault.seed = 0xfeedull;
    // Write and stream strikes: each is checked (and corrected)
    // immediately downstream. Read-path strikes are left out here —
    // a read strike plus a consume strike could stack two errors
    // into one chunk between checks, which is the *uncorrectable*
    // scenario tested elsewhere.
    cfg.fault.memWriteRate = 0.05;
    cfg.fault.streamRate = 0.02;
    cfg.fault.doubleBitFraction = 0.0;
    InferenceSession sess(lw, cfg);

    const RunResult rr = sess.runBounded();
    ASSERT_EQ(rr.status, RunStatus::Completed);
    const auto stats = sess.chip().stats();
    EXPECT_GT(stats.get("faults_injected_mem") +
                  stats.get("faults_injected_stream"),
              0u);
    EXPECT_GT(stats.get("ecc_corrected"), 0u);
    EXPECT_EQ(stats.get("machine_checks"), 0u);

    ref::QTensor qin(h, w, c);
    qin.data = input;
    const auto refs = g.runReference(qin);
    for (const auto &[id, lt] : lowered) {
        if (g.node(id).kind == OpKind::Input)
            continue;
        ASSERT_EQ(sess.readTensor(lt).data, refs.at(id).data)
            << "node " << id;
    }
}

/** Runs @p cfg on a fresh tiny-net session; returns (result, stats,
 *  mc info, final cycle). */
struct FaultRunOutcome
{
    RunResult rr;
    StatGroup stats;
    bool machineChecked = false;
    MachineCheckInfo mc;
    Cycle haltCycle = 0;
};

FaultRunOutcome
runFaulted(Lowering &lw, ChipConfig cfg)
{
    InferenceSession sess(lw, cfg);
    FaultRunOutcome out;
    out.rr = sess.runBounded();
    out.stats = sess.chip().stats();
    out.machineChecked = sess.machineChecked();
    if (out.machineChecked)
        out.mc = sess.chip().machineCheckInfo();
    out.haltCycle = sess.chip().now();
    return out;
}

void
expectIdenticalOutcomes(const FaultRunOutcome &a,
                        const FaultRunOutcome &b)
{
    EXPECT_EQ(a.rr.status, b.rr.status);
    EXPECT_EQ(a.rr.cycles, b.rr.cycles);
    EXPECT_EQ(a.haltCycle, b.haltCycle);
    EXPECT_EQ(a.machineChecked, b.machineChecked);
    if (a.machineChecked && b.machineChecked) {
        EXPECT_EQ(a.mc.cycle, b.mc.cycle);
        EXPECT_EQ(a.mc.unit, b.mc.unit);
        EXPECT_EQ(a.mc.detail, b.mc.detail);
    }
    EXPECT_EQ(a.stats.all(), b.stats.all());
}

TEST(FaultInjection, RateFaultsBitIdenticalUnderFastForward)
{
    // Rate-based strikes draw from the RNG per *access*, and the
    // access sequence is identical under per-cycle stepping and
    // fast-forward — so the entire upset history, halt cycle and
    // machine-check context must match bit for bit.
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(21, h, w, c);
    const auto input = randomInput(h, w, c, 23);
    Lowering lw(true);
    g.lower(lw, input);

    for (const double dbl : {0.0, 0.3}) {
        ChipConfig cfg;
        cfg.fault.seed = 0xabcdull;
        cfg.fault.memReadRate = 0.02;
        cfg.fault.memWriteRate = 0.01;
        cfg.fault.streamRate = 0.01;
        cfg.fault.doubleBitFraction = dbl;

        ChipConfig ff = cfg, step = cfg;
        ff.fastForwardEnabled = true;
        step.fastForwardEnabled = false;
        expectIdenticalOutcomes(runFaulted(lw, ff),
                                runFaulted(lw, step));
    }
}

TEST(FaultInjection, ScheduledFaultsBitIdenticalUnderFastForward)
{
    // Scheduled (cycle, site, bit) faults are events: fast-forward
    // must stop at each fault cycle instead of jumping the span, so
    // both stepping modes observe the same persistent SRAM upsets.
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(33, h, w, c);
    const auto input = randomInput(h, w, c, 29);
    Lowering lw(true);
    g.lower(lw, input);

    ChipConfig cfg;
    // A spread of cycles, sites and bits — data and check bits, both
    // hemispheres, including one double flip in the same chunk
    // (uncorrectable if that word is ever consumed afterwards).
    cfg.fault.events = {
        {50, 0, 0x10, 0, 3},     {400, 3, 0x10, 1, 130},
        {900, 47, 0x20, 5, 64},  {1500, 12, 0x08, 2, 7},
        {1500, 12, 0x08, 2, 9},  {4000, 80, 0x40, 19, 136},
    };

    ChipConfig ff = cfg, step = cfg;
    ff.fastForwardEnabled = true;
    step.fastForwardEnabled = false;
    const FaultRunOutcome a = runFaulted(lw, ff);
    const FaultRunOutcome b = runFaulted(lw, step);
    expectIdenticalOutcomes(a, b);
    // Every event at a cycle the run reached was applied.
    EXPECT_GT(a.stats.get("faults_injected_scheduled"), 0u);
}

TEST(FaultInjection, ZeroRateConfigBitIdenticalToCleanRun)
{
    // An injector that never fires (zero rates; its one event lies
    // beyond the program's end) must leave the run bit-identical to
    // a chip with no injector at all.
    const int h = 8, w = 8, c = 4;
    Graph g = model::buildTinyNet(55, h, w, c);
    const auto input = randomInput(h, w, c, 31);
    Lowering lw(true);
    const auto lowered = g.lower(lw, input);

    const FaultRunOutcome clean = runFaulted(lw, ChipConfig{});

    ChipConfig armed;
    armed.fault.events = {{~Cycle{0} - 1, 0, 0, 0, 0}};
    const FaultRunOutcome idle = runFaulted(lw, armed);

    EXPECT_EQ(clean.rr.status, idle.rr.status);
    EXPECT_EQ(clean.rr.cycles, idle.rr.cycles);
    EXPECT_EQ(clean.haltCycle, idle.haltCycle);
    // The armed run adds the faults_injected_* keys (all zero); every
    // shared counter must match exactly.
    for (const auto &[name, v] : clean.stats.all())
        EXPECT_EQ(idle.stats.get(name), v) << name;
    EXPECT_EQ(idle.stats.get("faults_injected_scheduled"), 0u);
    EXPECT_EQ(idle.stats.get("faults_injected_mem"), 0u);
    EXPECT_EQ(idle.stats.get("faults_injected_stream"), 0u);
}

} // namespace
} // namespace tsp
