/**
 * @file
 * Differential tests for pod-scale fast-forward: every collective
 * runs once under lock-step stepAll() (the reference semantics) and
 * once under Pod::runAllBounded()'s conservative-lookahead scheduler,
 * and the two executions must be indistinguishable — identical final
 * clocks, identical per-chip stats() counters (including idle and
 * power-activity counters and injected-fault counts), energy equal to
 * floating-point association, and bit-identical memory results —
 * across ring sizes, wire latencies, and fault injection.
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "mem/ecc.hh"

namespace tsp {
namespace {

/** Seeds every chip's local vector identically in both pods. */
void
seedLocals(Pod &a, Pod &b, std::uint64_t seed)
{
    Rng rng(seed);
    for (int c = 0; c < a.size(); ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l) {
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(rng.intIn(-90, 90));
        }
        for (Pod *p : {&a, &b}) {
            p->chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorWrite(AllReducePlan::kLocalAddr, v);
        }
    }
}

void
loadAllReduce(Pod &pod)
{
    std::vector<ScheduledProgram> programs;
    buildRingAllReduce(pod, programs);
    for (int c = 0; c < pod.size(); ++c) {
        pod.chip(c).loadProgram(
            programs[static_cast<std::size_t>(c)].toAsm());
    }
}

/**
 * Runs the ring all-reduce on two identically configured pods — one
 * lock-step, one bounded-lookahead — and asserts the executions are
 * indistinguishable.
 */
void
expectIdenticalPodExecutions(int chips, Cycle wire, ChipConfig cfg)
{
    Pod lock(chips, wire, cfg);
    Pod fast(chips, wire, cfg);
    seedLocals(lock, fast, static_cast<std::uint64_t>(chips) * 131);
    loadAllReduce(lock);
    loadAllReduce(fast);

    while (!lock.allDone())
        lock.stepAll();
    ASSERT_TRUE(fast.runAllBounded());

    EXPECT_EQ(fast.now(), lock.now());
    for (int c = 0; c < chips; ++c) {
        const Chip &lc = lock.chip(c);
        const Chip &fc = fast.chip(c);
        EXPECT_EQ(fc.now(), lc.now()) << "chip " << c;
        EXPECT_EQ(lc.stats().all(), fc.stats().all())
            << "chip " << c;
        EXPECT_EQ(lc.power().cycles(), fc.power().cycles());
        EXPECT_EQ(lc.power().totalEnergyJ(), fc.power().totalEnergyJ())
            << "chip " << c;
        const Vec320 a =
            lc.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        const Vec320 b =
            fc.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        EXPECT_EQ(a.bytes, b.bytes) << "chip " << c;
    }
}

class PodFastForward
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PodFastForward, BitIdenticalToLockStep)
{
    const auto [chips, wire] = GetParam();
    expectIdenticalPodExecutions(chips, static_cast<Cycle>(wire),
                                 ChipConfig{});
}

TEST_P(PodFastForward, BitIdenticalUnderCorrectableFaults)
{
    // Single-bit-only injection on SRAM, stream hops and C2C link
    // flight. Per-link RNG streams make link strikes a pure function
    // of each link's arrival order, so upset histories cannot depend
    // on how the two schedulers interleave chips.
    const auto [chips, wire] = GetParam();
    ChipConfig cfg;
    cfg.fault.seed = 0x90d5eedull;
    cfg.fault.memReadRate = 0.01;
    cfg.fault.memWriteRate = 0.01;
    cfg.fault.streamRate = 0.002;
    cfg.fault.c2cRate = 0.9; // Nearly every hop takes a strike.
    cfg.fault.doubleBitFraction = 0.0;
    expectIdenticalPodExecutions(chips, static_cast<Cycle>(wire),
                                 cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Rings, PodFastForward,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(5, 17)),
    [](const auto &info) {
        return "chips" + std::to_string(std::get<0>(info.param)) +
               "_wire" + std::to_string(std::get<1>(info.param));
    });

TEST(PodFastForward, LinkFaultsAreInjectedAndCorrected)
{
    // The PR-3 coverage gap: upsets must strike vectors in C2C link
    // flight and surface at the consumer-side SECDED check.
    ChipConfig cfg;
    cfg.fault.seed = 0xabcull;
    cfg.fault.c2cRate = 0.9;
    cfg.fault.doubleBitFraction = 0.0;
    Pod pod(4, 9, cfg);
    Pod other(4, 9, cfg); // seedLocals wants a pair.
    seedLocals(pod, other, 77);
    loadAllReduce(pod);
    ASSERT_TRUE(pod.runAllBounded());

    std::uint64_t injected = 0, corrected = 0;
    for (int c = 0; c < pod.size(); ++c) {
        const StatGroup s = pod.chip(c).stats();
        injected += s.get("faults_injected_c2c");
        corrected += s.get("ecc_corrected");
    }
    EXPECT_GT(injected, 0u);
    // Every link strike is single-bit here and every received vector
    // is consumed downstream, so corrections must keep pace.
    EXPECT_GE(corrected, injected);
}

TEST(PodFastForward, UncorrectableLinkFaultMachineChecksBothModes)
{
    // Double-bit strikes in link flight must condemn the consumer
    // chip — identically under both schedulers: same chip, same
    // first-error cycle, unit and detail.
    ChipConfig cfg;
    cfg.fault.seed = 0x2bull;
    cfg.fault.c2cRate = 0.9;
    cfg.fault.doubleBitFraction = 1.0;
    Pod lock(3, 17, cfg);
    Pod fast(3, 17, cfg);
    seedLocals(lock, fast, 5);
    loadAllReduce(lock);
    loadAllReduce(fast);

    ASSERT_FALSE(fast.runAllBounded());
    ASSERT_TRUE(fast.machineCheck());
    const int idx = fast.machineCheckChip();
    ASSERT_GE(idx, 0);

    // Lock-step the reference until the same member condemns itself
    // (the latch does not halt the clock, so run to pod completion
    // would also work; stopping at the raise keeps this fast).
    while (!lock.chip(idx).machineCheck() && !lock.allDone())
        lock.stepAll();
    ASSERT_TRUE(lock.chip(idx).machineCheck());

    const MachineCheckInfo &a = lock.chip(idx).machineCheckInfo();
    const MachineCheckInfo &b = fast.chip(idx).machineCheckInfo();
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.detail, b.detail);
}

TEST(PodFastForward, BoundedRunResumesAfterTimeout)
{
    // Hitting the absolute limit mid-collective is recoverable: the
    // conservative scheduler left no arrival undelivered, so resuming
    // with a larger limit completes with the correct reduction.
    Pod pod(3, 17);
    Rng rng(99);
    std::vector<std::array<std::int8_t, kLanes>> locals(3);
    for (int c = 0; c < 3; ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l) {
            const auto x =
                static_cast<std::int8_t>(rng.intIn(-40, 40));
            locals[static_cast<std::size_t>(c)]
                  [static_cast<std::size_t>(l)] = x;
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(x);
        }
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }
    loadAllReduce(pod);

    ASSERT_FALSE(pod.runAllBounded(50));
    EXPECT_FALSE(pod.allDone());
    EXPECT_FALSE(pod.machineCheck());
    ASSERT_TRUE(pod.runAllBounded());
    EXPECT_TRUE(pod.allDone());

    std::array<std::int8_t, kLanes> want = locals[0];
    for (int c = 1; c < 3; ++c) {
        for (int l = 0; l < kLanes; ++l) {
            const int s = int(want[static_cast<std::size_t>(l)]) +
                          int(locals[static_cast<std::size_t>(c)]
                                    [static_cast<std::size_t>(l)]);
            want[static_cast<std::size_t>(l)] =
                static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }
    for (int c = 0; c < 3; ++c) {
        const Vec320 got =
            pod.chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        for (int l = 0; l < kLanes; ++l) {
            ASSERT_EQ(static_cast<std::int8_t>(
                          got.bytes[static_cast<std::size_t>(l)]),
                      want[static_cast<std::size_t>(l)])
                << "chip " << c << " lane " << l;
        }
    }
}

} // namespace
} // namespace tsp
