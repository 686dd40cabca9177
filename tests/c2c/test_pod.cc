/**
 * @file
 * Multi-chip pod: ring wiring, lock-step determinism, and the
 * statically scheduled ring all-reduce against a host reference —
 * scale-out with zero handshakes (paper II item 6).
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "mem/ecc.hh"

namespace tsp {
namespace {

class PodAllReduce : public ::testing::TestWithParam<int>
{
};

TEST_P(PodAllReduce, MatchesHostReduction)
{
    const int n = GetParam();
    Pod pod(n, /*wire_latency=*/17);

    // Seed each chip's local vector.
    Rng rng(static_cast<std::uint64_t>(n) * 7919);
    std::vector<std::array<std::int8_t, kLanes>> locals(
        static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l) {
            const auto x =
                static_cast<std::int8_t>(rng.intIn(-90, 90));
            locals[static_cast<std::size_t>(c)]
                  [static_cast<std::size_t>(l)] = x;
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(x);
        }
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }

    std::vector<ScheduledProgram> programs;
    const AllReducePlan plan = buildRingAllReduce(pod, programs);
    const Cycle cycles = runAllReduce(pod, programs);
    EXPECT_EQ(cycles, plan.finish);

    // Host reference with the same saturating chain order.
    std::array<std::int8_t, kLanes> want =
        locals[0];
    for (int c = 1; c < n; ++c) {
        for (int l = 0; l < kLanes; ++l) {
            const int s =
                int(want[static_cast<std::size_t>(l)]) +
                int(locals[static_cast<std::size_t>(c)]
                          [static_cast<std::size_t>(l)]);
            want[static_cast<std::size_t>(l)] =
                static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }

    for (int c = 0; c < n; ++c) {
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

INSTANTIATE_TEST_SUITE_P(RingSizes, PodAllReduce,
                         ::testing::Values(2, 3, 4, 6),
                         [](const auto &info) {
                             return "chips" +
                                    std::to_string(info.param);
                         });

TEST(PodDeath, RunAllLimitIsAbsolute)
{
    // max_cycles bounds the pod *clock*, exactly like
    // Chip::runBounded — not the number of additional loop
    // iterations. A resumed pod whose clock already exceeds the
    // budget must fatal instead of silently granting max_cycles more
    // cycles (the old iteration-counting behaviour would have let
    // this second collective finish).
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Pod pod(2, 9);
    for (int c = 0; c < 2; ++c) {
        Vec320 v;
        v.bytes.fill(static_cast<std::uint8_t>(c + 1));
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }
    std::vector<ScheduledProgram> programs;
    buildRingAllReduce(pod, programs);
    const Cycle first = runAllReduce(pod, programs);
    ASSERT_GT(first, 100u);
    // Reload and rerun with a budget only slightly past the current
    // clock: the second collective needs ~first more cycles, far
    // more than the 5 remaining in the absolute budget — yet under
    // iteration counting, now() + 5 iterations would cover it.
    for (int c = 0; c < 2; ++c) {
        pod.chip(c).loadProgram(
            programs[static_cast<std::size_t>(c)].toAsm());
    }
    ASSERT_DEATH(pod.runAll(pod.now() + 5), "cycle limit");
}

TEST(Pod, RunAllHonorsGenerousAbsoluteLimit)
{
    // The flip side of the absolute semantics: a resumed pod given a
    // budget covering the second collective completes normally.
    Pod pod(2, 9);
    for (int c = 0; c < 2; ++c) {
        Vec320 v;
        v.bytes.fill(static_cast<std::uint8_t>(c + 1));
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }
    std::vector<ScheduledProgram> programs;
    buildRingAllReduce(pod, programs);
    const Cycle first = runAllReduce(pod, programs);
    for (int c = 0; c < 2; ++c) {
        pod.chip(c).loadProgram(
            programs[static_cast<std::size_t>(c)].toAsm());
    }
    const Cycle second = pod.runAll(2 * first + 64);
    EXPECT_EQ(second, 2 * first);
}

TEST(Pod, LockStepIsDeterministic)
{
    Cycle first = 0;
    for (int run = 0; run < 2; ++run) {
        Pod pod(3, 9);
        for (int c = 0; c < 3; ++c) {
            Vec320 v;
            v.bytes.fill(static_cast<std::uint8_t>(c + 1));
            pod.chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorWrite(AllReducePlan::kLocalAddr, v);
        }
        std::vector<ScheduledProgram> programs;
        buildRingAllReduce(pod, programs);
        const Cycle cycles = runAllReduce(pod, programs);
        if (run == 0)
            first = cycles;
        EXPECT_EQ(cycles, first);
    }
}

} // namespace
} // namespace tsp
