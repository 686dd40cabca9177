/**
 * @file
 * Admission/shedding edge cases and the new serve-layer hooks:
 * zero ("no deadline") and already-expired deadlines, deadlines no
 * feasible batch size can meet, malformed-input rejection before
 * admission, pinned dispatch (fault outcomes replay identically
 * across runs), detached submission via the result callback, and
 * the fleet-facing admission accessors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::PodBackend;
using serve::Result;
using serve::ServerConfig;

constexpr int kChips = 2;
constexpr Cycle kWire = 17;

std::vector<std::int8_t>
podInput(std::int8_t fill = 1)
{
    return std::vector<std::int8_t>(PodBackend::inputBytes(kChips),
                                    fill);
}

std::unique_ptr<InferenceServer>
makeServer(ServerConfig cfg, int max_batch = 1)
{
    const ChipConfig chip = cfg.chip;
    const std::vector<Cycle> table = PodBackend::serviceCyclesTable(
        kChips, kWire, chip, max_batch);
    cfg.batchMax = max_batch;
    return std::make_unique<InferenceServer>(
        [chip, max_batch](int) {
            return std::make_unique<PodBackend>(kChips, kWire, chip,
                                                max_batch);
        },
        table, cfg);
}

TEST(ServeEdge, ZeroDeadlineMeansNoDeadline)
{
    ServerConfig cfg;
    cfg.workers = 1;
    auto server = makeServer(cfg);
    // Deadline 0 (and negative) = unconstrained: always admitted.
    auto f1 = server->submit(podInput(), 1e-6, 0.0);
    auto f2 = server->submit(podInput(), 1e-6, -3.0);
    EXPECT_EQ(f1.get().outcome, Outcome::Served);
    EXPECT_EQ(f2.get().outcome, Outcome::Served);
}

TEST(ServeEdge, ExpiredDeadlineRejectedWithZeroCycles)
{
    ServerConfig cfg;
    cfg.workers = 1;
    auto server = makeServer(cfg);
    // A deadline at (or before) the arrival stamp can never be met:
    // completion >= arrival + service. The rejection must cost zero
    // chip cycles.
    auto f = server->submit(podInput(), 5e-6, 5e-6);
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::RejectedDeadline);
    EXPECT_EQ(r.measuredCycles, 0u);
    server->drain();
    EXPECT_EQ(server->totalChipCycles(), 0u);
}

TEST(ServeEdge, DeadlineInfeasibleForEveryBatchSizeRejected)
{
    // Even with batching available (cycles(b) strictly increasing,
    // so batch 1 is the cheapest), a deadline tighter than the
    // batch-1 service time is provably unmeetable and must be
    // rejected at admission — no batch size could save it.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchWindowSec = 1.0;
    auto server = makeServer(cfg, /*max_batch=*/4);
    const double service = server->serviceSec();
    auto f = server->submit(podInput(), 0.0, 0.5 * service);
    EXPECT_EQ(f.get().outcome, Outcome::RejectedDeadline);
    server->drain();
    EXPECT_EQ(server->totalChipCycles(), 0u);
}

TEST(ServeEdge, MalformedInputRejectedBeforeAdmission)
{
    ServerConfig cfg;
    cfg.workers = 1;
    auto server = makeServer(cfg);
    // Wrong input length: rejected as invalid before any booking —
    // previously this would TSP_ASSERT-fault inside a worker.
    auto f1 = server->submit(std::vector<std::int8_t>(7), 1e-6, 0.0);
    const Result r1 = f1.get();
    EXPECT_EQ(r1.outcome, Outcome::RejectedInvalid);
    EXPECT_EQ(r1.measuredCycles, 0u);
    auto f2 = server->submit(std::vector<std::int8_t>(), 2e-6, 0.0);
    EXPECT_EQ(f2.get().outcome, Outcome::RejectedInvalid);
    // The admission state is untouched: a valid request still books
    // the idle-server completion.
    auto f3 = server->submit(podInput(), 3e-6, 0.0);
    const Result r3 = f3.get();
    EXPECT_EQ(r3.outcome, Outcome::Served);
    EXPECT_NEAR(r3.startSec, 3e-6, 1e-12);
    server->drain();
    const auto snap = server->metricsSnapshot();
    EXPECT_EQ(snap.counters().get("rejected_invalid"), 2u);
}

TEST(ServeEdge, DetachedSubmitResolvesThroughCallback)
{
    ServerConfig cfg;
    cfg.workers = 1;
    std::atomic<std::uint64_t> served{0}, invalid{0};
    cfg.onResult = [&](const Result &r) {
        if (r.outcome == Outcome::Served)
            served.fetch_add(1);
        if (r.outcome == Outcome::RejectedInvalid)
            invalid.fetch_add(1);
    };
    auto server = makeServer(cfg);
    for (int i = 0; i < 10; ++i)
        server->submitModelDetached(0, 0, podInput(), 1e-6 * (i + 1), 0.0);
    server->submitModelDetached(0, 0, std::vector<std::int8_t>(3), 12e-6,
                                0.0);
    server->drain();
    EXPECT_EQ(served.load(), 10u);
    EXPECT_EQ(invalid.load(), 1u);
    EXPECT_EQ(server->metricsSnapshot().counters().get("served"),
              10u);
}

TEST(ServeEdge, FlushOpenBatchSealsWithoutDrain)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchWindowSec = 1.0;
    auto server = makeServer(cfg, /*max_batch=*/4);
    // One member sits in the open batch (window effectively never
    // expires, batchMax never reached)...
    auto f = server->submit(podInput(), 1e-6, 0.0);
    // ...until flushOpenBatch() seals it; the future then resolves
    // without a drain() or a second submission.
    server->flushOpenBatch();
    EXPECT_EQ(f.get().outcome, Outcome::Served);
}

TEST(ServeEdge, AdmissionAccessorsTrackBookings)
{
    ServerConfig cfg;
    cfg.workers = 2;
    auto server = makeServer(cfg);
    const double service = server->serviceSec();
    EXPECT_EQ(server->admission().backlogSec(0.0), 0.0);
    EXPECT_EQ(server->admission().busyUntil(), 0.0);
    EXPECT_EQ(server->admission().bestWorkerFor(0, 1e-6), 0);

    auto f1 = server->submit(podInput(), 1e-6, 0.0);
    // Worker 0 is booked until 1e-6 + service; the next booking
    // would land on worker 1.
    EXPECT_EQ(server->admission().bestWorkerFor(0, 1e-6), 1);
    EXPECT_NEAR(server->admission().busyUntil(), 1e-6 + service,
                1e-12);
    EXPECT_NEAR(server->admission().backlogSec(1e-6), service,
                1e-12);
    // Backlog decays with the probe time, not with execution.
    EXPECT_NEAR(server->admission().backlogSec(1e-6 + 0.5 * service),
                0.5 * service, 1e-12);
    EXPECT_EQ(server->admission().backlogSec(1.0), 0.0);
    f1.get();
}

TEST(ServeEdge, PinnedDispatchReplaysFaultOutcomes)
{
    // Under pinned dispatch each batch executes on the worker its
    // booking assumed, so with fault injection live the sequence of
    // per-request outcomes (including which requests absorb machine
    // checks and how many retries they take) is a pure function of
    // the submission stream — identical across runs. This is the
    // property the fleet soak's byte-identical time series rests on.
    auto runOnce = [] {
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.maxRetries = 2;
        cfg.chip.fault.memReadRate = 1e-2;
        cfg.chip.fault.memWriteRate = 1e-2;
        cfg.chip.fault.streamRate = 1e-2;
        cfg.chip.fault.c2cRate = 1e-2;
        cfg.chip.fault.doubleBitFraction = 0.3;
        auto server = makeServer(cfg);
        const double service = server->serviceSec();
        std::vector<std::future<Result>> futures;
        double now = 0.0;
        for (int i = 0; i < 200; ++i) {
            now += service * 0.4; // Keeps both workers busy.
            futures.push_back(server->submit(
                podInput(static_cast<std::int8_t>(i % 5)), now,
                now + 8.0 * service,
                InferenceServer::OnFull::Block));
        }
        std::vector<std::tuple<std::uint8_t, std::uint32_t,
                               std::uint64_t>>
            outcomes;
        for (auto &f : futures) {
            const Result r = f.get();
            outcomes.emplace_back(
                static_cast<std::uint8_t>(r.outcome), r.retries,
                r.machineChecks);
        }
        return outcomes;
    };
    const auto a = runOnce();
    const auto b = runOnce();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "request " << i;
    // The stream must actually exercise the reliability path for
    // the replay claim to mean anything.
    std::uint64_t checks = 0;
    for (const auto &[o, retries, mc] : a)
        checks += mc;
    EXPECT_GT(checks, 0u);
}

} // namespace
} // namespace tsp
