/**
 * @file
 * Serving-layer trace record/replay tests: the pool-shared TraceCache
 * lets the first worker to run a compiled program record its micro-op
 * trace and every later serve — on any worker — replay it, with
 * bit-identical outputs, exact (booking-matching) cycle counts, and
 * the cache/replay counters surfaced through the server metrics.
 * Fault-injected pools must never record or replay, and a zero byte
 * budget must disable the tier entirely.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::ModelRegistry;
using serve::Outcome;
using serve::PodBackend;
using serve::Result;
using serve::ServerConfig;

constexpr int kH = 8, kW = 8, kC = 4;

std::vector<std::int8_t>
randomInput(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(
        static_cast<std::size_t>(kH) * kW * kC);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return data;
}

/** The tiny net as a one-family registry. */
struct Compiled
{
    Graph g;
    ModelRegistry reg;

    explicit Compiled(int max_batch = 1)
        : g(model::buildTinyNet(3, kH, kW, kC)),
          reg({{"tinynet", g, randomInput(7), max_batch}})
    {
    }

    ref::QTensor
    reference(const std::vector<std::int8_t> &input) const
    {
        ref::QTensor qin(kH, kW, kC);
        qin.data = input;
        return g.runReference(qin).at(g.outputNode());
    }
};

/** @return the report of a 2-worker, batched, replay-on server over
 *  a fresh registry, fed one seeded Poisson stream. */
std::string
batchedReplayReport(std::uint64_t seed)
{
    Compiled m(4);
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.batchMax = 4;
    cfg.batchWindowSec = 2e-6;
    InferenceServer server(m.reg, cfg);
    Rng rng(seed);
    double now = 0.0;
    for (int i = 0; i < 40; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * 0.3 *
               server.serviceSec();
        server.submitModelDetached(0, 0, randomInput(rng.next()), now,
                                   now + 6.0 * server.serviceSec(),
                                   InferenceServer::OnFull::Block);
    }
    server.drain();
    EXPECT_GT(server.replayCount(), 0u);
    return server.metricsJson();
}

TEST(ServeReplay, PoolSharesTracesAndMatchesReference)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 2; // traceCacheBytes defaults on.
    InferenceServer server(m.reg, cfg);

    constexpr int kRequests = 8;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            randomInput(100 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        // Replayed runs keep the determinism contract exactly.
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        EXPECT_EQ(r.output.data, want.data) << "request " << i;
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);

    // Every run either recorded or replayed. At most one record per
    // worker (a worker that raced past the other's insert records its
    // own copy once, then replays its session-held trace).
    EXPECT_GE(server.recordCount(), 1u);
    EXPECT_LE(server.recordCount(),
              static_cast<std::uint64_t>(cfg.workers));
    EXPECT_EQ(server.recordCount() + server.replayCount(),
              static_cast<std::uint64_t>(kRequests));
    // One compiled program -> one resident trace, whoever won.
    EXPECT_EQ(server.traceCacheSize(), 1u);
    EXPECT_GT(server.traceCacheBytes(), 0u);

    const std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"trace_cache_budget_bytes\":"),
              std::string::npos);
    // Which worker records which trace depends on host timing; the
    // report must not: same-seed batched runs are byte-identical.
    EXPECT_EQ(batchedReplayReport(1), batchedReplayReport(1));
}

TEST(ServeReplay, ZeroBudgetDisablesTheTier)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.traceCacheBytes = 0;
    InferenceServer server(m.reg, cfg);

    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < 3; ++i) {
        inputs.push_back(
            randomInput(200 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < 3; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served);
        EXPECT_EQ(r.output.data,
                  m.reference(inputs[static_cast<std::size_t>(i)])
                      .data);
    }
    EXPECT_EQ(server.recordCount(), 0u);
    EXPECT_EQ(server.replayCount(), 0u);
    EXPECT_EQ(server.traceCacheSize(), 0u);
    EXPECT_EQ(server.traceCacheBytes(), 0u);
}

TEST(ServeReplay, FaultInjectionGatesReplayOff)
{
    // Correctable-only stream injection: every request still serves,
    // but the sessions must refuse to record or replay — a trace is
    // only valid for a fault-free timeline.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.chip.fault.seed = 0x5151ull;
    cfg.chip.fault.streamRate = 5e-4;
    cfg.chip.fault.doubleBitFraction = 0.0;
    InferenceServer server(m.reg, cfg);

    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < 3; ++i) {
        inputs.push_back(
            randomInput(300 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < 3; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served);
        EXPECT_EQ(r.output.data,
                  m.reference(inputs[static_cast<std::size_t>(i)])
                      .data);
    }
    EXPECT_EQ(server.recordCount(), 0u);
    EXPECT_EQ(server.replayCount(), 0u);
    EXPECT_EQ(server.traceCacheSize(), 0u);
}

TEST(ServeReplay, BatchServerKeepsOneTracePerBatchProgram)
{
    // One worker for deterministic run counts. Three batch-2 jobs:
    // the first records, the next two replay. Then two batch-1 jobs:
    // the rebind invalidates the session's held trace, so the batch-1
    // program records once and replays once. Two programs -> two
    // resident traces.
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    ModelRegistry reg({{"tinynet", g, randomInput(7), 2}});
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = 2;
    InferenceServer server(reg, cfg);
    ASSERT_EQ(server.batchMax(), 2);

    auto reference = [&g](const std::vector<std::int8_t> &input) {
        ref::QTensor qin(kH, kW, kC);
        qin.data = input;
        return g.runReference(qin).at(g.outputNode());
    };

    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    // Same-stamp pairs join one batch (window 0 batches equal stamps).
    for (int i = 0; i < 6; ++i) {
        inputs.push_back(
            randomInput(400 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i / 2) * 1e-6));
    }
    server.drain();
    EXPECT_EQ(server.recordCount(), 1u);
    EXPECT_EQ(server.replayCount(), 2u);
    EXPECT_EQ(server.traceCacheSize(), 1u);

    // Distinct-stamp singles run the batch-1 program.
    for (int i = 6; i < 8; ++i) {
        inputs.push_back(
            randomInput(400 + static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), 1e-3 + static_cast<double>(i) * 1e-6));
    }
    server.drain();
    EXPECT_EQ(server.recordCount(), 2u);
    EXPECT_EQ(server.replayCount(), 3u);
    EXPECT_EQ(server.traceCacheSize(), 2u);
    EXPECT_GT(server.traceCacheBytes(), 0u);

    for (int i = 0; i < 8; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        EXPECT_EQ(r.output.data,
                  reference(inputs[static_cast<std::size_t>(i)]).data)
            << "request " << i;
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

std::vector<std::int8_t>
randomPodInput(int chips, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(PodBackend::inputBytes(chips));
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-90, 90));
    return data;
}

/** Host saturating reduction with the schedule's chain order. */
std::vector<std::int8_t>
reduceReference(int chips, const std::vector<std::int8_t> &input)
{
    std::vector<std::int8_t> want(input.begin(),
                                  input.begin() + kLanes);
    for (int c = 1; c < chips; ++c) {
        for (int l = 0; l < kLanes; ++l) {
            const int s =
                int(want[static_cast<std::size_t>(l)]) +
                int(input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(l)]);
            want[static_cast<std::size_t>(l)] =
                static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }
    return want;
}

TEST(ServeReplay, PodServerReplaysTheCollective)
{
    constexpr int kChips = 3;
    constexpr Cycle kWire = 17;
    ServerConfig cfg;
    cfg.workers = 1;
    const ChipConfig chip_cfg = cfg.chip;
    InferenceServer server(
        [chip_cfg, kChips, kWire](int)
            -> std::unique_ptr<serve::Backend> {
            return std::make_unique<PodBackend>(kChips, kWire,
                                                chip_cfg);
        },
        PodBackend::serviceCyclesTable(kChips, kWire, cfg.chip, 1), cfg);

    constexpr int kRequests = 4;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            randomPodInput(kChips, static_cast<std::uint64_t>(i)));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        EXPECT_EQ(r.output.data,
                  reduceReference(
                      kChips, inputs[static_cast<std::size_t>(i)]))
            << "request " << i;
    }
    EXPECT_EQ(server.recordCount(), 1u);
    EXPECT_EQ(server.replayCount(),
              static_cast<std::uint64_t>(kRequests) - 1u);
    EXPECT_EQ(server.traceCacheSize(), 1u);
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

} // namespace
} // namespace tsp
