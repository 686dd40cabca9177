/**
 * @file
 * E20: deterministic batched serving — amortized weight install with
 * exact cycles(B).
 *
 * The batch-B compiled program installs weights once and repeats the
 * per-sample compute schedule B times; the engine's scheduling state
 * persists across repeats, so sample s+1 overlaps sample s's tail
 * exactly like adjacent layers of one network. The result is a cycle
 * count cycles(B) that is (a) known exactly at compile time — so the
 * admission controller's batch bookings stay provable — and (b)
 * strictly sublinear in B versus B batch-1 replays. This bench pins
 * both claims plus the correctness one: every per-sample output of a
 * batched run is byte-identical to a solo batch-1 serve. Emits
 * BENCH_batch_serving.json; exits nonzero on any divergence.
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "model/resnet.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;
using serve::SessionBackend;

constexpr int kH = 8, kW = 8, kC = 4;
constexpr int kMaxBatch = 8;

std::vector<std::int8_t>
randomInput(Rng &rng)
{
    std::vector<std::int8_t> data(
        static_cast<std::size_t>(kH) * kW * kC);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return data;
}

struct ServePoint
{
    int batchMax = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t batches = 0;
    double p99Us = 0.0;
    double throughputRps = 0.0;
    std::uint64_t mismatches = 0;
};

/** One overload point: same stream, batching on or off. */
ServePoint
runServePoint(serve::ModelRegistry &reg, int batch_max, int n,
              std::uint64_t seed)
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 256;
    cfg.batchMax = batch_max;
    // Generous join window: under overload the queue depth, not the
    // window, bounds batch formation.
    cfg.batchWindowSec = 64.0 * reg.cycles(0, 1) * 1e-9;
    InferenceServer server(reg, cfg);

    const double service = server.serviceSec();
    const double rho = 2.0; // Overloaded: batching must help.
    const double mean_gap =
        service / (rho * static_cast<double>(cfg.workers));

    Rng rng(seed);
    std::vector<std::future<Result>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    double now = 0.0;
    for (int i = 0; i < n; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * mean_gap;
        const double deadline = now + 16.0 * service;
        futures.push_back(
            server.submit(randomInput(rng), now, deadline,
                          InferenceServer::OnFull::Block));
    }
    server.drain();

    ServePoint p;
    p.batchMax = server.batchMax();
    for (auto &f : futures) {
        const Result r = f.get();
        if (r.outcome == Outcome::Served)
            ++p.served;
        else
            ++p.rejected;
    }
    const auto snap = server.metricsSnapshot();
    p.batches = snap.counters().get("batches");
    p.p99Us =
        snap.totalUs().count() ? snap.totalUs().quantile(0.99) : 0.0;
    p.throughputRps = snap.throughputRps();
    p.mismatches = snap.predictionMismatches();
    return p;
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    using namespace tsp;
    const int n = argc > 1 ? std::atoi(argv[1]) : 200;

    bench::banner(
        "E20: batched serving with amortized weight install",
        "batch-B programs install weights once; cycles(B) is exact "
        "and strictly sublinear, outputs byte-identical to solo");

    Graph g = model::buildTinyNet(3, kH, kW, kC);
    Rng warm_rng(7);
    serve::ModelRegistry reg(
        {{"tinynet", g, randomInput(warm_rng), kMaxBatch}});

    const auto wall0 = std::chrono::steady_clock::now();

    // ------------------------------------------------------------
    // 1. The compile-time cycles(B) table.
    // ------------------------------------------------------------
    std::vector<Cycle> cycles;
    for (int b = 1; b <= kMaxBatch; ++b)
        cycles.push_back(reg.cycles(0, b));
    const std::uint64_t weight_placements =
        reg.acquire(0, 1)->lw->weightPlacements();
    std::printf("compiled cycles(B), tiny conv net (weights placed "
                "%llu times at every B):\n",
                static_cast<unsigned long long>(weight_placements));
    std::printf("  %5s %10s %12s %14s\n", "B", "cycles", "per-image",
                "vs B x batch-1");
    bool per_image_decreasing = true;
    bool weights_amortized = true;
    for (int b = 1; b <= kMaxBatch; ++b) {
        const double per =
            static_cast<double>(
                cycles[static_cast<std::size_t>(b - 1)]) /
            b;
        const double vs_replay =
            static_cast<double>(
                cycles[static_cast<std::size_t>(b - 1)]) /
            (static_cast<double>(b) * cycles[0]);
        std::printf("  %5d %10llu %12.1f %13.1f%%\n", b,
                    static_cast<unsigned long long>(
                        cycles[static_cast<std::size_t>(b - 1)]),
                    per, 100.0 * vs_replay);
        if (b > 1) {
            per_image_decreasing =
                per_image_decreasing &&
                per < static_cast<double>(cycles[static_cast<
                              std::size_t>(b - 2)]) /
                              (b - 1);
        }
        weights_amortized =
            weights_amortized &&
            reg.acquire(0, b)->lw->weightPlacements() ==
                weight_placements;
    }

    // ------------------------------------------------------------
    // 2. Bit-identity: batch-B outputs vs B solo serves.
    // ------------------------------------------------------------
    std::uint64_t compared = 0, divergent = 0;
    {
        ChipConfig chip;
        SessionBackend batched(reg.acquire(0, 1), kMaxBatch, chip);
        SessionBackend solo(reg.acquire(0, 1), 1, chip);
        Rng rng(11);
        for (const int b : {2, 4, 8}) {
            std::vector<std::vector<std::int8_t>> inputs;
            std::vector<const std::vector<std::int8_t> *> ptrs;
            for (int s = 0; s < b; ++s)
                inputs.push_back(randomInput(rng));
            for (const auto &in : inputs)
                ptrs.push_back(&in);
            batched.bindProgram(reg.acquire(0, b));
            const RunResult rr = batched.serveBatch(ptrs, 100'000'000);
            const bool cycles_exact =
                rr.completed &&
                rr.cycles == cycles[static_cast<std::size_t>(b - 1)];
            for (int s = 0; s < b; ++s) {
                solo.resetBatch(1);
                solo.writeSample(0, inputs[static_cast<std::size_t>(s)]);
                const RunResult sr = solo.runBounded(100'000'000);
                ++compared;
                if (!cycles_exact || !sr.completed ||
                    batched.readSample(s).data !=
                        solo.readSample(0).data) {
                    ++divergent;
                }
            }
        }
    }
    std::printf("\nbit-identity: %llu batched samples compared "
                "against solo serves, %llu divergent\n",
                static_cast<unsigned long long>(compared),
                static_cast<unsigned long long>(divergent));

    // ------------------------------------------------------------
    // 3. End-to-end: overloaded serving, batching off vs on.
    // ------------------------------------------------------------
    std::printf("\nopen-loop overload (rho = 2.0, 2 workers, "
                "deadline = arrival + 16 services, %d requests):\n",
                n);
    std::printf("  %9s %6s %8s %8s %9s %10s\n", "batch_max", "served",
                "rejected", "batches", "p99_us", "thpt_rps");
    std::vector<ServePoint> points;
    for (const int bm : {1, 2, 4, 8}) {
        points.push_back(runServePoint(reg, bm, n,
                                       3000 +
                                           static_cast<std::uint64_t>(
                                               bm)));
        const ServePoint &p = points.back();
        std::printf("  %9d %6llu %8llu %8llu %9.2f %10.0f%s\n",
                    p.batchMax,
                    static_cast<unsigned long long>(p.served),
                    static_cast<unsigned long long>(p.rejected),
                    static_cast<unsigned long long>(p.batches),
                    p.p99Us, p.throughputRps,
                    p.mismatches == 0 ? "" : "  MISMATCH");
    }

    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    // JSON artifact for the perf trajectory.
    JsonWriter j;
    j.beginObject();
    j.kv("bench", "batch_serving");
    j.kv("max_batch", kMaxBatch);
    j.kv("weight_placements", weight_placements);
    j.key("cycles_by_batch").beginArray();
    for (const Cycle c : cycles)
        j.value(static_cast<std::uint64_t>(c));
    j.endArray();
    j.kv("samples_compared", compared);
    j.kv("samples_divergent", divergent);
    j.key("serving_points").beginArray();
    for (const auto &p : points) {
        j.beginObject()
            .kv("batch_max", p.batchMax)
            .kv("served", p.served)
            .kv("rejected", p.rejected)
            .kv("batches", p.batches)
            .kv("p99_us", p.p99Us)
            .kv("throughput_rps", p.throughputRps)
            .kv("prediction_mismatches", p.mismatches)
            .endObject();
    }
    j.endArray();
    j.kv("wall_seconds", wall);
    j.endObject();
    const bool wrote =
        writeJsonFile("BENCH_batch_serving.json", j.str());
    std::printf("\n%s BENCH_batch_serving.json (wall %.1f s)\n",
                wrote ? "wrote" : "FAILED to write", wall);

    bool ok = wrote && per_image_decreasing && weights_amortized &&
              divergent == 0;
    std::uint64_t total_mismatches = 0;
    for (const auto &p : points)
        total_mismatches += p.mismatches;
    ok = ok && total_mismatches == 0;
    // Under the same overload, larger batches must serve at least as
    // many requests as batch-1 (the amortized cycles buy capacity).
    ok = ok && points.back().served > points.front().served;

    std::printf("shape check: per-image cycles strictly decreasing "
                "in B, weights placed once, batched outputs "
                "byte-identical, zero mismatches, batching serves "
                "more under overload: %s\n",
                ok ? "yes" : "NO");
    bench::footer();
    return ok ? 0 : 1;
}
