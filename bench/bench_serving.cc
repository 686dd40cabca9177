/**
 * @file
 * E19: deterministic-deadline serving (src/serve) under open-loop
 * Poisson load.
 *
 * The paper's determinism claim (Eq. 4, IV.F, V.c) means a compiled
 * model's latency is known *before* it runs. This bench shows what
 * that buys a serving tier: the admission controller books exact
 * completion times, so (a) every served request's measured service
 * cycles equal the admission-time prediction — zero variance, the
 * serving-layer restatement of bench_determinism — and (b) requests
 * whose deadline provably cannot be met are rejected without
 * consuming a single chip cycle. Sweeps offered load x worker count
 * under a fixed deadline to expose the admission-control knee at
 * rho = 1, and emits BENCH_serving.json.
 *
 * All latencies are virtual chip time at 1 GHz (the simulator is
 * ~10^4x slower than the modeled silicon; wall time is reported
 * separately as simulator throughput).
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
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

struct PointResult
{
    int workers = 0;
    double rho = 0.0;
    double deadlineSlackUs = 0.0;
    double offeredRps = 0.0;
    std::uint64_t served = 0;
    std::uint64_t rejectedDeadline = 0;
    std::uint64_t rejectedQueue = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double throughputRps = 0.0;
    bool cyclesAccounted = false; ///< Pool cycles == served * service.
};

/**
 * Runs one sweep point: @p n requests with exponential interarrival
 * times at offered load @p rho (fraction of pool capacity), each
 * with deadline = arrival + @p slack_services * service time
 * (slack <= 0: no deadline).
 */
PointResult
runPoint(serve::ModelRegistry &reg, int workers, double rho,
         double slack_services, int n, std::uint64_t seed)
{
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 256;
    InferenceServer server(reg, cfg);

    const double service = server.serviceSec();
    const double mean_gap =
        service / (rho * static_cast<double>(workers));
    const double slack = slack_services * service;

    const std::size_t in_bytes = reg.expectedInputBytes(0);

    Rng rng(seed);
    std::vector<std::future<Result>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    double now = 0.0;
    for (int i = 0; i < n; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * mean_gap;
        std::vector<std::int8_t> data(in_bytes);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        const double deadline = slack > 0.0 ? now + slack : 0.0;
        futures.push_back(
            server.submit(std::move(data), now, deadline,
                          InferenceServer::OnFull::Block));
    }
    server.drain();

    PointResult p;
    p.workers = workers;
    p.rho = rho;
    p.deadlineSlackUs = slack * 1e6;
    p.offeredRps = 1.0 / mean_gap;
    for (auto &f : futures) {
        const Result r = f.get();
        switch (r.outcome) {
          case Outcome::Served: ++p.served; break;
          case Outcome::RejectedDeadline: ++p.rejectedDeadline; break;
          case Outcome::RejectedQueueFull: ++p.rejectedQueue; break;
          default: ++p.failed; break;
        }
    }
    const auto snap = server.metricsSnapshot();
    p.mismatches = snap.predictionMismatches();
    p.p50Us = snap.totalUs().count() ? snap.totalUs().quantile(0.5) : 0;
    p.p99Us = snap.totalUs().count() ? snap.totalUs().quantile(0.99) : 0;
    p.throughputRps = snap.throughputRps();
    // Rejections must cost zero chip cycles: the pool's total cycle
    // count is exactly served (+failed) runs x the known service.
    p.cyclesAccounted =
        server.totalChipCycles() ==
        (p.served + p.failed) * server.serviceCycles();
    return p;
}

void
printPoint(const PointResult &p)
{
    std::printf("  %2d %5.2f %9.1f %9.0f %6llu %7llu %6llu %5llu "
                "%8.2f %8.2f %9.0f  %s%s\n",
                p.workers, p.rho, p.deadlineSlackUs, p.offeredRps,
                static_cast<unsigned long long>(p.served),
                static_cast<unsigned long long>(p.rejectedDeadline),
                static_cast<unsigned long long>(p.rejectedQueue),
                static_cast<unsigned long long>(p.failed), p.p50Us,
                p.p99Us, p.throughputRps,
                p.cyclesAccounted ? "cycles-ok" : "CYCLE-LEAK",
                p.mismatches == 0 ? "" : " MISMATCH");
}

} // namespace
} // namespace tsp

int
main(int argc, char **argv)
{
    using namespace tsp;
    const int n = argc > 1 ? std::atoi(argv[1]) : 150;

    bench::banner(
        "E19: deterministic-deadline serving (Eq. 4, IV.F, V.c)",
        "known-before-run latency enables exact admission control: "
        "predicted == measured, infeasible requests cost 0 cycles");

    // The small conv net keeps per-inference simulation cheap; the
    // serving layer is model-agnostic.
    Graph g = model::buildTinyNet(3, 8, 8, 4);
    Rng rng(7);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    serve::ModelRegistry reg({{"tinynet", g, input}});
    const Cycle service_cycles = reg.cycles(0, 1);

    std::printf("model: tiny conv net, %llu cycles = %.3f us per "
                "inference (exact, compiler-known)\n\n",
                static_cast<unsigned long long>(service_cycles),
                static_cast<double>(service_cycles) * 1e-3);

    const auto wall0 = std::chrono::steady_clock::now();
    std::vector<PointResult> points;

    std::printf("load sweep (4 workers, deadline = arrival + 4 "
                "services, %d requests/point):\n",
                n);
    std::printf("   W   rho  slack_us   off_rps served rej_ddl "
                "rej_qf  fail   p50_us   p99_us  thpt_rps\n");
    for (const double rho : {0.6, 0.9, 1.0, 1.2, 1.6, 2.0}) {
        points.push_back(
            runPoint(reg, 4, rho, 4.0, n, 1000 + points.size()));
        printPoint(points.back());
    }

    std::printf("\nworker sweep (rho = 0.95 of pool capacity, same "
                "deadline):\n");
    std::printf("   W   rho  slack_us   off_rps served rej_ddl "
                "rej_qf  fail   p50_us   p99_us  thpt_rps\n");
    for (const int w : {1, 2, 4, 8}) {
        points.push_back(
            runPoint(reg, w, 0.95, 4.0, n, 2000 + points.size()));
        printPoint(points.back());
    }

    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    // JSON artifact for the perf trajectory.
    JsonWriter j;
    j.beginObject();
    j.kv("bench", "serving");
    j.kv("service_cycles", static_cast<std::uint64_t>(service_cycles));
    j.kv("requests_per_point", static_cast<std::int64_t>(n));
    j.key("points").beginArray();
    for (const auto &p : points) {
        j.beginObject()
            .kv("workers", p.workers)
            .kv("rho", p.rho)
            .kv("deadline_slack_us", p.deadlineSlackUs)
            .kv("offered_rps", p.offeredRps)
            .kv("served", p.served)
            .kv("rejected_deadline", p.rejectedDeadline)
            .kv("rejected_queue_full", p.rejectedQueue)
            .kv("failed", p.failed)
            .kv("p50_us", p.p50Us)
            .kv("p99_us", p.p99Us)
            .kv("throughput_rps", p.throughputRps)
            .kv("prediction_mismatches", p.mismatches)
            .kv("cycles_accounted", p.cyclesAccounted)
            .endObject();
    }
    j.endArray();
    j.kv("wall_seconds", wall);
    j.endObject();
    const bool wrote = writeJsonFile("BENCH_serving.json", j.str());
    std::printf("\n%s BENCH_serving.json (wall %.1f s)\n",
                wrote ? "wrote" : "FAILED to write", wall);

    bool ok = wrote;
    std::uint64_t total_rejected = 0;
    double knee_below = 0.0, knee_above = 0.0;
    for (const auto &p : points) {
        ok = ok && p.mismatches == 0 && p.cyclesAccounted &&
             p.failed == 0;
        total_rejected += p.rejectedDeadline;
        if (p.workers == 4 && p.rho <= 0.9)
            knee_below += static_cast<double>(p.rejectedDeadline);
        if (p.workers == 4 && p.rho >= 1.6)
            knee_above += static_cast<double>(p.rejectedDeadline);
    }
    // The knee: comfortably under capacity almost nothing is
    // rejected; past it, rejections dominate.
    ok = ok && total_rejected > 0 && knee_above > 10 * knee_below;

    std::printf("shape check: zero prediction mismatches, rejected "
                "requests cost 0 cycles, admission knee at rho=1: "
                "%s\n",
                ok ? "yes" : "NO");
    bench::footer();
    return ok ? 0 : 1;
}
