/**
 * @file
 * tsp-serve: demo CLI for the deterministic-deadline serving layer.
 *
 * Registers a model (or several) in a ModelRegistry, spins up a pool
 * of simulated chips over it, replays an open-loop Poisson request
 * stream against it and prints the serving report (per-outcome
 * counts, latency percentiles on the virtual chip timeline,
 * throughput), optionally as JSON.
 *
 *   tsp-serve [options]
 *     --workers N       engines in the pool          (default 2)
 *     --pod N           each engine is an N-chip ring pod serving
 *                       the int8 ring all-reduce collective instead
 *                       of the compiled model (N >= 2; 0 = off)
 *     --wire N          pod link wire latency, cycles (default 17)
 *     --requests N      requests to submit           (default 200)
 *     --rho R           offered load vs pool capacity (default 1.2)
 *     --slack S         deadline = arrival + S * service; 0 = none
 *                                                    (default 4)
 *     --queue N         per-worker queue capacity    (default 64)
 *     --model-seed S    weight seed of the single tiny-net family
 *                       served without --model     (default 3)
 *     --seed S          request-stream seed          (default 1)
 *     --json FILE       also write the report as JSON
 *     --fault-rate R    per-access bit-upset rate on MEM reads,
 *                       MEM writes, stream hops and (with --pod)
 *                       C2C link flight              (default 0)
 *     --fault-double F  fraction of upsets that strike a second bit
 *                       in the same word (uncorrectable)
 *                                                    (default 0)
 *     --fault-seed S    fault-injector seed          (default cfg)
 *     --retries N       retry budget after a machine check
 *                                                    (default 2)
 *     --snapshot-every N
 *                       snapshot cadence in cycles; arms mid-batch
 *                       migration: a machine-checked batch resumes
 *                       from its last pre-fault snapshot on a
 *                       rebuilt engine instead of re-running from
 *                       cycle 0                   (default 0 = off)
 *     --batch-max N     largest batch submit() may form; compiles
 *                       one batch-b program per b = 1..N so the
 *                       admission controller books the exact
 *                       cycles(b) (default 1 = batching off)
 *     --batch-window-us U
 *                       how long (virtual us) after a batch
 *                       leader's arrival later requests may still
 *                       join its batch            (default 0)
 *     --model NAME=SEED[:HxWxC]
 *                       register a model family (repeatable) in
 *                       place of the single --model-seed one; the
 *                       registry holds every family, requests spread
 *                       across them, and weight swaps are booked
 *                       exactly into admission (default shape 8x8x4)
 *     --registry-mb N   compiled-program byte budget, MiB; LRU
 *                       eviction above it      (default unbounded)
 *     --hipri F         fraction of requests submitted as the
 *                       high-priority tenant class (priority 1,
 *                       deadline slack halved)       (default 0)
 *     --preempt         allow a high-priority arrival that would
 *                       miss its deadline to preempt the open
 *                       batch (victims re-queued, never dropped)
 *
 * Numeric values must parse whole and fit their type; anything else
 * prints usage and exits 2.
 *
 * Examples:
 *   tsp-serve --workers 4 --requests 400 --rho 1.5 --slack 3 \
 *             --json serve_report.json
 *   tsp-serve --model a=3 --model b=11:8x8x4 --batch-max 4 \
 *             --hipri 0.2 --preempt --requests 400
 */

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "model/resnet.hh"
#include "serve/server.hh"

#include "cli_args.hh"

using namespace tsp;
using cli::badArg;
using cli::intArg;
using cli::longArg;
using cli::realArg;

void
tsp::cli::usage()
{
    std::fprintf(stderr,
                 "usage: tsp-serve [--workers N] [--pod N] "
                 "[--wire N] [--requests N] "
                 "[--rho R] [--slack S] [--queue N] "
                 "[--model-seed S] [--seed S] [--json FILE] "
                 "[--fault-rate R] [--fault-double F] "
                 "[--fault-seed S] [--retries N] [--snapshot-every N] "
                 "[--batch-max N] [--batch-window-us U] "
                 "[--model NAME=SEED[:HxWxC]]... [--registry-mb N] "
                 "[--hipri F] [--preempt]\n");
}

namespace {

/** One --model flag: NAME=SEED[:HxWxC]. */
struct ModelArg
{
    std::string name;
    std::uint64_t seed = 0;
    int h = 8, w = 8, c = 4;
};

bool
parseModelArg(std::string_view s, ModelArg &out)
{
    const std::size_t eq = s.find('=');
    if (eq == 0 || eq == std::string_view::npos)
        return false;
    out.name = s.substr(0, eq);
    s.remove_prefix(eq + 1);
    const std::size_t colon = s.find(':');
    long seed = 0;
    if (!parseInt(s.substr(0, colon), seed))
        return false;
    out.seed = static_cast<std::uint64_t>(seed);
    if (colon == std::string_view::npos)
        return true;
    const std::vector<std::string> dims = split(s.substr(colon + 1), 'x');
    if (dims.size() != 3)
        return false;
    int *shape[3] = {&out.h, &out.w, &out.c};
    for (int i = 0; i < 3; ++i) {
        long v = 0;
        if (!parseInt(dims[static_cast<std::size_t>(i)], v) || v < 1 ||
            v > INT_MAX)
            return false;
        *shape[i] = static_cast<int>(v);
    }
    return true;
}

/** @return a tiny-net family drawing its warm input from @p rng. */
serve::ModelSpec
tinyNetSpec(std::string name, std::uint64_t weight_seed, int h, int w,
            int c, Rng &rng, int max_batch)
{
    serve::ModelSpec sp;
    sp.name = std::move(name);
    sp.graph = model::buildTinyNet(weight_seed, h, w, c);
    sp.warmInput.resize(static_cast<std::size_t>(h) *
                        static_cast<std::size_t>(w) *
                        static_cast<std::size_t>(c));
    for (auto &v : sp.warmInput)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    sp.maxBatch = max_batch;
    return sp;
}

} // namespace

int
main(int argc, char **argv)
{
    int workers = 2;
    int pod_chips = 0;
    long wire_latency = 17;
    int requests = 200;
    double rho = 1.2;
    double slack_services = 4.0;
    long queue_cap = 64;
    std::uint64_t model_seed = 3;
    std::uint64_t seed = 1;
    const char *json_path = nullptr;
    double fault_rate = 0.0;
    double fault_double = 0.0;
    bool have_fault_seed = false;
    std::uint64_t fault_seed = 0;
    int retries = 2;
    long snapshot_every = 0;
    int batch_max = 1;
    double batch_window_us = 0.0;
    std::vector<ModelArg> model_args;
    long registry_mb = 0;
    double hipri = 0.0;
    bool preempt = false;

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                badArg();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workers")) {
            workers = intArg(next());
        } else if (!std::strcmp(argv[i], "--pod")) {
            pod_chips = intArg(next());
        } else if (!std::strcmp(argv[i], "--wire")) {
            wire_latency = longArg(next());
        } else if (!std::strcmp(argv[i], "--requests")) {
            requests = intArg(next());
        } else if (!std::strcmp(argv[i], "--rho")) {
            rho = realArg(next());
        } else if (!std::strcmp(argv[i], "--slack")) {
            slack_services = realArg(next());
        } else if (!std::strcmp(argv[i], "--queue")) {
            queue_cap = longArg(next());
        } else if (!std::strcmp(argv[i], "--model-seed")) {
            model_seed = static_cast<std::uint64_t>(longArg(next()));
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = static_cast<std::uint64_t>(longArg(next()));
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next();
        } else if (!std::strcmp(argv[i], "--fault-rate")) {
            fault_rate = realArg(next());
        } else if (!std::strcmp(argv[i], "--fault-double")) {
            fault_double = realArg(next());
        } else if (!std::strcmp(argv[i], "--fault-seed")) {
            fault_seed = static_cast<std::uint64_t>(longArg(next()));
            have_fault_seed = true;
        } else if (!std::strcmp(argv[i], "--retries")) {
            retries = intArg(next());
        } else if (!std::strcmp(argv[i], "--snapshot-every")) {
            snapshot_every = longArg(next());
        } else if (!std::strcmp(argv[i], "--batch-max")) {
            batch_max = intArg(next());
        } else if (!std::strcmp(argv[i], "--batch-window-us")) {
            batch_window_us = realArg(next());
        } else if (!std::strcmp(argv[i], "--model")) {
            ModelArg ma;
            if (!parseModelArg(next(), ma))
                badArg();
            model_args.push_back(std::move(ma));
        } else if (!std::strcmp(argv[i], "--registry-mb")) {
            registry_mb = longArg(next());
        } else if (!std::strcmp(argv[i], "--hipri")) {
            hipri = realArg(next());
        } else if (!std::strcmp(argv[i], "--preempt")) {
            preempt = true;
        } else {
            badArg();
        }
    }
    if (workers < 1 || requests < 1 || rho <= 0.0 || wire_latency < 0 ||
        queue_cap < 0 || fault_rate < 0.0 || fault_rate > 1.0 ||
        fault_double < 0.0 || fault_double > 1.0 || retries < 0 ||
        snapshot_every < 0 || pod_chips == 1 || pod_chips < 0 ||
        batch_max < 1 || batch_window_us < 0.0 ||
        (pod_chips >= 2 && batch_max > AllReducePlan::kMaxBatch) ||
        registry_mb < 0 || registry_mb > (LONG_MAX >> 20) ||
        hipri < 0.0 || hipri > 1.0 ||
        (!model_args.empty() && pod_chips != 0))
        badArg();

    serve::ServerConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = static_cast<std::size_t>(queue_cap);
    cfg.maxRetries = retries;
    cfg.snapshotEveryCycles = static_cast<Cycle>(snapshot_every);
    cfg.batchMax = batch_max;
    cfg.batchWindowSec = batch_window_us * 1e-6;
    cfg.chip.fault.memReadRate = fault_rate;
    cfg.chip.fault.memWriteRate = fault_rate;
    cfg.chip.fault.streamRate = fault_rate;
    cfg.chip.fault.c2cRate = fault_rate;
    cfg.chip.fault.doubleBitFraction = fault_double;
    if (have_fault_seed)
        cfg.chip.fault.seed = fault_seed;
    cfg.preemption = preempt;
    if (hipri > 0.0 || preempt) {
        // Class 0: best-effort. Class 1: priority tenant — halved
        // deadline slack, outranks class 0 for preemption.
        cfg.sloClasses.push_back(serve::SloClass{1.0, 0});
        cfg.sloClasses.push_back(serve::SloClass{0.5, 1});
    }

    // The single family's warm input is the stream's first draws, in
    // every mode, so a seed names one request stream.
    Rng rng(seed);
    serve::ModelSpec single =
        tinyNetSpec("tinynet", model_seed, 8, 8, 4, rng, batch_max);

    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::InferenceServer> server_p;
    std::vector<std::size_t> input_len; ///< Per family.
    if (pod_chips >= 2) {
        // Each worker owns an N-chip ring pod serving the statically
        // scheduled all-reduce; the collective's exact cycles(b) are
        // the retire cycles its builder reports per batch size.
        const std::vector<Cycle> table =
            serve::PodBackend::serviceCyclesTable(
                pod_chips, static_cast<Cycle>(wire_latency), cfg.chip,
                batch_max);
        const ChipConfig chip_cfg = cfg.chip;
        server_p = std::make_unique<serve::InferenceServer>(
            [pod_chips, wire_latency, chip_cfg,
             batch_max](int) -> std::unique_ptr<serve::Backend> {
                return std::make_unique<serve::PodBackend>(
                    pod_chips, static_cast<Cycle>(wire_latency),
                    chip_cfg, batch_max);
            },
            table, cfg);
        input_len.push_back(serve::PodBackend::inputBytes(pod_chips));
    } else {
        // One registry holds every family (the single --model-seed
        // one by default); programs compile lazily on first use of
        // each (model, batch) pair.
        std::vector<serve::ModelSpec> specs;
        for (const ModelArg &ma : model_args) {
            Rng wr(ma.seed ^ 0x9e3779b97f4a7c15ull);
            specs.push_back(tinyNetSpec(ma.name, ma.seed, ma.h, ma.w,
                                        ma.c, wr, batch_max));
        }
        if (specs.empty())
            specs.push_back(std::move(single));
        for (const serve::ModelSpec &sp : specs)
            input_len.push_back(sp.warmInput.size());
        registry = std::make_unique<serve::ModelRegistry>(
            std::move(specs),
            registry_mb > 0
                ? static_cast<std::size_t>(registry_mb) << 20
                : serve::ModelRegistry::kDefaultBudget);
        server_p = std::make_unique<serve::InferenceServer>(
            *registry, cfg);
    }
    serve::InferenceServer &server = *server_p;
    if (registry) {
        std::printf("model registry: %d famil%s, budget %s\n",
                    registry->modelCount(),
                    registry->modelCount() == 1 ? "y" : "ies",
                    registry_mb > 0 ? "bounded" : "unbounded");
        for (int m = 0; m < registry->modelCount(); ++m) {
            std::printf("  %-12s max batch %d, cycles(1) %llu, "
                        "swap %.3f us\n",
                        registry->name(m).c_str(),
                        registry->maxBatch(m),
                        static_cast<unsigned long long>(
                            registry->cycles(m, 1)),
                        registry->swapSec(m, 1) * 1e6);
        }
    }
    if (!cfg.sloClasses.empty()) {
        std::printf("tenant classes: %.0f%% of traffic "
                    "high-priority (slack x0.5)%s\n",
                    hipri * 100.0, preempt ? ", preemption on" : "");
    }
    if (server.batchMax() > 1) {
        std::printf("batching: up to %d samples per batch, join "
                    "window %.3f us; exact cycles(b):",
                    server.batchMax(), batch_window_us);
        for (int b = 1; b <= server.batchMax(); ++b)
            std::printf(" %llu",
                        static_cast<unsigned long long>(
                            server.admission().serviceCycles(b)));
        std::printf("\n");
    }

    if (pod_chips >= 2) {
        std::printf("collective: %d-chip ring all-reduce, wire "
                    "latency %ld — %llu cycles = %.3f us per "
                    "request, known before execution\n",
                    pod_chips, wire_latency,
                    static_cast<unsigned long long>(
                        server.serviceCycles()),
                    server.serviceSec() * 1e6);
        std::printf("pool: %d pod%s of %d chips, queue capacity %ld, "
                    "offered load %.2f x capacity%s\n",
                    workers, workers == 1 ? "" : "s", pod_chips,
                    queue_cap, rho,
                    slack_services > 0.0 ? "" : ", no deadlines");
    } else {
        std::printf("compiled model: %llu cycles = %.3f us per "
                    "inference, known before execution\n",
                    static_cast<unsigned long long>(
                        server.serviceCycles()),
                    server.serviceSec() * 1e6);
        std::printf("pool: %d chip%s, queue capacity %ld, offered "
                    "load %.2f x capacity%s\n",
                    workers, workers == 1 ? "" : "s", queue_cap, rho,
                    slack_services > 0.0 ? "" : ", no deadlines");
    }
    if (fault_rate > 0.0) {
        std::printf("fault injection: %.3g upsets/access, "
                    "double-bit fraction %.3g, retry budget %d%s\n",
                    fault_rate, fault_double, retries,
                    snapshot_every > 0 ? ", mid-batch migration on" : "");
    }
    std::printf("\n");

    const double mean_gap =
        server.serviceSec() / (rho * static_cast<double>(workers));
    const int nmodels = server.models();
    double now = 0.0;
    std::vector<std::future<serve::Result>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        now += -std::log(1.0 - rng.nextDouble()) * mean_gap;
        int m = 0, tenant = 0;
        if (nmodels > 1)
            m = static_cast<int>(rng.intIn(0, nmodels - 1));
        if (!cfg.sloClasses.empty() && hipri > 0.0 &&
            rng.nextDouble() < hipri)
            tenant = 1;
        std::vector<std::int8_t> data(
            input_len[static_cast<std::size_t>(m)]);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        // Slack is measured in this family's own service times.
        const double deadline =
            slack_services > 0.0
                ? now + slack_services *
                            server.admission().serviceSecFor(m, 1)
                : 0.0;
        futures.push_back(server.submitModel(
            m, tenant, std::move(data), now, deadline,
            serve::InferenceServer::OnFull::Block));
    }
    server.drain();

    // A few sample requests, then the aggregate report.
    std::printf("sample of outcomes:\n");
    const std::size_t step =
        std::max<std::size_t>(1, futures.size() / 8);
    for (std::size_t i = 0; i < futures.size(); i += step) {
        const serve::Result r = futures[i].get();
        std::printf("  req %4llu  %-19s wait %7.3f us  total "
                    "%7.3f us  cycles %llu/%llu\n",
                    static_cast<unsigned long long>(r.id),
                    serve::outcomeName(r.outcome),
                    r.queueSec() * 1e6, r.latencySec() * 1e6,
                    static_cast<unsigned long long>(
                        r.measuredCycles),
                    static_cast<unsigned long long>(
                        r.predictedCycles));
    }

    const auto snap = server.metricsSnapshot();
    std::printf("\nreport:\n");
    for (const auto &[name, v] : snap.counters().all()) {
        std::printf("  %-22s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
    }
    if (snap.totalUs().count() > 0) {
        std::printf("  latency p50/p95/p99    %.2f / %.2f / %.2f us\n",
                    snap.totalUs().quantile(0.50),
                    snap.totalUs().quantile(0.95),
                    snap.totalUs().quantile(0.99));
        std::printf("  queue wait p50/p99     %.2f / %.2f us\n",
                    snap.queueUs().quantile(0.50),
                    snap.queueUs().quantile(0.99));
        std::printf("  throughput             %.0f req/s (virtual)\n",
                    snap.throughputRps());
    }
    std::printf("  prediction mismatches  %llu\n",
                static_cast<unsigned long long>(
                    snap.predictionMismatches()));
    // Which runs derived a trace depends on host thread timing, so
    // these counts stay out of the (deterministic) JSON report.
    std::printf("  trace cache            %zu entries, %zu bytes, "
                "%llu replays, %llu derived\n",
                server.traceCacheSize(), server.traceCacheBytes(),
                static_cast<unsigned long long>(server.replayCount()),
                static_cast<unsigned long long>(server.recordCount()));

    if (json_path) {
        if (!writeJsonFile(json_path, server.metricsJson())) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 1;
        }
        std::printf("\nwrote %s\n", json_path);
    }

    // Exit nonzero when any request actually failed, not only on
    // prediction mismatches: a run whose retry budget was exhausted
    // by machine checks (or that hit a cycle-budget failure) must be
    // visible to scripts and CI, not silently exit 0.
    const std::uint64_t failed_mc =
        snap.counters().get("failed_machine_check");
    const std::uint64_t failed = snap.counters().get("failed");
    if (failed_mc > 0 || failed > 0) {
        std::fprintf(stderr,
                     "\nFAILED: %llu request%s exhausted the "
                     "machine-check retry budget, %llu failed "
                     "outright (of %llu submitted)\n",
                     static_cast<unsigned long long>(failed_mc),
                     failed_mc == 1 ? "" : "s",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(
                         snap.counters().get("submitted")));
        return 1;
    }
    return snap.predictionMismatches() == 0 ? 0 : 1;
}
