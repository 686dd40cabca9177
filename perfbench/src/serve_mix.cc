/**
 * @file
 * Workload "serve-mix": the tsp-serve path. One InferenceServer over
 * a ModelRegistry of three tiny-net families of different shapes,
 * 2 workers, batching up to 4 with a join window, two tenant classes
 * with priority preemption, deadlines, no faults, and a registry byte
 * budget below the working set so programs are evicted and recompiled.
 *
 * A run is kRounds rounds, one after another. A round's set-up builds
 * the families, the registry and the server, eagerly acquires every
 * (family, batch) program, and ends with the cold pass: one batch per
 * program, each recording its replay trace. Its server then takes an
 * open-loop stream of the round's own seed: Poisson arrivals on the
 * virtual timeline above capacity, submitted with OnFull::Block so no
 * virtual outcome depends on host timing. The stream's first
 * kPrefixRequests fill the server's virtual queues and are drained
 * untimed; the rest are the round's timed phase, which therefore
 * starts from a loaded server, as a long stream's middle does. Every
 * round runs on fresh worker threads, and set-ups and timed phases
 * alternate, so both are sampled across the whole run.
 *
 * The untraced run builds plain SessionBackends through the public
 * (BackendFactory, ModelRegistry) constructor, exactly as the
 * registry-only constructor does; the traced run wraps each in a
 * timing ProbeBackend, and its simulated results must not change.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>

#include "common/rng.hh"
#include "common/seed.hh"
#include "harness.hh"
#include "model/resnet.hh"
#include "probe_backend.hh"
#include "serve/server.hh"

namespace perfbench {
namespace {

namespace serve = tsp::serve;

constexpr int kRounds = 10;
constexpr int kWorkers = 2;
constexpr int kBatchMax = 4;
/** Later arrivals may join an open batch this long after its leader. */
constexpr double kBatchWindowSec = 2e-6;
/** Offered load over the pool's batch-1 capacity of family 0. */
constexpr double kRho = 1.5;
/** Deadline = arrival + kSlack x the family's batch-1 service time. */
constexpr double kSlack = 4.0;
/** Share of requests in the priority tenant class. */
constexpr double kHiPri = 0.2;
/** Compiled-program budget, below the ~10.5 MiB of all 12 programs. */
constexpr std::size_t kRegistryBytes = std::size_t{6} << 20;
/** Timed requests per round per second of --seconds. */
constexpr int kTimedPerSecond = 100;
/** Untimed requests that open each round's stream. */
constexpr int kPrefixRequests = 100;
/** Sealed batches each worker's queue holds before submit blocks. */
constexpr std::size_t kQueueCapacity = 512;

struct Family
{
    const char *name;
    int h, w, c;
};
constexpr Family kFamilies[] = {
    {"tiny-a", 8, 8, 4}, {"tiny-b", 8, 8, 4}, {"tiny-c", 12, 12, 8}};
constexpr int kFamilyCount = 3;

std::vector<std::int8_t>
randomBytes(tsp::Rng &rng, std::size_t n)
{
    std::vector<std::int8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return v;
}

std::size_t
inputBytes(int m)
{
    const Family &f = kFamilies[m];
    return static_cast<std::size_t>(f.h) * f.w * f.c;
}

/**
 * Served requests. ServerConfig::onResult runs on the worker that
 * served the request; rejections resolve at submit and say nothing of
 * engine speed. A worker's CPU time between two results is the work of
 * the batch it served, so the first member of a batch carries the
 * batch.
 */
struct Completions
{
    std::mutex mu;
    std::vector<Completion> all; ///< Guarded by mu.
};

/** One set-up: the families, registry, engines and server. */
struct Stack
{
    std::vector<tsp::Graph> graphs; ///< For the goldens.
    std::unique_ptr<serve::ModelRegistry> registry;
    std::vector<serve::SessionBackend *> engines; ///< Owned by server.
    Completions done;
    std::unique_ptr<serve::InferenceServer> server; ///< Destroyed first.
};

serve::ServerConfig
serverConfig(Completions &done)
{
    serve::ServerConfig cfg;
    cfg.workers = kWorkers;
    // Deep queues: with pinned dispatch a submitter blocked on one
    // worker's full queue starves the other worker. A bound keeps peak
    // memory steady. The depth is host backpressure only; admission is
    // virtual.
    cfg.queueCapacity = kQueueCapacity;
    cfg.onResult = [&done](const serve::Result &r) {
        if (r.outcome != serve::Outcome::Served)
            return;
        // CPU time of this worker thread not yet charged to a result.
        thread_local std::int64_t since_ns = 0;
        const Completion c{nowNs(), threadCpuNs() - since_ns};
        {
            std::lock_guard<std::mutex> lock(done.mu);
            done.all.push_back(c);
        }
        since_ns = threadCpuNs();
    };
    cfg.batchMax = kBatchMax;
    cfg.batchWindowSec = kBatchWindowSec;
    // Class 0 best effort; class 1 halves the slack and may preempt.
    cfg.sloClasses = {serve::SloClass{1.0, 0}, serve::SloClass{0.5, 1}};
    cfg.preemption = true;
    return cfg;
}

void
setUp(Stack &st, std::uint64_t seed, bool traced, SpanLog &spans,
      double &compile_ms)
{
    std::vector<serve::ModelSpec> specs;
    {
        auto s = spans.scope("model.build");
        for (int m = 0; m < kFamilyCount; ++m) {
            const Family &f = kFamilies[m];
            st.graphs.push_back(tsp::model::buildTinyNet(
                tsp::seedMix(seed * 16 + static_cast<unsigned>(m)), f.h,
                f.w, f.c));
            serve::ModelSpec sp;
            sp.name = f.name;
            sp.graph = st.graphs.back();
            tsp::Rng wr(tsp::seedMix(seed * 16 + 8 + static_cast<unsigned>(m)));
            sp.warmInput = randomBytes(wr, inputBytes(m));
            sp.maxBatch = kBatchMax;
            specs.push_back(std::move(sp));
        }
    }
    st.registry = std::make_unique<serve::ModelRegistry>(
        std::move(specs), kRegistryBytes);
    const serve::ServerConfig cfg = serverConfig(st.done);
    // What InferenceServer(registry, cfg) builds per worker, optionally
    // behind the timing wrapper.
    auto factory = [&st, &spans, traced,
                    chip = cfg.chip](int) -> std::unique_ptr<serve::Backend> {
        auto engine = std::make_unique<serve::SessionBackend>(
            st.registry->acquire(0, 1), kBatchMax, chip);
        st.engines.push_back(engine.get());
        if (!traced)
            return engine;
        return std::make_unique<ProbeBackend>(std::move(engine), spans,
                                              nullptr);
    };
    {
        auto s = spans.scope("serve.construct");
        st.server = std::make_unique<serve::InferenceServer>(
            factory, *st.registry, cfg);
    }
    const std::int64_t t0 = nowNs();
    for (int m = 0; m < kFamilyCount; ++m) {
        for (int b = 1; b <= kBatchMax; ++b) {
            auto s = spans.scope("graph.compile");
            st.registry->acquire(m, b);
        }
    }
    compile_ms = static_cast<double>(nowNs() - t0) * 1e-6;
}

/** One submitted request, kept for checking. */
struct Sent
{
    int model = 0;
    std::vector<std::int8_t> input;
    std::future<serve::Result> result;
};

double
poolEnergyJ(const Stack &st)
{
    double e = 0.0;
    for (serve::SessionBackend *b : st.engines)
        e += b->session().chip().power().totalEnergyJ();
    return e;
}

/** @return the metrics JSON without its trace_cache block, whose
 * counts depend on thread timing (see perfbench/README.md). */
std::string
metricsWithoutTraceCache(const std::string &json)
{
    const std::string key = "\"trace_cache\":";
    const std::size_t at = json.find(key);
    if (at == std::string::npos)
        return json;
    const std::size_t close = json.find('}', at);
    std::size_t end = close + 1;
    if (end < json.size() && json[end] == ',')
        ++end;
    return json.substr(0, at) + json.substr(end);
}

/**
 * Sets @p st up and serves its cold pass, timing both into @p rep.
 * @param now set to the virtual time the cold pass ends.
 * @return the cold-pass requests.
 */
std::vector<Sent>
setUpWithColdPass(Stack &st, const RunParams &p, SpanLog &spans,
                  double &compile_ms, double &now, Report &rep)
{
    // Cold-pass groups are this far apart, so no two groups share a
    // batch; each group is one batch of its size.
    const double group_gap = 100e-6;
    std::vector<Sent> cold;
    tsp::Rng rng(tsp::seedMix(p.seed * 16 + 14));
    const std::int64_t t0 = nowNs();
    {
        auto s = spans.scope("bench.setup");
        setUp(st, p.seed, p.traced, spans, compile_ms);
    }
    const std::int64_t c0 = nowNs();
    {
        auto s = spans.scope("bench.cold");
        now = 0.0;
        for (int m = 0; m < kFamilyCount; ++m) {
            for (int b = 1; b <= kBatchMax; ++b) {
                now += group_gap;
                for (int i = 0; i < b; ++i) {
                    Sent c{m, randomBytes(rng, inputBytes(m)), {}};
                    c.result = st.server->submitModel(
                        m, 0, c.input, now, 0.0,
                        serve::InferenceServer::OnFull::Block);
                    cold.push_back(std::move(c));
                }
            }
        }
        st.server->drain();
    }
    rep.firstReqMs.push_back(secondsSince(c0) * 1e3);
    rep.setupS.push_back(secondsSince(t0));
    return cold;
}

/** What the run's rounds resolved, summed over them. */
struct Tally
{
    std::vector<double> virtUs; ///< Every served timed request.
    std::uint64_t served = 0;   ///< Timed requests served.
    tsp::Cycle cycles = 0;      ///< Timed-phase chip cycles.
    double energyJ = 0.0;       ///< Timed-phase energy.
    std::uint64_t metrics = tsp::kFnv1aBasis;
    std::uint64_t outcomes = tsp::kFnv1aBasis;
    std::uint64_t outputs = tsp::kFnv1aBasis;
    std::uint64_t compiles = 0, evictions = 0;
    std::uint64_t replays = 0, records = 0, entries = 0;
    std::uint64_t batches = 0, batchSamples = 0;
    std::uint64_t preemptions = 0, rejectedDeadline = 0;
    std::vector<double> queueUsP99; ///< One per round.
};

/** Counts @p r in @p rep and folds it into @p t's digests.
 * @return true if it was served. */
bool
countResult(const serve::Result &r, Report &rep, Tally &t)
{
    t.outcomes = fold(t.outcomes, r.outcome);
    t.outcomes = fold(t.outcomes, r.batch);
    t.outcomes = fold(t.outcomes, r.measuredCycles);
    t.outcomes = fold(t.outcomes, r.completionSec);
    ++rep.attempted;
    switch (r.outcome) {
      case serve::Outcome::Served:
        ++rep.served;
        t.outputs =
            tsp::fnv1a64(r.output.data.data(), r.output.data.size(),
                         t.outputs);
        return true;
      case serve::Outcome::RejectedDeadline:
      case serve::Outcome::RejectedQueueFull:
        ++rep.refused;
        return false;
      default:
        ++rep.failed;
        return false;
    }
}

} // namespace

void
runServeMix(const RunParams &p, SpanLog &spans, Report &rep)
{
    const int n = p.seconds * kTimedPerSecond;
    Tally t;
    // The workers' completions in the rounds' timed phases.
    std::vector<Completion> pool;
    std::int64_t timed_ns = 0;
    std::int64_t check_ns = 0;
    double compile_ms = 0.0;
    // The last round's timed phase, for the traced run's span metrics.
    std::int64_t last_t0 = 0, last_t1 = 0;
    for (int k = 0; k < kRounds; ++k) {
        auto st = std::make_unique<Stack>();
        double now = 0.0;
        std::vector<Sent> cold =
            setUpWithColdPass(*st, p, spans, compile_ms, now, rep);
        serve::InferenceServer &server = *st->server;

        // --- The round's open-loop stream. ---
        tsp::Rng rng(tsp::seedMix(tsp::seedMix(p.seed * 16 + 15) +
                                  static_cast<std::uint64_t>(k)));
        const double mean_gap =
            server.admission().serviceSecFor(0, 1) / (kRho * kWorkers);
        std::uint64_t id = 1 + static_cast<std::uint64_t>(k) *
                                   (kPrefixRequests + n);
        // Families arrive in blocks of kFamilyCount, one of each in a
        // seed-shuffled order, so that every seed offers the same mix.
        int block[kFamilyCount] = {0, 1, 2};
        int in_block = 0;
        auto submit = [&](std::vector<Sent> &into) {
            now += -std::log(1.0 - rng.nextDouble()) * mean_gap;
            if (in_block == 0) {
                for (int j = kFamilyCount - 1; j > 0; --j)
                    std::swap(block[j], block[rng.intIn(0, j)]);
            }
            const int m = block[in_block];
            in_block = (in_block + 1) % kFamilyCount;
            const int tenant = rng.nextDouble() < kHiPri ? 1 : 0;
            Sent s{m, randomBytes(rng, inputBytes(m)), {}};
            const double deadline =
                now + kSlack * server.admission().serviceSecFor(m, 1);
            std::vector<std::int8_t> payload = s.input;
            {
                auto sc = spans.scope("serve.submit", id++);
                s.result = server.submitModel(
                    m, tenant, std::move(payload), now, deadline,
                    serve::InferenceServer::OnFull::Block);
            }
            into.push_back(std::move(s));
        };
        std::vector<Sent> prefix, sent;
        {
            auto sc = spans.scope("bench.prefix");
            for (int i = 0; i < kPrefixRequests; ++i)
                submit(prefix);
            server.drain();
        }
        const tsp::Cycle cycles0 = server.totalChipCycles();
        const double energy0 = poolEnergyJ(*st);
        sent.reserve(static_cast<std::size_t>(n));
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < n; ++i)
            submit(sent);
        {
            auto sc = spans.scope("serve.drain");
            server.drain();
        }
        const std::int64_t t1 = nowNs();
        timed_ns += t1 - t0;
        last_t0 = t0;
        last_t1 = t1;
        {
            std::lock_guard<std::mutex> lock(st->done.mu);
            for (const Completion &c : st->done.all) {
                if (c.atNs >= t0)
                    pool.push_back(c);
            }
        }

        // --- Outcomes (no timing from here on). ---
        std::vector<serve::Result> cold_results, prefix_results, results;
        for (Sent &s : cold)
            cold_results.push_back(s.result.get());
        for (Sent &s : prefix)
            prefix_results.push_back(s.result.get());
        for (Sent &s : sent)
            results.push_back(s.result.get());
        for (const serve::Result &r : cold_results) {
            if (!countResult(r, rep, t))
                rep.fail("a cold-pass request was not served");
        }
        for (const serve::Result &r : prefix_results)
            countResult(r, rep, t);
        for (const serve::Result &r : results) {
            if (countResult(r, rep, t)) {
                ++t.served;
                t.virtUs.push_back(r.latencySec() * 1e6);
            }
        }
        t.cycles += server.totalChipCycles() - cycles0;
        t.energyJ += poolEnergyJ(*st) - energy0;

        const serve::ServerMetrics snap = server.metricsSnapshot();
        rep.predictionMismatches += snap.predictionMismatches();
        const std::string metrics =
            metricsWithoutTraceCache(server.metricsJson());
        t.metrics = tsp::fnv1a64(metrics.data(), metrics.size(), t.metrics);
        const auto &c = snap.counters();
        t.compiles += st->registry->compileCount();
        t.evictions += st->registry->evictions();
        t.replays += server.replayCount();
        t.records += server.recordCount();
        t.entries += server.traceCacheSize();
        t.batches += c.get("batches");
        t.batchSamples += c.get("batch_samples");
        t.preemptions += c.get("preemptions");
        t.rejectedDeadline += c.get("rejected_deadline");
        t.queueUsP99.push_back(snap.queueUs().quantile(0.99));

        if (!spans.enabled()) {
            // Golden check, outside every timed phase.
            const std::int64_t g0 = nowNs();
            auto check = [&](const std::vector<Sent> &in,
                             const std::vector<serve::Result> &out) {
                for (std::size_t i = 0; i < in.size(); ++i) {
                    if (out[i].outcome != serve::Outcome::Served)
                        continue;
                    const Family &f = kFamilies[in[i].model];
                    tsp::ref::QTensor q(f.h, f.w, f.c);
                    q.data = in[i].input;
                    const tsp::Graph &g =
                        st->graphs[static_cast<std::size_t>(in[i].model)];
                    ++rep.outputsChecked;
                    if (g.runReference(q).at(g.outputNode()).data !=
                        out[i].output.data)
                        ++rep.outputMismatches;
                }
            };
            check(cold, cold_results);
            check(prefix, prefix_results);
            check(sent, results);
            check_ns += nowNs() - g0;
        }
    }

    rep.hostRps = static_cast<double>(kRounds) * n /
                  (static_cast<double>(timed_ns) * 1e-9);
    // The workers specialise in families of different cost, so only
    // chunks of the pool's stream hold the same mix.
    rep.reqMs = chunkMsPerRequest(std::move(pool), 0);
    rep.servedShare = static_cast<double>(t.served) /
                      (static_cast<double>(kRounds) * n);
    rep.chipCycles =
        static_cast<double>(t.cycles) / static_cast<double>(t.served);
    rep.energyUj = t.energyJ * 1e6 / static_cast<double>(t.served);
    rep.virtUsP50 = quantile(t.virtUs, 0.50);
    rep.virtUsP99 = quantile(t.virtUs, 0.99);
    rep.digests["server_metrics"] = hex(t.metrics);
    rep.digests["outcomes"] = hex(t.outcomes);
    rep.digests["outputs"] = hex(t.outputs);

    rep.layers["graph.compile_ms"] = compile_ms;
    rep.layers["graph.compiles"] = static_cast<double>(t.compiles);
    rep.layers["serve.evictions"] = static_cast<double>(t.evictions);
    rep.layers["sim.trace_replays"] = static_cast<double>(t.replays);
    rep.layers["sim.trace_records"] = static_cast<double>(t.records);
    rep.layers["sim.trace_entries"] = static_cast<double>(t.entries);
    rep.layers["serve.batch_mean"] =
        static_cast<double>(t.batchSamples) /
        static_cast<double>(std::max<std::uint64_t>(1, t.batches));
    rep.layers["serve.preemptions"] = static_cast<double>(t.preemptions);
    rep.layers["serve.rejected_deadline"] =
        static_cast<double>(t.rejectedDeadline);
    rep.layers["serve.queue_us.p99"] = median(t.queueUsP99);
    if (spans.enabled()) {
        rep.layers["serve.submit_us.p50"] =
            median(spans.durationsMs("serve.submit", last_t0, last_t1)) *
            1e3;
        rep.layers["serve.submit_busy_share"] =
            spans.totalMs("serve.submit", last_t0, last_t1) * 1e6 /
            static_cast<double>(last_t1 - last_t0);
        rep.layers["serve.drain_ms"] =
            spans.totalMs("serve.drain", last_t0, last_t1);
        addSpanLayers(spans, last_t0, last_t1, kWorkers, rep);
    } else {
        rep.notes["ref.check_ms"] = static_cast<double>(check_ns) * 1e-6;
    }
    rep.notes["threads"] = kWorkers + 1;
    std::printf("serve-mix: %d rounds of %d + %d requests: %llu timed "
                "served; %llu refused, %llu failed in all; %llu "
                "compiles, %llu evictions, %llu trace records, %llu "
                "cached traces\n",
                kRounds, kPrefixRequests, n,
                static_cast<unsigned long long>(t.served),
                static_cast<unsigned long long>(rep.refused),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(t.compiles),
                static_cast<unsigned long long>(t.evictions),
                static_cast<unsigned long long>(t.records),
                static_cast<unsigned long long>(t.entries));
}

} // namespace perfbench
