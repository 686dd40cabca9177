/**
 * @file
 * Workload "fleet-soak": the tsp-soak path. fleet::Fleet over 2-chip
 * ring all-reduce pods (serve::PodBackend), one worker per pod, fed by
 * a bursty fleet::LoadGenerator, with deadlines (so bursts are shed)
 * and live fault injection with a double-bit fraction (so machine
 * checks and retries occur). The autoscaler starts at 2 pods and may
 * grow to 3: at most 4 threads with the generator.
 *
 * A run is kSoaks short soaks, one after another, each with its own
 * seed derived from the run's. Each mirrors fleet::runSoak, split so
 * that set-up (calibration, fleet construction and a cold pass of
 * kColdRequests requests) and the timed phase are timed apart. Every
 * soak builds a fresh fleet, so its threads start afresh: the fleet's
 * host speed follows its busiest pod's thread, and which vCPU that
 * thread gets, and how fast that vCPU is at the time, is drawn once
 * per soak rather than once per run.
 *
 * Like runSoak, pods get the client's deadline, so a machine-checked
 * request whose retry no longer fits fails (FailedMachineCheck) and
 * counts as failed. Engines come from FleetConfig::makeBackend wrapped
 * in a ProbeBackend in every run: the fleet owns ServerConfig::onResult,
 * so the engine is where output digests are kept for the src/ref
 * check. Faults make replay ineligible, so every run is the stepped
 * tier; there is no compile and no MXM.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/seed.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "harness.hh"
#include "probe_backend.hh"
#include "ref/qnn.hh"

namespace perfbench {
namespace {

namespace serve = tsp::serve;
namespace fleet = tsp::fleet;

/** Soaks per run; each has its own set-up and timed phase. */
constexpr int kSoaks = 24;
constexpr int kChipsPerPod = 2;
constexpr tsp::Cycle kWireLatency = 17;
constexpr int kInitialPods = 2;
constexpr int kMaxPods = 3;
/** Observation window of the autoscaler and the time series. */
constexpr double kWindowSec = 40e-6;
/** Mean offered load over the initial fleet's capacity. */
constexpr double kRho = 0.9;
/** Deadline = arrival + kSlackServices batch-1 service times. */
constexpr double kSlackServices = 24.0;
constexpr std::size_t kQueueCapacity = 2048;
/** Latency histogram buckets of the time series. */
constexpr std::size_t kLatencyBuckets = 2048;
/** Requests in the cold pass of each set-up. */
constexpr int kColdRequests = 1000;
/** Timed requests per soak per second of --seconds. */
constexpr int kTimedPerSecond = 1000;

/** One soak: the time series, generator and fleet it feeds. */
struct Stack
{
    std::unique_ptr<fleet::SoakTimeSeries> ts;
    std::unique_ptr<fleet::LoadGenerator> gen;
    /** Engines in creation order (pod-major); owned by the pods. */
    std::vector<ProbeBackend *> engines;
    std::unique_ptr<fleet::Fleet> fleet; ///< Destroyed first.
    double deadlineSlackSec = 0.0;
    double coldGapSec = 0.0; ///< Cold-pass arrival spacing.
    double lastArrivalSec = 0.0;
};

tsp::ChipConfig
chipConfig()
{
    tsp::ChipConfig cc;
    cc.fault.memReadRate = 2e-4;
    cc.fault.memWriteRate = 2e-4;
    cc.fault.streamRate = 2e-4;
    cc.fault.c2cRate = 2e-4;
    cc.fault.doubleBitFraction = 0.15;
    return cc;
}

void
setUp(Stack &st, std::uint64_t seed, SpanLog &spans)
{
    // Timing is fault-independent in a static schedule: calibrate on a
    // fault-free pod, as runSoak does.
    std::vector<tsp::Cycle> table;
    {
        auto s = spans.scope("serve.calibrate");
        table = serve::PodBackend::serviceCyclesTable(
            kChipsPerPod, kWireLatency, tsp::ChipConfig{}, 1);
    }
    const tsp::ChipConfig faulty = chipConfig();
    const double service_sec =
        static_cast<double>(table[0]) * faulty.cyclePeriodSec();

    fleet::FleetConfig fc;
    fc.initialPods = kInitialPods;
    fc.cyclesByBatch = table;
    fc.windowSec = kWindowSec;
    fc.autoscaler.minPods = kInitialPods;
    fc.autoscaler.maxPods = kMaxPods;
    fc.autoscaler.scaleUpBacklogSec = 4 * service_sec;
    // Grow only: a drained pod's idle worker would still be a thread.
    fc.autoscaler.scaleDownBacklogSec = 0.0;
    fc.autoscaler.upWindows = 2;
    fc.autoscaler.provisionSec = 2 * kWindowSec;
    fc.server.workers = 1;
    // Deep queues: with pinned dispatch a generator blocked on one
    // pod's full queue starves the other pods, tying the fleet's host
    // speed to its slowest thread. 2048 requests buffer a few tenths
    // of a second of one pod's host work; a bound keeps peak memory
    // steady. Queue depth is host backpressure only; no virtual
    // outcome depends on it.
    fc.server.queueCapacity = kQueueCapacity;
    fc.server.maxRetries = 3;
    fc.server.chip = faulty;
    fc.makeBackend = [&st, &spans, seed, faulty](int pod, int worker) {
        tsp::ChipConfig cc = faulty;
        // Chain base -> pod -> worker, as runSoak derives fault seeds.
        cc.fault.seed = tsp::deriveSeed(
            tsp::deriveSeed(seed, tsp::SeedDomain::FleetPod,
                            static_cast<std::uint64_t>(pod)),
            tsp::SeedDomain::FleetWorker,
            static_cast<std::uint64_t>(worker));
        auto engine = std::make_unique<serve::PodBackend>(
            kChipsPerPod, kWireLatency, cc, 1);
        serve::PodBackend *raw = engine.get();
        auto counters = [raw] {
            EngineCounters c;
            const tsp::Pod &pod = raw->session().pod();
            for (int i = 0; i < pod.size(); ++i) {
                c.energyJ += pod.chip(i).power().totalEnergyJ();
                c.c2cSent += pod.chip(i).c2c().sent();
            }
            return c;
        };
        auto probe =
            std::make_unique<ProbeBackend>(std::move(engine), spans, counters);
        st.engines.push_back(probe.get());
        return probe;
    };

    st.deadlineSlackSec = kSlackServices * service_sec;
    st.coldGapSec = 2 * service_sec;
    // Every served request completes within its deadline, so this
    // range with kLatencyBuckets resolves the latency quantiles to
    // about 8 ns.
    const double lat_hi = 1.5 * st.deadlineSlackSec;
    st.ts = std::make_unique<fleet::SoakTimeSeries>(kWindowSec, lat_hi,
                                                     kLatencyBuckets);
    fleet::LoadGenConfig lg;
    lg.model = fleet::ArrivalModel::Bursty;
    lg.rateRps = kRho * kInitialPods / service_sec;
    lg.seed = seed;
    lg.inputBytes = serve::PodBackend::inputBytes(kChipsPerPod);
    lg.burstFactor = 4.0;
    lg.burstFraction = 0.1;
    lg.meanBurstSec = 25e-6;
    st.gen = std::make_unique<fleet::LoadGenerator>(lg);
    {
        auto s = spans.scope("fleet.construct");
        st.fleet = std::make_unique<fleet::Fleet>(fc, *st.ts);
    }
}

/** Sends @p n requests with payloads from the generator, the next
 * arriving at @p arrival() on the virtual timeline. */
template <typename Arrival>
void
sendRequests(Stack &st, int n, SpanLog &spans, std::uint64_t first_id,
             Arrival arrival)
{
    std::vector<std::int8_t> payload;
    for (int i = 0; i < n; ++i) {
        const double t = arrival();
        {
            auto s = spans.scope("fleet.advance");
            st.fleet->advanceTo(t);
        }
        st.gen->fillPayload(payload);
        {
            auto s = spans.scope("fleet.submit",
                                 first_id + static_cast<std::uint64_t>(i));
            st.fleet->submit(payload, t, t + st.deadlineSlackSec);
        }
        st.lastArrivalSec = t;
    }
}

/** @return the saturating elementwise sum (the all-reduce golden). */
tsp::ref::QTensor
golden(const std::vector<std::int8_t> &input)
{
    const std::size_t lanes = input.size() / kChipsPerPod;
    tsp::ref::QTensor acc(1, 1, static_cast<int>(lanes));
    std::copy(input.begin(), input.begin() + static_cast<long>(lanes),
              acc.data.begin());
    for (int c = 1; c < kChipsPerPod; ++c) {
        tsp::ref::QTensor v(1, 1, static_cast<int>(lanes));
        std::copy(input.begin() + static_cast<long>(c * lanes),
                  input.begin() + static_cast<long>((c + 1) * lanes),
                  v.data.begin());
        acc = tsp::ref::residualAdd(acc, v, 1.0f, 1.0f, false);
    }
    return acc;
}

/** What the run's soaks resolved, summed over them. */
struct Tally
{
    std::uint64_t failedMc = 0;
    std::uint64_t retries = 0;
    std::uint64_t machineChecks = 0;
    std::uint64_t corrected = 0;
    std::uint64_t shed = 0;
    tsp::Cycle poolCycles = 0;
    int podsLaunched = 0;
    int maxPods = 0;
    EngineCounters engine;
    std::uint64_t outputs = tsp::kFnv1aBasis;
    std::uint64_t series = tsp::kFnv1aBasis;
    /** Each soak's served-latency quantiles, virtual us. */
    std::vector<double> p50, p99;
};

/** Adds the outcomes of the drained soak @p st to @p rep and @p t. */
void
tally(Stack &st, Report &rep, Tally &t)
{
    fleet::Fleet &f = *st.fleet;
    for (int i = 0; i < f.podsLaunched(); ++i) {
        const serve::InferenceServer &srv = f.podServer(i);
        const serve::ServerMetrics m = srv.metricsSnapshot();
        const auto &c = m.counters();
        rep.predictionMismatches += m.predictionMismatches();
        t.failedMc += c.get("failed_machine_check");
        rep.failed += c.get("failed") + c.get("failed_machine_check") +
                      c.get("deadline_missed") + c.get("rejected_invalid");
        rep.refused += c.get("rejected_deadline") +
                       c.get("rejected_queue_full");
        t.retries += c.get("retries");
        t.machineChecks += c.get("machine_checks");
        t.corrected += c.get("ecc_corrected");
        t.poolCycles += srv.totalChipCycles();
    }
    rep.refused += f.shedCount();
    t.shed += f.shedCount();
    t.podsLaunched += f.podsLaunched();
    t.maxPods = std::max(t.maxPods, f.podsLaunched());
    rep.attempted += st.ts->totalSubmitted();
    rep.served += st.ts->totalServed();
    for (const ProbeBackend *e : st.engines) {
        t.engine.energyJ += e->totals().energyJ;
        t.engine.c2cSent += e->totals().c2cSent;
        for (const SampleDigest &s : e->samples())
            t.outputs = fold(t.outputs, s.output);
    }

    tsp::JsonWriter j;
    st.ts->appendJson(j);
    const std::string series = j.str();
    t.series = tsp::fnv1a64(series.data(), series.size(), t.series);
    // The soak's served-latency quantiles from the time series.
    auto field = [&](const char *key) {
        const std::string k = std::string("\"") + key + "\":";
        const std::size_t lat = series.find("\"latency_us\":");
        const std::size_t at = series.find(k, lat);
        return at == std::string::npos || lat == std::string::npos
                   ? 0.0
                   : std::stod(series.substr(at + k.size()));
    };
    t.p50.push_back(field("p50"));
    t.p99.push_back(field("p99"));
}

/**
 * Checks every output the soak's engines read against the golden of
 * its input. The engines kept digests only, so this regenerates every
 * payload the soak was sent (the generator's payload stream is
 * independent of its arrival stream) and checks each digest pair.
 */
void
checkOutputs(const Stack &st, int requests, Report &rep)
{
    fleet::LoadGenerator regen(st.gen->config());
    std::unordered_map<std::uint64_t, std::uint64_t> want;
    std::vector<std::int8_t> payload;
    for (int i = 0; i < requests; ++i) {
        regen.fillPayload(payload);
        const tsp::ref::QTensor g = golden(payload);
        want[tsp::fnv1a64(payload.data(), payload.size())] =
            tsp::fnv1a64(g.data.data(), g.data.size());
    }
    std::uint64_t read = 0;
    for (const ProbeBackend *e : st.engines) {
        for (const SampleDigest &s : e->samples()) {
            ++read;
            ++rep.outputsChecked;
            const auto it = want.find(s.input);
            if (it == want.end() || it->second != s.output)
                ++rep.outputMismatches;
        }
    }
    if (read < st.ts->totalServed())
        rep.fail("fewer outputs read than requests served");
}

} // namespace

void
runFleetSoak(const RunParams &p, SpanLog &spans, Report &rep)
{
    const int n = p.seconds * kTimedPerSecond;
    const std::uint64_t per_soak = kColdRequests + n;
    Tally t;
    // Every engine's completions in the soaks' timed phases.
    std::vector<Completion> pool;
    std::int64_t timed_ns = 0;
    std::int64_t check_ns = 0;
    // The last soak's timed phase, for the traced run's span metrics.
    std::int64_t last_t0 = 0, last_t1 = 0;
    int last_pods = 0;
    for (int k = 0; k < kSoaks; ++k) {
        const std::uint64_t seed = tsp::seedMix(
            tsp::seedMix(p.seed) + static_cast<std::uint64_t>(k));
        const std::uint64_t first_id = 1 + k * per_soak;
        auto st = std::make_unique<Stack>();
        const std::int64_t s0 = nowNs();
        {
            auto s = spans.scope("bench.setup");
            setUp(*st, seed, spans);
        }
        const std::int64_t c0 = nowNs();
        {
            // The cold pass arrives evenly at a light load, so pod 0
            // serves all of it (ties route to the lowest id) and no
            // pod is launched: the same host work for every seed.
            auto s = spans.scope("bench.cold");
            sendRequests(*st, kColdRequests, spans, first_id, [&st] {
                return st->lastArrivalSec + st->coldGapSec;
            });
            st->fleet->drainAll();
        }
        rep.firstReqMs.push_back(secondsSince(c0) * 1e3);
        rep.setupS.push_back(secondsSince(s0));

        // --- Timed phase. ---
        const std::int64_t t0 = nowNs();
        const double start = st->lastArrivalSec;
        sendRequests(*st, n, spans, first_id + kColdRequests,
                     [&st, start] {
                         return start + st->gen->nextArrivalSec();
                     });
        {
            // Let the autoscaler see the arrival stream end, as
            // runSoak does, then wait for every booked request.
            auto s = spans.scope("fleet.drain");
            st->fleet->advanceTo(st->lastArrivalSec + 8 * kWindowSec);
            st->fleet->drainAll();
        }
        const std::int64_t t1 = nowNs();
        timed_ns += t1 - t0;
        last_t0 = t0;
        last_t1 = t1;
        last_pods = st->fleet->podsLaunched();
        for (const ProbeBackend *e : st->engines) {
            for (const Completion &c : e->completions()) {
                if (c.atNs >= t0)
                    pool.push_back(c);
            }
        }

        tally(*st, rep, t);
        if (!spans.enabled()) {
            const std::int64_t g0 = nowNs();
            checkOutputs(*st, static_cast<int>(per_soak), rep);
            check_ns += nowNs() - g0;
        }
    }

    rep.hostRps = static_cast<double>(kSoaks) * n /
                  (static_cast<double>(timed_ns) * 1e-9);
    // Engine CPU time per request. Completion rates would not do: how
    // busy a pod is depends on the share of the load the seed's bursts
    // route to it.
    rep.reqMs = chunkMsPerRequest(std::move(pool), 0);

    rep.servedShare = static_cast<double>(rep.served) /
                      static_cast<double>(rep.attempted);
    rep.chipCycles = static_cast<double>(t.poolCycles) /
                     static_cast<double>(rep.served);
    rep.energyUj = t.engine.energyJ * 1e6 / static_cast<double>(rep.served);
    rep.virtUsP50 = median(t.p50);
    rep.virtUsP99 = median(t.p99);
    rep.digests["timeseries"] = hex(t.series);
    rep.digests["outputs"] = hex(t.outputs);

    rep.layers["fleet.pods_launched"] = t.podsLaunched;
    rep.layers["fleet.shed"] = static_cast<double>(t.shed);
    rep.layers["serve.retries"] = static_cast<double>(t.retries);
    rep.layers["mem.ecc_corrected"] = static_cast<double>(t.corrected);
    rep.layers["mem.machine_checks"] = static_cast<double>(t.machineChecks);
    rep.layers["c2c.sent"] = static_cast<double>(t.engine.c2cSent);
    rep.layers["serve.rejected_deadline"] =
        static_cast<double>(rep.refused - t.shed);
    if (spans.enabled()) {
        rep.layers["fleet.submit_us.p50"] =
            median(spans.durationsMs("fleet.submit", last_t0, last_t1)) *
            1e3;
        rep.layers["fleet.advance_us.p50"] =
            median(spans.durationsMs("fleet.advance", last_t0, last_t1)) *
            1e3;
        rep.layers["fleet.submit_busy_share"] =
            spans.totalMs("fleet.submit", last_t0, last_t1) * 1e6 /
            static_cast<double>(last_t1 - last_t0);
        addSpanLayers(spans, last_t0, last_t1, last_pods, rep);
    } else {
        rep.notes["ref.check_ms"] = static_cast<double>(check_ns) * 1e-6;
    }
    rep.notes["threads"] = t.maxPods + 1;
    rep.notes["failed_machine_check"] = static_cast<double>(t.failedMc);
    std::printf("fleet-soak: %d soaks, %llu requests: %llu served, %llu "
                "shed, %llu rejected, %llu failed on machine checks; %d "
                "pods launched; %llu machine checks, %llu retries, %llu "
                "ECC corrections\n",
                kSoaks, static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.served),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(rep.refused - t.shed),
                static_cast<unsigned long long>(t.failedMc),
                t.podsLaunched,
                static_cast<unsigned long long>(t.machineChecks),
                static_cast<unsigned long long>(t.retries),
                static_cast<unsigned long long>(t.corrected));
}

} // namespace perfbench
