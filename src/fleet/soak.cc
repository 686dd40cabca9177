#include "fleet/soak.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/seed.hh"
#include "fleet/fleet.hh"
#include "fleet/timeseries.hh"
#include "serve/backend.hh"

namespace tsp::fleet {

SoakReport
runSoak(const SoakConfig &cfg)
{
    TSP_ASSERT(cfg.durationSec > 0.0);
    TSP_ASSERT(cfg.chipsPerPod >= 2);
    TSP_ASSERT(cfg.workersPerPod >= 1);

    // The builder's retire cycle per batch size is the exact cycles(b)
    // every pod books against (timing is data- and fault-independent
    // in a static schedule).
    const std::vector<Cycle> table =
        serve::PodBackend::serviceCyclesTable(
            cfg.chipsPerPod, cfg.wireLatency, cfg.chip,
            std::max(1, cfg.batchMax));

    FleetConfig fc;
    fc.initialPods = cfg.initialPods;
    fc.cyclesByBatch = table;
    fc.autoscaler = cfg.autoscaler;
    fc.windowSec = cfg.windowSec;
    fc.server.workers = cfg.workersPerPod;
    fc.server.maxRetries = cfg.maxRetries;
    fc.server.batchMax = cfg.batchMax;
    fc.server.batchWindowSec = cfg.batchWindowSec;
    fc.server.chip = cfg.chip;
    fc.makeBackend = [&cfg](int pod, int worker) {
        ChipConfig cc = cfg.chip;
        cc.fault = cfg.fault;
        // Chain: base -> pod -> worker; PodBackend derives per-chip
        // streams below that (SeedDomain::PodChip), so no two engines
        // anywhere in the fleet share a fault stream.
        cc.fault.seed = deriveSeed(
            deriveSeed(cfg.seed, SeedDomain::FleetPod,
                       static_cast<std::uint64_t>(pod)),
            SeedDomain::FleetWorker,
            static_cast<std::uint64_t>(worker));
        return std::make_unique<serve::PodBackend>(
            cfg.chipsPerPod, cfg.wireLatency, cc,
            std::max(1, cfg.batchMax));
    };

    // Latency histogram range: generous multiple of the batch-1
    // service time plus the deadline slack, so trajectories resolve
    // even under deep queueing.
    const double service_sec =
        static_cast<double>(table[0]) * cfg.chip.cyclePeriodSec();
    const double lat_hi =
        std::max(service_sec * 64.0,
                 cfg.deadlineSlackSec * 4.0 + service_sec);

    SoakTimeSeries ts(cfg.windowSec, lat_hi);

    LoadGenConfig lg = cfg.load;
    lg.seed = cfg.seed;
    lg.inputBytes = serve::PodBackend::inputBytes(cfg.chipsPerPod);
    LoadGenerator gen(lg);

    std::uint64_t submitted = 0;
    {
        Fleet fleet(fc, ts);
        std::vector<std::int8_t> payload;
        for (;;) {
            if (cfg.maxRequests != 0 &&
                submitted >= cfg.maxRequests)
                break;
            const double t = gen.nextArrivalSec();
            if (t > cfg.durationSec)
                break;
            fleet.advanceTo(t);
            gen.fillPayload(payload);
            const double deadline =
                cfg.deadlineSlackSec > 0.0
                    ? t + cfg.deadlineSlackSec
                    : 0.0;
            fleet.submit(payload, t, deadline);
            ++submitted;
        }
        // Cross the remaining boundaries (autoscaler drains trailing
        // capacity against an empty arrival stream), then wait for
        // every booked request to execute.
        fleet.advanceTo(cfg.durationSec);
        fleet.drainAll();

        SoakReport rep;
        rep.submitted = ts.totalSubmitted();
        rep.served = ts.totalServed();
        rep.shed = ts.totalShed();
        rep.availability =
            rep.submitted == 0
                ? 1.0
                : static_cast<double>(rep.served) /
                      static_cast<double>(rep.submitted);
        rep.podsLaunched = fleet.podsLaunched();
        rep.podsRetired = fleet.podsRetired();
        rep.windows = ts.windowCount();

        JsonWriter j;
        j.beginObject();
        j.key("config").beginObject();
        j.kv("seed", cfg.seed);
        j.kv("arrival_model",
             std::string(arrivalModelName(cfg.load.model)));
        j.kv("rate_rps", cfg.load.rateRps);
        j.kv("duration_sec", cfg.durationSec);
        j.kv("max_requests", cfg.maxRequests);
        j.kv("deadline_slack_us", cfg.deadlineSlackSec * 1e6);
        j.kv("chips_per_pod", cfg.chipsPerPod);
        j.kv("workers_per_pod", cfg.workersPerPod);
        j.kv("batch_max", cfg.batchMax);
        j.kv("initial_pods", cfg.initialPods);
        j.kv("min_pods", cfg.autoscaler.minPods);
        j.kv("max_pods", cfg.autoscaler.maxPods);
        j.kv("window_sec", cfg.windowSec);
        j.kv("provision_sec", cfg.autoscaler.provisionSec);
        j.kv("service_us", service_sec * 1e6);
        j.kv("clock_hz", cfg.chip.clockHz);
        j.key("fault").beginObject();
        j.kv("mem_read_rate", cfg.fault.memReadRate);
        j.kv("mem_write_rate", cfg.fault.memWriteRate);
        j.kv("stream_rate", cfg.fault.streamRate);
        j.kv("c2c_rate", cfg.fault.c2cRate);
        j.kv("double_bit_fraction", cfg.fault.doubleBitFraction);
        j.endObject();
        j.endObject();

        j.key("fleet").beginObject();
        j.kv("pods_launched", rep.podsLaunched);
        j.kv("pods_retired", rep.podsRetired);
        j.kv("shed", rep.shed);
        j.endObject();

        j.key("soak");
        ts.appendJson(j);
        j.endObject();
        rep.json = j.str();

        // Pull reliability totals out of the drained fleet's pods.
        for (int p = 0; p < fleet.podsLaunched(); ++p) {
            const serve::ServerMetrics m =
                fleet.podServer(p).metricsSnapshot();
            rep.failedMachineCheck +=
                m.counters().get("failed_machine_check");
            rep.machineChecks += m.counters().get("machine_checks");
        }
        return rep;
    }
}

} // namespace tsp::fleet
