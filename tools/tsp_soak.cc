/**
 * @file
 * tsp-soak: fleet-scale soak driver over the deterministic serving
 * layer — millions of simulated requests against an autoscaled fleet
 * of pod-collective serving tiers, with live fault injection and a
 * windowed time series written as BENCH_soak.json.
 *
 *   tsp-soak [options]
 *     --pods N            initial pods                  (default 2)
 *     --min-pods N        autoscaler floor              (default 1)
 *     --max-pods N        autoscaler ceiling            (default 8)
 *     --chips N           chips per pod ring            (default 2)
 *     --wire N            C2C wire latency, cycles      (default 17)
 *     --workers N         engines per pod               (default 2)
 *     --duration S        simulated seconds of arrivals (default 60)
 *     --requests N        stop after N requests; 0 = duration-bound
 *                                                       (default 0)
 *     --rate R            arrivals per simulated second; 0 derives
 *                         the rate from --rho            (default 0)
 *     --rho R             offered load vs initial-fleet capacity,
 *                         used when --rate is 0          (default 1.2)
 *     --arrivals M        poisson | bursty | diurnal    (default poisson)
 *     --burst-factor F    bursty: burst rate multiplier (default 4)
 *     --burst-frac F      bursty: time fraction in burst (default 0.1)
 *     --burst-sec S       bursty: mean burst length, sim s (default 0.25)
 *     --diurnal-amp A     diurnal: modulation depth     (default 0.5)
 *     --diurnal-period S  diurnal: sine period, sim s   (default 20)
 *     --slack S           deadline = arrival + S * service; 0 = none
 *                                                       (default 0)
 *     --batch-max N       submit-time batching cap      (default 1)
 *     --batch-window-us U batch join window             (default 0)
 *     --window S          observation window, sim s     (default 1)
 *     --up-backlog S      scale-up backlog/pod threshold (default 0.5)
 *     --down-backlog S    scale-down backlog/pod threshold
 *                                                       (default 0.05)
 *     --up-windows N      pressured windows before scale-up (default 2)
 *     --down-windows N    idle windows before drain     (default 5)
 *     --provision S       pod provisioning delay, sim s (default 2)
 *     --fault-rate R      per-access upset rate (MEM r/w, streams,
 *                         C2C)                          (default 0)
 *     --fault-double F    double-bit (uncorrectable) fraction
 *                                                       (default 0)
 *     --retries N         machine-check retry budget    (default 2)
 *     --seed S            base seed (load + payloads + faults)
 *                                                       (default 1)
 *     --json FILE         output path        (default BENCH_soak.json)
 *     --min-availability A  exit 1 if served/submitted < A
 *                                                       (default 0)
 *
 * Numeric values must parse whole and fit their type; anything else
 * prints usage and exits 2.
 *
 * Two runs with the same flags produce byte-identical JSON: every
 * quantity in the document is virtual-time arithmetic.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.hh"
#include "fleet/soak.hh"
#include "serve/backend.hh"

#include "cli_args.hh"

using namespace tsp;
using cli::badArg;
using cli::intArg;
using cli::longArg;
using cli::realArg;

void
tsp::cli::usage()
{
    std::fprintf(
        stderr,
        "usage: tsp-soak [--pods N] [--min-pods N] [--max-pods N]\n"
        "  [--chips N] [--wire N] [--workers N] [--duration S]\n"
        "  [--requests N] [--rate R | --rho R]\n"
        "  [--arrivals poisson|bursty|diurnal]\n"
        "  [--burst-factor F] [--burst-frac F] [--burst-sec S]\n"
        "  [--diurnal-amp A] [--diurnal-period S] [--slack S]\n"
        "  [--batch-max N] [--batch-window-us U] [--window S]\n"
        "  [--up-backlog S] [--down-backlog S] [--up-windows N]\n"
        "  [--down-windows N] [--provision S] [--fault-rate R]\n"
        "  [--fault-double F] [--retries N] [--seed S]\n"
        "  [--json FILE] [--min-availability A]\n");
}

int
main(int argc, char **argv)
{
    fleet::SoakConfig cfg;
    cfg.chipsPerPod = 2;
    long wire = 17;
    long requests = 0;
    double rate = 0.0;
    double rho = 1.2;
    double slack_services = 0.0;
    double min_availability = 0.0;
    const char *json_path = "BENCH_soak.json";

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                badArg();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--pods")) {
            cfg.initialPods = intArg(next());
        } else if (!std::strcmp(argv[i], "--min-pods")) {
            cfg.autoscaler.minPods = intArg(next());
        } else if (!std::strcmp(argv[i], "--max-pods")) {
            cfg.autoscaler.maxPods = intArg(next());
        } else if (!std::strcmp(argv[i], "--chips")) {
            cfg.chipsPerPod = intArg(next());
        } else if (!std::strcmp(argv[i], "--wire")) {
            wire = longArg(next());
        } else if (!std::strcmp(argv[i], "--workers")) {
            cfg.workersPerPod = intArg(next());
        } else if (!std::strcmp(argv[i], "--duration")) {
            cfg.durationSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--requests")) {
            requests = longArg(next());
        } else if (!std::strcmp(argv[i], "--rate")) {
            rate = realArg(next());
        } else if (!std::strcmp(argv[i], "--rho")) {
            rho = realArg(next());
        } else if (!std::strcmp(argv[i], "--arrivals")) {
            const char *m = next();
            if (!std::strcmp(m, "poisson")) {
                cfg.load.model = fleet::ArrivalModel::Poisson;
            } else if (!std::strcmp(m, "bursty")) {
                cfg.load.model = fleet::ArrivalModel::Bursty;
            } else if (!std::strcmp(m, "diurnal")) {
                cfg.load.model = fleet::ArrivalModel::Diurnal;
            } else {
                badArg();
            }
        } else if (!std::strcmp(argv[i], "--burst-factor")) {
            cfg.load.burstFactor = realArg(next());
        } else if (!std::strcmp(argv[i], "--burst-frac")) {
            cfg.load.burstFraction = realArg(next());
        } else if (!std::strcmp(argv[i], "--burst-sec")) {
            cfg.load.meanBurstSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--diurnal-amp")) {
            cfg.load.diurnalAmplitude = realArg(next());
        } else if (!std::strcmp(argv[i], "--diurnal-period")) {
            cfg.load.diurnalPeriodSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--slack")) {
            slack_services = realArg(next());
        } else if (!std::strcmp(argv[i], "--batch-max")) {
            cfg.batchMax = intArg(next());
        } else if (!std::strcmp(argv[i], "--batch-window-us")) {
            cfg.batchWindowSec = realArg(next()) * 1e-6;
        } else if (!std::strcmp(argv[i], "--window")) {
            cfg.windowSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--up-backlog")) {
            cfg.autoscaler.scaleUpBacklogSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--down-backlog")) {
            cfg.autoscaler.scaleDownBacklogSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--up-windows")) {
            cfg.autoscaler.upWindows = intArg(next());
        } else if (!std::strcmp(argv[i], "--down-windows")) {
            cfg.autoscaler.downWindows = intArg(next());
        } else if (!std::strcmp(argv[i], "--provision")) {
            cfg.autoscaler.provisionSec = realArg(next());
        } else if (!std::strcmp(argv[i], "--fault-rate")) {
            const double r = realArg(next());
            cfg.fault.memReadRate = r;
            cfg.fault.memWriteRate = r;
            cfg.fault.streamRate = r;
            cfg.fault.c2cRate = r;
        } else if (!std::strcmp(argv[i], "--fault-double")) {
            cfg.fault.doubleBitFraction = realArg(next());
        } else if (!std::strcmp(argv[i], "--retries")) {
            cfg.maxRetries = intArg(next());
        } else if (!std::strcmp(argv[i], "--seed")) {
            cfg.seed = static_cast<std::uint64_t>(longArg(next()));
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next();
        } else if (!std::strcmp(argv[i], "--min-availability")) {
            min_availability = realArg(next());
        } else {
            badArg();
        }
    }

    if (cfg.initialPods < 1 || cfg.chipsPerPod < 2 ||
        cfg.workersPerPod < 1 || cfg.durationSec <= 0.0 ||
        cfg.windowSec <= 0.0 || rho <= 0.0 || rate < 0.0 ||
        slack_services < 0.0 || cfg.batchMax < 1 ||
        cfg.batchWindowSec < 0.0 || wire < 0 || requests < 0 ||
        cfg.maxRetries < 0 || cfg.fault.memReadRate < 0.0 ||
        cfg.fault.memReadRate > 1.0 ||
        cfg.fault.doubleBitFraction < 0.0 ||
        cfg.fault.doubleBitFraction > 1.0)
        badArg();
    cfg.wireLatency = static_cast<Cycle>(wire);
    cfg.maxRequests = static_cast<std::uint64_t>(requests);

    // Derive the arrival rate (and the deadline slack) from the
    // initial fleet's exact service time when requested.
    const Cycle service_cycles = serve::PodBackend::serviceCyclesTable(
        cfg.chipsPerPod, cfg.wireLatency, cfg.chip, 1)[0];
    const double service_sec = static_cast<double>(service_cycles) *
                               cfg.chip.cyclePeriodSec();
    const double capacity_rps =
        static_cast<double>(cfg.initialPods * cfg.workersPerPod) /
        service_sec;
    cfg.load.rateRps = rate > 0.0 ? rate : rho * capacity_rps;
    cfg.deadlineSlackSec = slack_services * service_sec;

    std::printf("soak: %d-chip pods, %.3f us/request exact; "
                "%d pod(s) x %d workers = %.0f rps capacity\n",
                cfg.chipsPerPod, service_sec * 1e6, cfg.initialPods,
                cfg.workersPerPod, capacity_rps);
    std::printf("load: %s arrivals at %.0f rps for %.0f sim s%s%s\n",
                fleet::arrivalModelName(cfg.load.model),
                cfg.load.rateRps, cfg.durationSec,
                cfg.maxRequests != 0 ? " (request-capped)" : "",
                cfg.deadlineSlackSec > 0.0 ? "" : ", no deadlines");
    if (cfg.fault.enabled()) {
        std::printf("faults: %.3g upsets/access, double-bit "
                    "fraction %.3g, live during the whole run\n",
                    cfg.fault.memReadRate,
                    cfg.fault.doubleBitFraction);
    }

    const fleet::SoakReport rep = fleet::runSoak(cfg);

    std::printf("\nsoak complete: %llu submitted, %llu served, "
                "%llu shed, %llu failed machine check "
                "(%llu machine checks raised)\n",
                static_cast<unsigned long long>(rep.submitted),
                static_cast<unsigned long long>(rep.served),
                static_cast<unsigned long long>(rep.shed),
                static_cast<unsigned long long>(
                    rep.failedMachineCheck),
                static_cast<unsigned long long>(rep.machineChecks));
    std::printf("availability %.6f over %zu windows; pods launched "
                "%d, retired %d\n",
                rep.availability, rep.windows, rep.podsLaunched,
                rep.podsRetired);

    if (!writeJsonFile(json_path, rep.json)) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    std::printf("wrote %s\n", json_path);

    if (rep.availability < min_availability) {
        std::fprintf(stderr,
                     "FAILED: availability %.6f below required "
                     "%.6f\n",
                     rep.availability, min_availability);
        return 1;
    }
    return 0;
}
