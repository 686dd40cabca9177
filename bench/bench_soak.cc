/**
 * @file
 * E21: fleet-scale soak — deterministic load generation, pod
 * autoscaling and exact load shedding over the serving layer.
 *
 * The paper's determinism claim (Eq. 4, IV.F, V.c) scales past one
 * server: because every pod's admission controller knows the exact
 * cycle count of every compiled program, a fleet controller can (a)
 * route each request to the pod with the provably earliest
 * completion, (b) shed a request the moment no pod can meet its
 * deadline — spending zero chip cycles on provable losers — and (c)
 * autoscale on the *booked* virtual backlog instead of measured wall
 * time. This bench runs two identical-seed soaks with background
 * fault injection live and asserts the entire windowed time series —
 * goodput, availability, shed counts, p50/p99 trajectories, scale
 * events — is byte-identical; then a bursty-load run demonstrates
 * the autoscaler launching and retiring pods. Emits BENCH_soak.json
 * (the second copy of the determinism pair).
 */

#include <cstdlib>
#include <string>

#include "bench_util.hh"
#include "fleet/soak.hh"

namespace tsp {
namespace {

fleet::SoakConfig
baseConfig()
{
    fleet::SoakConfig cfg;
    cfg.seed = 17;
    cfg.chipsPerPod = 2;
    cfg.wireLatency = 17;
    cfg.workersPerPod = 2;
    cfg.initialPods = 2;
    cfg.durationSec = 3.0;
    cfg.windowSec = 0.25;
    cfg.load.model = fleet::ArrivalModel::Poisson;
    cfg.load.rateRps = 20000.0;
    cfg.deadlineSlackSec = 4e-6;
    cfg.fault.memReadRate = 5e-5;
    cfg.fault.memWriteRate = 5e-5;
    cfg.fault.streamRate = 5e-5;
    cfg.fault.c2cRate = 5e-5;
    cfg.fault.doubleBitFraction = 0.2;
    cfg.autoscaler.minPods = 1;
    cfg.autoscaler.maxPods = 4;
    cfg.autoscaler.provisionSec = 0.5;
    return cfg;
}

int
run()
{
    bench::banner(
        "E21: fleet soak — deterministic load, autoscaling, "
        "exact shedding",
        "IV.F/V.c: compile-time-exact cycle counts lift admission "
        "control to fleet-level routing, shedding and scaling");

    // Part 1: same seed twice, faults live -> byte-identical series.
    const fleet::SoakConfig cfg = baseConfig();
    std::printf("running soak twice (seed %llu, faults live)...\n",
                static_cast<unsigned long long>(cfg.seed));
    const fleet::SoakReport a = fleet::runSoak(cfg);
    const fleet::SoakReport b = fleet::runSoak(cfg);
    const bool identical = a.json == b.json;
    std::printf("  run A: %llu submitted, %llu served, %llu shed, "
                "%llu machine checks\n",
                static_cast<unsigned long long>(a.submitted),
                static_cast<unsigned long long>(a.served),
                static_cast<unsigned long long>(a.shed),
                static_cast<unsigned long long>(a.machineChecks));
    std::printf("  run B: %llu submitted, %llu served, %llu shed, "
                "%llu machine checks\n",
                static_cast<unsigned long long>(b.submitted),
                static_cast<unsigned long long>(b.served),
                static_cast<unsigned long long>(b.shed),
                static_cast<unsigned long long>(b.machineChecks));
    std::printf("  time series byte-identical: %s\n",
                identical ? "yes" : "NO");

    // Part 2: bursty load against a slow collective (long C2C wire
    // -> ~200 us/request -> ~10k rps per pod) so bursts genuinely
    // exceed capacity: booked backlog and sheds drive the autoscaler
    // up, and the quiet base-rate tail drains it back down.
    fleet::SoakConfig burst = baseConfig();
    burst.seed = 23;
    burst.wireLatency = 100000;
    burst.load.model = fleet::ArrivalModel::Bursty;
    burst.load.rateRps = 8000.0;
    burst.load.burstFactor = 6.0;
    burst.load.burstFraction = 0.15;
    burst.load.meanBurstSec = 0.3;
    burst.deadlineSlackSec = 2e-3;
    burst.initialPods = 1;
    burst.autoscaler.scaleUpBacklogSec = 0.01;
    burst.autoscaler.scaleDownBacklogSec = 1e-3;
    burst.autoscaler.upWindows = 1;
    burst.autoscaler.downWindows = 4;
    burst.autoscaler.provisionSec = 0.25;
    const fleet::SoakReport c = fleet::runSoak(burst);
    std::printf("bursty autoscale run: pods launched %d, retired "
                "%d, availability %.6f\n",
                c.podsLaunched, c.podsRetired, c.availability);
    const bool scaled = c.podsLaunched > burst.initialPods;

    const bool ok = identical && scaled && a.submitted > 0 &&
                    a.availability > 0.9;
    std::printf("\nresult: %s\n", ok ? "PASS" : "FAIL");

    writeJsonFile("BENCH_soak.json", a.json);
    std::printf("wrote BENCH_soak.json\n");
    bench::footer();
    return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

} // namespace
} // namespace tsp

int
main()
{
    return tsp::run();
}
