/**
 * @file
 * Fleet controller and soak-driver behavior: the autoscaler's
 * hysteresis state machine, deterministic soak time series (byte-
 * identical JSON across same-seed runs, faults live), exact
 * fleet-level shedding, pod draining semantics, and the windowed
 * time-series bookkeeping.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fleet/autoscaler.hh"
#include "fleet/fleet.hh"
#include "fleet/soak.hh"
#include "serve/backend.hh"

namespace tsp {
namespace {

using fleet::Autoscaler;
using fleet::AutoscalerConfig;
using fleet::AutoscalerSignal;
using fleet::Fleet;
using fleet::FleetConfig;
using fleet::PodState;
using fleet::ScaleDecision;
using fleet::SoakTimeSeries;

// ---------------------------------------------------------------
// Autoscaler state machine (pure unit tests).
// ---------------------------------------------------------------

AutoscalerConfig
scalerConfig()
{
    AutoscalerConfig cfg;
    cfg.minPods = 1;
    cfg.maxPods = 4;
    cfg.scaleUpBacklogSec = 1.0;
    cfg.scaleDownBacklogSec = 0.1;
    cfg.scaleUpShedFrac = 0.01;
    cfg.upWindows = 2;
    cfg.downWindows = 3;
    return cfg;
}

TEST(Autoscaler, UpNeedsConsecutivePressuredWindows)
{
    Autoscaler s(scalerConfig());
    const AutoscalerSignal hot{2.0, 0.0};
    const AutoscalerSignal quiet{0.5, 0.0};
    EXPECT_EQ(s.evaluate(hot, 1, 0), ScaleDecision::Hold);
    // A calm window resets the streak.
    EXPECT_EQ(s.evaluate(quiet, 1, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(hot, 1, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(hot, 1, 0), ScaleDecision::Up);
    // The decision itself resets the streak (cooldown).
    EXPECT_EQ(s.evaluate(hot, 2, 0), ScaleDecision::Hold);
}

TEST(Autoscaler, ShedFractionAlonePressures)
{
    Autoscaler s(scalerConfig());
    const AutoscalerSignal shedding{0.0, 0.5};
    EXPECT_EQ(s.evaluate(shedding, 1, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(shedding, 1, 0), ScaleDecision::Up);
}

TEST(Autoscaler, DownNeedsIdleStreakAndRespectsFloor)
{
    Autoscaler s(scalerConfig());
    const AutoscalerSignal idle{0.0, 0.0};
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Down);
    // At the floor no drain is ever issued.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(s.evaluate(idle, 1, 0), ScaleDecision::Hold);
}

TEST(Autoscaler, CeilingAndProvisioningBlockScaling)
{
    Autoscaler s(scalerConfig());
    const AutoscalerSignal hot{5.0, 0.2};
    // At max pods (counting in-flight launches), never scale up.
    EXPECT_EQ(s.evaluate(hot, 3, 1), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(hot, 3, 1), ScaleDecision::Hold);
    // A pod in provisioning also blocks a drain decision.
    Autoscaler s2(scalerConfig());
    const AutoscalerSignal idle{0.0, 0.0};
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(s2.evaluate(idle, 2, 1), ScaleDecision::Hold);
}

TEST(Autoscaler, MidSignalHoldsAndResetsDownStreak)
{
    Autoscaler s(scalerConfig());
    const AutoscalerSignal idle{0.0, 0.0};
    const AutoscalerSignal mid{0.5, 0.0}; // Neither hot nor idle.
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(mid, 2, 0), ScaleDecision::Hold);
    // The mid window broke the idle streak: two more needed.
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Hold);
    EXPECT_EQ(s.evaluate(idle, 2, 0), ScaleDecision::Down);
}

// ---------------------------------------------------------------
// Fleet controller over real pod backends.
// ---------------------------------------------------------------

constexpr int kChips = 2;
constexpr Cycle kWire = 17;

FleetConfig
fleetConfig(int pods)
{
    ChipConfig chip;
    FleetConfig fc;
    fc.initialPods = pods;
    fc.cyclesByBatch = serve::PodBackend::serviceCyclesTable(
        kChips, kWire, chip, 1);
    fc.makeBackend = [chip](int, int) {
        return std::make_unique<serve::PodBackend>(kChips, kWire,
                                                   chip, 1);
    };
    fc.windowSec = 0.001;
    fc.server.workers = 1;
    return fc;
}

std::vector<std::int8_t>
podInput()
{
    return std::vector<std::int8_t>(
        serve::PodBackend::inputBytes(kChips), 1);
}

TEST(Fleet, ShedsProvablyLateRequestZeroCycles)
{
    SoakTimeSeries ts(0.001, 1e-3);
    FleetConfig fc = fleetConfig(1);
    const double service =
        static_cast<double>(fc.cyclesByBatch[0]) * 1e-9;
    Fleet fleet(fc, ts);

    // Deadline equal to the arrival stamp: completion is provably
    // at least arrival + service, so the fleet must shed without
    // booking a cycle anywhere.
    fleet.submit(podInput(), 1e-6, 1e-6);
    EXPECT_EQ(fleet.shedCount(), 1u);
    EXPECT_EQ(ts.totalShed(), 1u);
    EXPECT_EQ(fleet.totalBacklogSec(0.0), 0.0);

    // A zero deadline means "no deadline": never shed, always
    // served.
    fleet.submit(podInput(), 2e-6, 0.0);
    // And a feasible deadline routes normally.
    fleet.submit(podInput(), 3e-6, 3e-6 + 4.0 * service);
    fleet.drainAll();
    EXPECT_EQ(fleet.shedCount(), 1u);
    EXPECT_EQ(ts.totalServed(), 2u);
    EXPECT_EQ(ts.totalSubmitted(), 3u);
}

TEST(Fleet, RoutesToEarliestCompletionPod)
{
    SoakTimeSeries ts(0.001, 1e-3);
    FleetConfig fc = fleetConfig(2);
    const double service =
        static_cast<double>(fc.cyclesByBatch[0]) * 1e-9;
    Fleet fleet(fc, ts);

    // Same arrival stamp: the second submit must land on the other
    // (idle) pod, because pod 0 is already booked through
    // arrival + service.
    fleet.submit(podInput(), 1e-6, 0.0);
    fleet.submit(podInput(), 1e-6, 0.0);
    EXPECT_GT(fleet.podServer(0).admission().backlogSec(1e-6), 0.0);
    EXPECT_GT(fleet.podServer(1).admission().backlogSec(1e-6), 0.0);
    EXPECT_NEAR(fleet.totalBacklogSec(1e-6), 2.0 * service,
                service * 0.01);
    fleet.drainAll();
    EXPECT_EQ(ts.totalServed(), 2u);
}

TEST(Fleet, DrainedPodStopsRoutingAndRetires)
{
    SoakTimeSeries ts(0.01, 1e-3);
    FleetConfig fc = fleetConfig(2);
    fc.windowSec = 0.01;
    fc.autoscaler.minPods = 1;
    fc.autoscaler.maxPods = 2;
    fc.autoscaler.downWindows = 1;
    fc.autoscaler.scaleUpBacklogSec = 2.0;
    fc.autoscaler.scaleDownBacklogSec = 1.0; // Everything is idle.
    Fleet fleet(fc, ts);
    EXPECT_EQ(fleet.activePods(), 2);

    // Crossing one idle window boundary must start a drain; the
    // drained pod's booking is empty so it retires at the same
    // boundary.
    fleet.advanceTo(0.011);
    EXPECT_EQ(fleet.activePods(), 1);
    EXPECT_EQ(fleet.podsRetired(), 1);

    // All subsequent traffic lands on the surviving pod.
    const auto &survivor = fleet.podInfo(0).state == PodState::Active
                               ? fleet.podServer(0)
                               : fleet.podServer(1);
    const auto &victim = fleet.podInfo(0).state == PodState::Active
                             ? fleet.podServer(1)
                             : fleet.podServer(0);
    for (int i = 0; i < 5; ++i)
        fleet.submit(podInput(), 0.011 + i * 1e-6, 0.0);
    fleet.drainAll();
    EXPECT_EQ(
        survivor.metricsSnapshot().counters().get("submitted"), 5u);
    EXPECT_EQ(victim.metricsSnapshot().counters().get("submitted"),
              0u);
    EXPECT_EQ(ts.totalServed(), 5u);
}

TEST(Fleet, DrainSealsOpenBatchOnVictim)
{
    // A pod with an *open* (unsealed) batch that starts draining
    // must still complete that batch: flushOpenBatch() at drain
    // start seals it without waiting for traffic that will never
    // arrive.
    SoakTimeSeries ts(0.01, 1e-3);
    ChipConfig chip;
    FleetConfig fc;
    fc.initialPods = 2;
    fc.cyclesByBatch = serve::PodBackend::serviceCyclesTable(
        kChips, kWire, chip, 4);
    fc.makeBackend = [chip](int, int) {
        return std::make_unique<serve::PodBackend>(kChips, kWire,
                                                   chip, 4);
    };
    fc.windowSec = 0.01;
    fc.server.workers = 1;
    fc.server.batchMax = 4;
    fc.server.batchWindowSec = 1.0; // Joins effectively always open.
    fc.autoscaler.downWindows = 1;
    fc.autoscaler.scaleUpBacklogSec = 2.0;
    fc.autoscaler.scaleDownBacklogSec = 1.0;
    Fleet fleet(fc, ts);

    // One request each: both pods now hold an open single-member
    // batch (batchMax 4 is never reached, window never expires).
    fleet.submit(podInput(), 1e-6, 0.0);
    fleet.submit(podInput(), 1e-6, 0.0);

    // The boundary drains one pod; its open batch must seal and
    // execute (not deadlock waiting for more members).
    fleet.advanceTo(0.011);
    EXPECT_EQ(fleet.podsRetired(), 1);
    fleet.drainAll();
    EXPECT_EQ(ts.totalServed(), 2u);
}

// ---------------------------------------------------------------
// Soak driver end to end.
// ---------------------------------------------------------------

fleet::SoakConfig
soakConfig()
{
    fleet::SoakConfig cfg;
    cfg.seed = 99;
    cfg.chipsPerPod = 2;
    cfg.wireLatency = 17;
    cfg.workersPerPod = 2;
    cfg.initialPods = 2;
    cfg.durationSec = 0.2;
    cfg.windowSec = 0.05;
    cfg.load.rateRps = 20000.0;
    cfg.deadlineSlackSec = 4e-6;
    cfg.fault.memReadRate = 1e-4;
    cfg.fault.memWriteRate = 1e-4;
    cfg.fault.streamRate = 1e-4;
    cfg.fault.c2cRate = 1e-4;
    cfg.fault.doubleBitFraction = 0.2;
    return cfg;
}

TEST(Soak, SameSeedByteIdenticalJsonWithFaultsLive)
{
    const fleet::SoakConfig cfg = soakConfig();
    const fleet::SoakReport a = fleet::runSoak(cfg);
    const fleet::SoakReport b = fleet::runSoak(cfg);
    EXPECT_GT(a.submitted, 1000u);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.machineChecks, b.machineChecks);
}

TEST(Soak, DifferentSeedsProduceDifferentRuns)
{
    fleet::SoakConfig cfg = soakConfig();
    const fleet::SoakReport a = fleet::runSoak(cfg);
    cfg.seed = 100;
    const fleet::SoakReport b = fleet::runSoak(cfg);
    EXPECT_NE(a.json, b.json);
}

TEST(Soak, AccountsEveryRequestExactlyOnce)
{
    // Fault-free run: every submission is either served or shed, so
    // the time series must balance exactly (nothing lost, nothing
    // double-counted). With faults live a retried batch can also
    // land DeadlineMissed/FailedMachineCheck, so the balance is
    // checked without injection.
    fleet::SoakConfig cfg = soakConfig();
    cfg.fault = FaultConfig{};
    const fleet::SoakReport rep = fleet::runSoak(cfg);
    EXPECT_GT(rep.submitted, 1000u);
    EXPECT_EQ(rep.submitted, rep.served + rep.shed);
    EXPECT_GE(rep.availability, 0.9);
}

TEST(Soak, RequestCapStopsTheRun)
{
    fleet::SoakConfig cfg = soakConfig();
    cfg.maxRequests = 500;
    cfg.durationSec = 100.0;
    const fleet::SoakReport rep = fleet::runSoak(cfg);
    EXPECT_EQ(rep.submitted, 500u);
}

// ---------------------------------------------------------------
// Windowed quantile edge cases.
// ---------------------------------------------------------------

TEST(TimeSeries, EmptyWindowQuantilesEmitSentinelNotZero)
{
    // Regression: a window that served nothing used to emit 0.0 in
    // the p50/p99 series — indistinguishable from a legitimately
    // tiny quantile, and read by dashboards as "infinitely fast".
    // The sentinel is -1, a value no real latency can take.
    SoakTimeSeries ts(0.001, 1e-3);
    serve::Result r;
    r.outcome = serve::Outcome::Served;
    r.arrivalSec = 0.0025; // Window 2; windows 0 and 1 stay empty.
    r.startSec = r.arrivalSec;
    r.completionSec = r.arrivalSec + 123e-6;
    ts.recordResult(r);
    ASSERT_EQ(ts.windowCount(), 3u);

    JsonWriter j;
    ts.appendJson(j);
    const std::string json = j.str();
    EXPECT_NE(json.find("\"p50_us\":[-1,-1,"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"p99_us\":[-1,-1,"), std::string::npos)
        << json;
    // The populated window still reports its real quantile.
    EXPECT_EQ(json.find("\"p50_us\":[-1,-1,-1"), std::string::npos)
        << json;
}

TEST(TimeSeries, SingleSampleWindowQuantileIsTheSample)
{
    // One served request in a window: every quantile of a
    // single-sample population is that sample, exactly — the
    // histogram's bucket-midpoint estimate must clamp to the
    // observed range rather than leak bucket geometry.
    SoakTimeSeries ts(0.001, 1e-3);
    serve::Result r;
    r.outcome = serve::Outcome::Served;
    r.arrivalSec = 0.0001;
    r.startSec = r.arrivalSec;
    r.completionSec = r.arrivalSec + 437e-6;
    ts.recordResult(r);

    JsonWriter j;
    ts.appendJson(j);
    const std::string json = j.str();
    const auto p50 = json.find("\"p50_us\":[437");
    const auto p99 = json.find("\"p99_us\":[437");
    EXPECT_NE(p50, std::string::npos) << json;
    EXPECT_NE(p99, std::string::npos) << json;

    // Two identical emissions are byte-identical (determinism).
    JsonWriter j2;
    ts.appendJson(j2);
    EXPECT_EQ(json, j2.str());
}

TEST(TimeSeries, MeanLatencyResolvesSubMicrosecondSamples)
{
    // Regression: the whole-run mean was summed on the histogram's
    // ~1 us fixed-point grid, so every sub-microsecond latency
    // rounded to 0 and 1,000 samples of 0.45 us reported a mean of 0.
    SoakTimeSeries ts(1.0, 10e-6);
    for (int i = 0; i < 1000; ++i) {
        serve::Result r;
        r.outcome = serve::Outcome::Served;
        r.arrivalSec = static_cast<double>(i) * 1e-4;
        r.startSec = r.arrivalSec;
        r.completionSec = r.arrivalSec + 0.45e-6;
        ts.recordResult(r);
    }
    JsonWriter j;
    ts.appendJson(j);
    const std::string json = j.str();
    const auto at = json.find("\"mean\":");
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_NEAR(std::stod(json.substr(at + 7)), 0.45, 1e-3) << json;
}

TEST(TimeSeries, ZeroAndSingleSampleHistogramQuantiles)
{
    // The underlying primitives the series relies on.
    Histogram h(0.0, 1e-3, 64);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0); // Defined, deterministic.
    h.record(437e-6);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.quantile(0.0), 437e-6);
    EXPECT_EQ(h.quantile(0.5), 437e-6);
    EXPECT_EQ(h.quantile(0.99), 437e-6);
    EXPECT_EQ(h.quantile(1.0), 437e-6);
}

} // namespace
} // namespace tsp
