/**
 * @file
 * Mid-batch snapshot migration in the serving layer: a condemned
 * chip's in-flight batch is restored from its last pre-fault snapshot
 * onto a rebuilt engine and resumed — completing within the original
 * deadline without burning a full retry — plus the recovery step's
 * booking: every attempt is charged what failed attempts ran plus
 * engine rebuilds and is taken only when it meets the deadline, a
 * migrated batch measures the whole program, and a machine check with
 * no usable snapshot falls back to the full retry policy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;

/** The tiny net as a one-family registry; its batch-1 program is the
 *  lowered model the tests inspect. */
struct Compiled
{
    int h = 8, w = 8, c = 4;
    Graph g;
    serve::ModelRegistry reg;
    std::shared_ptr<BatchProgram> bp;

    explicit Compiled(std::uint64_t input_seed = 7)
        : g(model::buildTinyNet(3, 8, 8, 4)),
          reg({{"tinynet", g, randomInput(input_seed)}}),
          bp(reg.acquire(0, 1))
    {
    }

    std::vector<std::int8_t>
    randomInput(std::uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<std::int8_t> data(
            static_cast<std::size_t>(h) * w * c);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        return data;
    }

    ref::QTensor
    reference(const std::vector<std::int8_t> &input) const
    {
        ref::QTensor qin(h, w, c);
        qin.data = input;
        return g.runReference(qin).at(g.outputNode());
    }

    const LoweredTensor &in() const { return bp->inputs[0]; }
    const LoweredTensor &out() const { return bp->outputs[0]; }

    /** Uncorrectable scheduled double-bit pair on the model input:
     *  wired to cycle 0, so it replays on every rebuilt engine. */
    std::vector<FaultEvent>
    poisonInputEvents() const
    {
        const GlobalAddr a = in().t.addrOf(0, 0, 0, 0);
        const int slice =
            (a.hem == Hemisphere::West ? 0 : kMemSlicesPerHem) +
            a.slice;
        return {{0, slice, a.addr, 0, 1}, {0, slice, a.addr, 0, 5}};
    }

    /** Random uncorrectable strikes; this seed condemns the first
     *  attempt well after the default snapshot cadence. */
    void
    armRandomStrikes(ServerConfig &cfg) const
    {
        cfg.chip.fault.seed = 0x5151ull;
        cfg.chip.fault.streamRate = 5e-4;
        cfg.chip.fault.doubleBitFraction = 1.0;
    }
};

TEST(ServeMigration, CondemnedBatchCompletesWithinDeadline)
{
    // maxRetries = 0: the full-retry path is forbidden outright, so
    // the only way this request can be served is the snapshot
    // migration — and it must still meet the deadline it was
    // admitted under.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.snapshotEveryCycles = m.reg.cycles(0, 1) / 8;
    m.armRandomStrikes(cfg);
    InferenceServer server(m.reg, cfg);

    const double service = server.serviceSec();
    const double deadline = 25.0 * service;
    const std::vector<std::int8_t> input = m.randomInput(1);
    auto f = server.submit(input, 0.0, deadline);
    server.drain();

    const Result r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Served);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.migrations, 1u);
    EXPECT_GE(r.machineChecks, 1u);
    EXPECT_LE(r.completionSec, deadline);
    // The burned pre-fault segments and the rebuilds are not free;
    // the reported completion must be honest about them.
    EXPECT_GT(r.completionSec, r.startSec + service);
    EXPECT_EQ(r.output.data, m.reference(input).data);

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("served"), 1u);
    EXPECT_GE(snap.counters().get("migrations"), 1u);
    EXPECT_EQ(snap.counters().get("retries"), 0u);
    EXPECT_NE(server.metricsJson().find("\"migrations\""),
              std::string::npos);
}

TEST(ServeMigration, WithoutMigrationSameFaultsFail)
{
    // Control for the test above: identical fault environment and
    // retry budget, migration off — the batch is unrecoverable.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.snapshotEveryCycles = 0;
    m.armRandomStrikes(cfg);
    InferenceServer server(m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0,
                           25.0 * server.serviceSec());
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_TRUE(r.output.data.empty());
}

TEST(ServeMigration, MigrationBurnsFewerChipCyclesThanFullRetry)
{
    // The point of migrating: resume from the last snapshot instead
    // of re-running from cycle zero. Same faults, same seed — the
    // migrating server must finish the request with strictly fewer
    // total chip cycles than the retrying server.
    Compiled m;
    const std::vector<std::int8_t> input = m.randomInput(1);

    ServerConfig mig;
    mig.workers = 1;
    mig.maxRetries = 0;
    mig.snapshotEveryCycles = m.reg.cycles(0, 1) / 8;
    m.armRandomStrikes(mig);
    InferenceServer migrate(m.reg, mig);
    auto fm = migrate.submit(input, 0.0);
    migrate.drain();
    ASSERT_EQ(fm.get().outcome, Outcome::Served);

    ServerConfig ret = mig;
    ret.maxRetries = 30; // This seed lineage needs ~25 full retries.
    ret.snapshotEveryCycles = 0;
    InferenceServer retry(m.reg, ret);
    auto fr = retry.submit(input, 0.0);
    retry.drain();
    ASSERT_EQ(fr.get().outcome, Outcome::Served);

    EXPECT_LT(migrate.totalChipCycles(), retry.totalChipCycles());
}

TEST(ServeMigration, MigrationThatMissesTheDeadlineIsNotTaken)
{
    // Every attempt is booked before it runs. A migration costs the
    // condemned attempt's cycles plus an engine rebuild (about five
    // service times), so under a deadline of 1.5 service times none
    // fits: the batch fails as a machine check instead of running
    // past its deadline.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.snapshotEveryCycles = m.reg.cycles(0, 1) / 8;
    m.armRandomStrikes(cfg);
    InferenceServer server(m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0,
                           1.5 * server.serviceSec());
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_GE(r.machineChecks, 1u);
    EXPECT_TRUE(r.output.data.empty());

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("migrations"), 0u);
    EXPECT_EQ(snap.counters().get("deadline_missed"), 0u);
    // Only the condemned first attempt ran.
    EXPECT_LE(server.totalChipCycles(), server.serviceCycles());
}

TEST(ServeMigration, NoSnapshotsWhenNoRecoveryCanMeetTheDeadline)
{
    // Any recovery books at least an engine rebuild (about five
    // service times) plus the whole program after the batch's start,
    // so under a deadline of 1.5 service times none can be taken. The
    // worker then runs the batch with no snapshot cadence: it takes
    // no snapshot and returns exactly what a server without migration
    // returns. A deadline a recovery can meet keeps the cadence.
    Compiled m;
    const std::vector<std::int8_t> input = m.randomInput(1);
    const auto serveOnce = [&](Cycle every, double deadline_services,
                               std::uint64_t *snapshots) {
        ServerConfig cfg;
        cfg.workers = 1;
        cfg.maxRetries = 0;
        cfg.snapshotEveryCycles = every;
        m.armRandomStrikes(cfg);
        serve::SessionBackend *backend = nullptr;
        InferenceServer server(
            [&](int) {
                auto b = std::make_unique<serve::SessionBackend>(
                    m.reg.acquire(0, 1), 1, cfg.chip);
                backend = b.get();
                return b;
            },
            m.reg, cfg);
        auto f = server.submit(input, 0.0,
                               deadline_services * server.serviceSec());
        server.drain();
        *snapshots = backend->session().snapshotCount();
        return std::make_pair(f.get(), server.totalChipCycles());
    };

    const Cycle every = m.reg.cycles(0, 1) / 8;
    std::uint64_t snaps = 0, plain_snaps = 0;
    const auto [r, cycles] = serveOnce(every, 1.5, &snaps);
    const auto [plain, plain_cycles] = serveOnce(0, 1.5, &plain_snaps);
    EXPECT_EQ(snaps, 0u);
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.outcome, plain.outcome);
    EXPECT_EQ(r.machineChecks, plain.machineChecks);
    EXPECT_EQ(r.correctedErrors, plain.correctedErrors);
    EXPECT_EQ(r.measuredCycles, plain.measuredCycles);
    EXPECT_EQ(r.completionSec, plain.completionSec);
    EXPECT_EQ(cycles, plain_cycles);

    const auto [served, served_cycles] = serveOnce(every, 25.0, &snaps);
    EXPECT_GT(snaps, 0u);
    EXPECT_EQ(served.outcome, Outcome::Served);
    EXPECT_GE(served.migrations, 1u);
}

TEST(ServeMigration, MigratedBatchMeasuresTheWholeProgram)
{
    // A migrated batch measures its resume point plus the resumed
    // run — the whole program — so the prediction-mismatch tripwire
    // needs no migration exemption.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 0;
    cfg.snapshotEveryCycles = m.reg.cycles(0, 1) / 8;
    m.armRandomStrikes(cfg);
    InferenceServer server(m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0,
                           25.0 * server.serviceSec());
    server.drain();
    const Result r = f.get();
    ASSERT_EQ(r.outcome, Outcome::Served);
    EXPECT_GE(r.migrations, 1u);
    EXPECT_EQ(r.measuredCycles, r.predictedCycles);
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(ServeMigration, RetryBookingChargesEngineRebuild)
{
    // Regression: the retry decision used to budget service time
    // alone, admitting a retry whose completion — once the engine
    // image is re-staged over the host link — provably misses the
    // deadline. A retry is booked at start + the failed attempt's
    // cycles + rebuild + one service time; with a rebuild of about
    // five service times that misses this deadline
    // (start + 2*service + rebuild/2), which a service-time-only
    // budget would have met. The server must fail fast with zero.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 3;
    cfg.chip.fault.events = m.poisonInputEvents();
    const double rebuild =
        InferenceSession(*m.bp->lw, cfg.chip).dmaSeconds();
    ASSERT_GT(rebuild, 0.0);
    InferenceServer server(m.reg, cfg);

    const double service = server.serviceSec();
    const double deadline = 2.0 * service + 0.5 * rebuild;
    auto f = server.submit(m.randomInput(1), 0.0, deadline);
    server.drain();

    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.machineChecks, 1u);
}

TEST(ServeMigration, NoSnapshotFallsBackToFullRetry)
{
    // The scheduled double-bit pair fires at cycle 0 — before the
    // first snapshot can possibly be taken — so migration has
    // nothing to restore and the worker must fall through to the
    // bounded full-retry policy (which replays the fault and
    // exhausts).
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetries = 1;
    cfg.snapshotEveryCycles = 100'000'000;
    cfg.chip.fault.events = m.poisonInputEvents();
    InferenceServer server(m.reg, cfg);

    auto f = server.submit(m.randomInput(1), 0.0);
    server.drain();
    const Result r = f.get();
    EXPECT_EQ(r.outcome, Outcome::FailedMachineCheck);
    EXPECT_EQ(r.retries, 1u);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_GE(r.machineChecks, 2u);
}

TEST(ServeMigration, SnapshotCadenceAloneDoesNotPerturbServing)
{
    // Arming periodic snapshots without any faults must not change a
    // single byte or booking relative to a plain server.
    Compiled m;
    ServerConfig plain_cfg;
    plain_cfg.workers = 1;
    ServerConfig snap_cfg = plain_cfg;
    snap_cfg.snapshotEveryCycles = 97;

    InferenceServer plain(m.reg, plain_cfg);
    InferenceServer snapped(m.reg, snap_cfg);
    const std::vector<std::int8_t> input = m.randomInput(2);

    auto fa = plain.submit(input, 0.0);
    auto fb = snapped.submit(input, 0.0);
    plain.drain();
    snapped.drain();
    const Result a = fa.get();
    const Result b = fb.get();
    ASSERT_EQ(a.outcome, Outcome::Served);
    ASSERT_EQ(b.outcome, Outcome::Served);
    EXPECT_EQ(a.output.data, b.output.data);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.completionSec, b.completionSec);
    EXPECT_EQ(b.migrations, 0u);
}

} // namespace
} // namespace tsp
