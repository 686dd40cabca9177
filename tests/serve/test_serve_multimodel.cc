/**
 * @file
 * Multi-model, multi-tenant serving: one server holds N compiled
 * model families behind a ModelRegistry. Programs compile lazily on
 * first use (a batch size that never forms is never compiled), LRU
 * eviction under a byte budget eagerly invalidates the evicted
 * model's execution traces, weight swaps between families are booked
 * *exactly* into admission completions, tenant SLO classes scale
 * deadline slack and carry priority, and a high-priority arrival may
 * preempt the open batch — victims re-queued or shed against their
 * original effective deadline, never dropped. With one family and
 * preemption off, everything reduces bit-identically to the
 * single-model server.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "graph/batch_program.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "serve/model_registry.hh"
#include "serve/server.hh"
#include "sim/exec_trace.hh"

namespace tsp {
namespace {

using serve::InferenceServer;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;
using serve::ServerMetrics;
using serve::SloClass;

constexpr int kH = 8, kW = 8, kC = 4;

std::vector<std::int8_t>
randomInput(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(
        static_cast<std::size_t>(kH) * kW * kC);
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return data;
}

ModelSpec
makeSpec(const std::string &name, std::uint64_t seed, int max_batch)
{
    ModelSpec sp;
    sp.name = name;
    sp.graph = model::buildTinyNet(seed, kH, kW, kC);
    sp.warmInput = randomInput(seed ^ 0x5eedu);
    sp.maxBatch = max_batch;
    return sp;
}

ref::QTensor
reference(const Graph &g, const std::vector<std::int8_t> &input)
{
    ref::QTensor qin(kH, kW, kC);
    qin.data = input;
    return const_cast<Graph &>(g).runReference(qin).at(
        g.outputNode());
}

std::string
metricsStr(const ServerMetrics &m)
{
    JsonWriter j;
    m.appendJson(j);
    return j.str();
}

// ---------------------------------------------------------------
// Satellite bugfix: lazy compilation in BatchProgramCache.
// ---------------------------------------------------------------

TEST(LazyBatchCompile, NothingCompiledAtConstruction)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    BatchProgramCache cache(g, randomInput(7), 4);
    EXPECT_EQ(cache.compiledCount(), 0u);
    EXPECT_EQ(cache.compileCount(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
}

TEST(LazyBatchCompile, OnlyTheRequestedSizeCompiles)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    BatchProgramCache cache(g, randomInput(7), 4);
    const Cycle c3 = cache.cycles(3);
    EXPECT_GT(c3, 0u);
    EXPECT_TRUE(cache.compiled(3));
    EXPECT_FALSE(cache.compiled(1));
    EXPECT_FALSE(cache.compiled(2));
    EXPECT_FALSE(cache.compiled(4));
    EXPECT_EQ(cache.compileCount(), 1u);
}

TEST(LazyBatchCompile, MemoizedCyclesSurviveEviction)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    BatchProgramCache cache(g, randomInput(7), 4);
    const Cycle c2 = cache.cycles(2);
    EXPECT_EQ(cache.compileCount(), 1u);
    auto evicted = cache.evict(2);
    ASSERT_NE(evicted, nullptr);
    EXPECT_FALSE(cache.compiled(2));
    // The exact cycle count is still served without recompiling —
    // admission arithmetic never waits on the compiler.
    EXPECT_EQ(cache.cycles(2), c2);
    EXPECT_EQ(cache.compileCount(), 1u);
    // Recompilation on re-acquire reproduces the identical count.
    auto again = cache.acquire(2);
    EXPECT_EQ(cache.compileCount(), 2u);
    EXPECT_EQ(again->cycles, c2);
}

/** Regression for the eager-compile bug: a server configured for
 * batches up to 4 must not compile size k until the first k-batch
 * actually forms. (Previously the server ctor compiled every size up
 * front via cyclesByBatch().) */
TEST(LazyBatchCompile, ServerCompilesOnlyFormedBatchSizes)
{
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    BatchProgramCache cache(g, randomInput(7), 4);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = 4;
    cfg.batchWindowSec = 0.0; // No joining: every batch is size 1.
    {
        InferenceServer server(cache, cfg);
        // Construction needs exactly batch-1 (the backend arms it
        // and admission prices a batch-1 service).
        EXPECT_EQ(cache.compiledCount(), 1u);
        EXPECT_TRUE(cache.compiled(1));
        std::vector<std::future<Result>> fs;
        for (int i = 0; i < 6; ++i) {
            fs.push_back(server.submit(
                randomInput(100 + static_cast<std::uint64_t>(i)),
                static_cast<double>(i) * 1e-3));
        }
        server.drain();
        for (auto &f : fs)
            EXPECT_EQ(f.get().batch, 1);
        // Six singles served; sizes 2..4 never formed, never
        // compiled.
        EXPECT_EQ(cache.compiledCount(), 1u);
        EXPECT_FALSE(cache.compiled(2));
        EXPECT_FALSE(cache.compiled(4));
    }
    // Now a 2-batch forms: size 2 compiles on first use.
    ServerConfig cfg2 = cfg;
    cfg2.batchWindowSec = 1.0;
    InferenceServer server(cache, cfg2);
    auto f0 = server.submit(randomInput(200), 0.0);
    auto f1 = server.submit(randomInput(201), 1e-7);
    server.flushOpenBatch();
    EXPECT_EQ(f0.get().batch, 2);
    EXPECT_EQ(f1.get().batch, 2);
    EXPECT_TRUE(cache.compiled(2));
    EXPECT_FALSE(cache.compiled(3));
    EXPECT_FALSE(cache.compiled(4));
}

// ---------------------------------------------------------------
// ModelRegistry: LRU eviction and eager trace invalidation.
// ---------------------------------------------------------------

TEST(ModelRegistryTest, LruEvictsColdFamilyUnderBudget)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 2));
    specs.push_back(makeSpec("b", 11, 2));
    // A budget of one byte forces every acquire over budget; the
    // just-acquired program must survive its own acquire, so exactly
    // one program is resident at a time.
    ModelRegistry reg(std::move(specs), /*budget_bytes=*/1);
    auto pa = reg.acquire(0, 1);
    ASSERT_NE(pa, nullptr);
    EXPECT_TRUE(reg.compiled(0, 1));
    EXPECT_EQ(reg.evictions(), 0u);

    auto pb = reg.acquire(1, 1);
    ASSERT_NE(pb, nullptr);
    EXPECT_TRUE(reg.compiled(1, 1));
    EXPECT_FALSE(reg.compiled(0, 1)); // LRU victim.
    EXPECT_EQ(reg.evictions(), 1u);

    // The pinned handle keeps the evicted program alive and correct.
    EXPECT_GT(pa->cycles, 0u);

    // Re-acquiring family a recompiles to the identical program.
    auto pa2 = reg.acquire(0, 1);
    EXPECT_EQ(pa2->cycles, pa->cycles);
    EXPECT_EQ(pa2->prog.hash(), pa->prog.hash());
    EXPECT_EQ(reg.evictions(), 2u);
    EXPECT_EQ(reg.compileCount(), 3u);
}

TEST(ModelRegistryTest, EvictionEagerlyInvalidatesTraces)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    specs.push_back(makeSpec("b", 11, 1));
    ModelRegistry reg(std::move(specs), /*budget_bytes=*/1);
    auto traces = std::make_shared<TraceCache>();
    reg.attachTraceCache(traces);

    auto pa = reg.acquire(0, 1);
    // A recorded trace keyed by family a's compiled program.
    auto tr = std::make_shared<ExecutionTrace>();
    tr->events.resize(64);
    const std::size_t tr_bytes = tr->memoryBytes();
    ASSERT_GT(tr_bytes, 0u);
    traces->insert(traceKeyOf({pa->prog}), tr);
    EXPECT_EQ(traces->size(), 1u);
    EXPECT_EQ(traces->memoryBytes(), tr_bytes);

    // Swapping family b in evicts a's program — and its traces leave
    // the shared budget *immediately*, not on some later miss.
    auto pb = reg.acquire(1, 1);
    EXPECT_FALSE(reg.compiled(0, 1));
    EXPECT_EQ(traces->size(), 0u);
    EXPECT_EQ(traces->memoryBytes(), 0u);
}

TEST(ModelRegistryTest, EvictionDropsTheTraceASessionRecorded)
{
    // End to end: the key a session records under and the key the
    // registry invalidates come from one definition (traceKeyOf), so
    // a real recording leaves the pool when its program is evicted.
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    specs.push_back(makeSpec("b", 11, 1));
    ModelRegistry reg(std::move(specs), /*budget_bytes=*/1);
    auto traces = std::make_shared<TraceCache>();
    reg.attachTraceCache(traces);

    serve::SessionBackend be(reg.acquire(0, 1), 1, ChipConfig{});
    be.attachTraceCache(traces);
    be.reset();
    be.writeInput(randomInput(5));
    ASSERT_TRUE(be.runBounded(500'000'000).completed);
    EXPECT_EQ(be.recordCount(), 1u);
    EXPECT_EQ(traces->size(), 1u);
    EXPECT_GT(traces->memoryBytes(), 0u);

    // Family b under the 1-byte budget evicts a (still pinned by the
    // backend), and a's recording leaves the pool with it.
    auto pb = reg.acquire(1, 1);
    EXPECT_FALSE(reg.compiled(0, 1));
    EXPECT_EQ(traces->size(), 0u);
    EXPECT_EQ(traces->memoryBytes(), 0u);
}

// ---------------------------------------------------------------
// Satellite bugfix: metrics schema v2 emits every outcome counter.
// ---------------------------------------------------------------

TEST(MetricsSchema, AllOutcomeCountersPresentAtZero)
{
    ServerMetrics m(1e-6, 1, 8);
    const std::string j = metricsStr(m);
    EXPECT_NE(j.find("\"schema_version\":2"), std::string::npos);
    // Every outcome name appears even though nothing was recorded —
    // consumers diff reports across runs without key churn.
    for (const char *name :
         {"served", "rejected_deadline", "rejected_queue_full",
          "rejected_invalid", "deadline_missed", "failed",
          "failed_machine_check", "submitted", "batches",
          "batch_samples", "machine_checks", "retries", "migrations",
          "ecc_corrected", "preemptions", "preempted_requeued",
          "preempted_shed"}) {
        EXPECT_NE(j.find("\"" + std::string(name) + "\":0"),
                  std::string::npos)
            << "missing zero-valued counter " << name;
    }
}

// ---------------------------------------------------------------
// Multi-model serving correctness.
// ---------------------------------------------------------------

TEST(MultiModelServe, TwoFamiliesServeTheirOwnReference)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    specs.push_back(makeSpec("b", 11, 1));
    const Graph ga = specs[0].graph;
    const Graph gb = specs[1].graph;
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 2;
    InferenceServer server(reg, cfg);
    ASSERT_EQ(server.models(), 2);

    std::vector<std::future<Result>> fa, fb;
    std::vector<std::vector<std::int8_t>> ia, ib;
    for (int i = 0; i < 4; ++i) {
        ia.push_back(randomInput(400 + static_cast<std::uint64_t>(i)));
        ib.push_back(randomInput(500 + static_cast<std::uint64_t>(i)));
        const double t = static_cast<double>(i) * 1e-5;
        fa.push_back(server.submitModel(0, 0, ia.back(), t));
        fb.push_back(server.submitModel(1, 0, ib.back(), t + 5e-6));
    }
    server.drain();
    for (int i = 0; i < 4; ++i) {
        const Result ra = fa[static_cast<std::size_t>(i)].get();
        const Result rb = fb[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(ra.outcome, Outcome::Served);
        ASSERT_EQ(rb.outcome, Outcome::Served);
        EXPECT_EQ(ra.model, 0);
        EXPECT_EQ(rb.model, 1);
        // Each family's output is bit-identical to its own graph's
        // reference — families never bleed into each other even when
        // the same workers serve both.
        EXPECT_EQ(ra.output.data,
                  reference(ga, ia[static_cast<std::size_t>(i)]).data);
        EXPECT_EQ(rb.output.data,
                  reference(gb, ib[static_cast<std::size_t>(i)]).data);
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(MultiModelServe, SwapCostBookedExactlyIntoAdmission)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    specs.push_back(makeSpec("b", 11, 1));
    ModelRegistry reg(std::move(specs));
    const double swap1 = reg.swapSec(1, 1);
    const double swap0 = reg.swapSec(0, 1);
    ASSERT_GT(swap1, 0.0);
    ServerConfig cfg;
    cfg.workers = 1;
    InferenceServer server(reg, cfg);

    // Worker starts staged with family 0: no swap.
    Result r0 = server.submitModel(0, 0, randomInput(1), 0.0).get();
    ASSERT_EQ(r0.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(r0.startSec, 0.0);

    // First family-1 request on an idle worker pays exactly the
    // modeled weight-swap ahead of its service window.
    Result r1 = server.submitModel(1, 0, randomInput(2), 1.0).get();
    ASSERT_EQ(r1.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(r1.startSec, 1.0 + swap1);
    EXPECT_DOUBLE_EQ(r1.completionSec,
                     r1.startSec +
                         server.admission().serviceSecFor(1, 1));

    // Family 1 is now staged: the next request swaps nothing.
    Result r2 = server.submitModel(1, 0, randomInput(3), 2.0).get();
    ASSERT_EQ(r2.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(r2.startSec, 2.0);

    // Swapping back to family 0 pays family 0's own image cost.
    Result r3 = server.submitModel(0, 0, randomInput(4), 3.0).get();
    ASSERT_EQ(r3.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(r3.startSec, 3.0 + swap0);

    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(MultiModelServe, InvalidModelClassAndInputAreRejected)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    specs.push_back(makeSpec("b", 11, 1));
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 1;
    InferenceServer server(reg, cfg);

    EXPECT_EQ(server.submitModel(-1, 0, randomInput(1), 0.0)
                  .get()
                  .outcome,
              Outcome::RejectedInvalid);
    EXPECT_EQ(server.submitModel(2, 0, randomInput(1), 0.0)
                  .get()
                  .outcome,
              Outcome::RejectedInvalid);
    EXPECT_EQ(server.submitModel(0, 7, randomInput(1), 0.0)
                  .get()
                  .outcome,
              Outcome::RejectedInvalid);
    // Payload sized for the wrong family.
    std::vector<std::int8_t> wrong(3, 1);
    EXPECT_EQ(
        server.submitModel(1, 0, std::move(wrong), 0.0).get().outcome,
        Outcome::RejectedInvalid);
    server.drain();
    EXPECT_EQ(server.metricsSnapshot().counters().get(
                  "rejected_invalid"),
              4u);
}

TEST(MultiModelServe, SloClassScalesDeadlineSlack)
{
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 1));
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.sloClasses.push_back(SloClass{1.0, 0});
    cfg.sloClasses.push_back(SloClass{0.5, 1});
    InferenceServer server(reg, cfg);
    const double svc = server.admission().serviceSec(1);

    // Occupy the worker until svc.
    auto f0 = server.submitModel(0, 0, randomInput(1), 0.0);
    // Same nominal deadline, different tenant class: class 1's
    // halved slack makes the identical request infeasible.
    const double deadline = 2.5 * svc;
    Result tight =
        server.submitModel(0, 1, randomInput(2), 0.0, deadline)
            .get();
    EXPECT_EQ(tight.outcome, Outcome::RejectedDeadline);
    Result ok =
        server.submitModel(0, 0, randomInput(3), 0.0, deadline)
            .get();
    EXPECT_EQ(ok.outcome, Outcome::Served);
    EXPECT_LE(ok.completionSec, deadline);
    EXPECT_EQ(f0.get().outcome, Outcome::Served);
}

// ---------------------------------------------------------------
// Priority preemption.
// ---------------------------------------------------------------

struct PreemptRig
{
    std::unique_ptr<ModelRegistry> reg;
    std::unique_ptr<InferenceServer> server;
    double svc1 = 0.0;

    explicit PreemptRig(bool preemption)
    {
        std::vector<ModelSpec> specs;
        specs.push_back(makeSpec("a", 3, 2));
        reg = std::make_unique<ModelRegistry>(std::move(specs));
        ServerConfig cfg;
        cfg.workers = 1;
        cfg.batchMax = 2;
        cfg.batchWindowSec = 1.0; // Open batch lingers.
        cfg.preemption = preemption;
        cfg.sloClasses.push_back(SloClass{1.0, 0});
        cfg.sloClasses.push_back(SloClass{1.0, 1});
        server = std::make_unique<InferenceServer>(*reg, cfg);
        svc1 = server->admission().serviceSec(1);
    }
};

TEST(Preemption, HighPriorityAdmittedWhereControlRejects)
{
    // The demo scenario: a low-priority batch is open; a
    // high-priority request arrives whose deadline is infeasible
    // behind it but feasible in its place.
    PreemptRig rig(/*preemption=*/true);
    auto fa = rig.server->submitModel(0, 0, randomInput(1), 0.0);
    const double deadline = 1.2 * rig.svc1;
    auto fb = rig.server->submitModel(0, 1, randomInput(2), 0.0,
                                      deadline);
    rig.server->flushOpenBatch();
    const Result rb = fb.get();
    EXPECT_EQ(rb.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(rb.completionSec, rig.svc1);
    EXPECT_EQ(rb.preemptions, 0u);
    // The victim was re-queued behind the preemptor — served late,
    // never dropped.
    const Result ra = fa.get();
    EXPECT_EQ(ra.outcome, Outcome::Served);
    EXPECT_DOUBLE_EQ(ra.startSec, rig.svc1);
    EXPECT_EQ(ra.preemptions, 1u);
    const auto snap = rig.server->metricsSnapshot();
    EXPECT_EQ(snap.counters().get("preemptions"), 1u);
    EXPECT_EQ(snap.counters().get("preempted_requeued"), 1u);
    EXPECT_EQ(snap.counters().get("preempted_shed"), 0u);

    // Control: identical stream, preemption off — the
    // high-priority deadline is provably missed and rejected.
    PreemptRig ctl(/*preemption=*/false);
    auto ca = ctl.server->submitModel(0, 0, randomInput(1), 0.0);
    auto cb = ctl.server->submitModel(0, 1, randomInput(2), 0.0,
                                      1.2 * ctl.svc1);
    ctl.server->flushOpenBatch();
    EXPECT_EQ(cb.get().outcome, Outcome::RejectedDeadline);
    EXPECT_EQ(ca.get().outcome, Outcome::Served);
    EXPECT_EQ(ctl.server->metricsSnapshot().counters().get(
                  "preemptions"),
              0u);
}

TEST(Preemption, VictimWithInfeasibleDeadlineIsShedNotDropped)
{
    PreemptRig rig(/*preemption=*/true);
    // The victim's own deadline admits it alone (1.3 svc > svc) but
    // not behind the preemptor (2 svc).
    auto fa = rig.server->submitModel(0, 0, randomInput(1), 0.0,
                                      1.3 * rig.svc1);
    auto fb = rig.server->submitModel(0, 1, randomInput(2), 0.0,
                                      1.2 * rig.svc1);
    rig.server->flushOpenBatch();
    EXPECT_EQ(fb.get().outcome, Outcome::Served);
    const Result ra = fa.get();
    // Shed against its original effective deadline, preemption
    // count recorded — a decided rejection, not a lost request.
    EXPECT_EQ(ra.outcome, Outcome::RejectedDeadline);
    EXPECT_EQ(ra.preemptions, 1u);
    const auto snap = rig.server->metricsSnapshot();
    EXPECT_EQ(snap.counters().get("preempted_shed"), 1u);
    EXPECT_EQ(snap.counters().get("preempted_requeued"), 0u);
    // Nothing vanished: every submitted request has a recorded
    // outcome.
    EXPECT_EQ(snap.counters().get("submitted"),
              snap.counters().get("served") +
                  snap.counters().get("rejected_deadline"));
}

TEST(Preemption, PreemptedBatchRetriesThroughMachineCheck)
{
    // Preempt-then-retry: the preemptor's batch hits an
    // uncorrectable fault mid-run and the whole-batch retry path
    // still runs — preemption only rearranges *admission* state, so
    // the fault machinery is untouched.
    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 2));
    ModelRegistry reg(std::move(specs));
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = 2;
    cfg.batchWindowSec = 1.0;
    cfg.preemption = true;
    cfg.maxRetries = 4;
    cfg.sloClasses.push_back(SloClass{1.0, 0});
    cfg.sloClasses.push_back(SloClass{1.0, 1});
    cfg.chip.fault.streamRate = 5e-4;
    cfg.chip.fault.doubleBitFraction = 1.0;
    cfg.chip.fault.seed = 0x5151ull;
    InferenceServer server(reg, cfg);
    const double svc = server.admission().serviceSec(1);

    auto fa = server.submitModel(0, 0, randomInput(1), 0.0);
    auto fb =
        server.submitModel(0, 1, randomInput(2), 0.0, 50.0 * svc);
    server.flushOpenBatch();
    server.drain();
    const Result ra = fa.get();
    const Result rb = fb.get();
    const auto snap = server.metricsSnapshot();
    // Under this fault rate the run machine-checks at least once;
    // every outcome is still a decided one and no corrupted output
    // is ever served.
    EXPECT_GT(snap.counters().get("machine_checks"), 0u);
    for (const Result *r : {&ra, &rb}) {
        EXPECT_TRUE(r->outcome == Outcome::Served ||
                    r->outcome == Outcome::DeadlineMissed ||
                    r->outcome == Outcome::FailedMachineCheck ||
                    r->outcome == Outcome::RejectedDeadline)
            << outcomeName(r->outcome);
    }
    EXPECT_EQ(snap.predictionMismatches(), 0u);
}

// ---------------------------------------------------------------
// Reduction to the single-model server, and determinism.
// ---------------------------------------------------------------

TEST(MultiModelReduction, OneFamilyNoPreemptionBitIdenticalToPr8)
{
    // Same graph, same stream: a one-family registry server with
    // preemption off must produce byte-identical serving metrics to
    // the plain BatchProgramCache server.
    Graph g = model::buildTinyNet(3, kH, kW, kC);
    const auto warm = randomInput(3 ^ 0x5eedu);
    BatchProgramCache cache(g, warm, 2);

    std::vector<ModelSpec> specs;
    specs.push_back(makeSpec("a", 3, 2));
    ModelRegistry reg(std::move(specs));

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.batchMax = 2;
    cfg.batchWindowSec = 2e-7;

    auto drive = [&](InferenceServer &server) {
        Rng rng(42);
        const double svc = server.admission().serviceSec(1);
        double now = 0.0;
        std::vector<std::future<Result>> fs;
        for (int i = 0; i < 60; ++i) {
            now += -std::log(1.0 - rng.nextDouble()) * svc * 0.4;
            fs.push_back(server.submit(
                randomInput(static_cast<std::uint64_t>(i)), now,
                now + 3.0 * svc,
                InferenceServer::OnFull::Block));
        }
        server.drain();
        std::string outcomes;
        for (auto &f : fs) {
            const Result r = f.get();
            outcomes += outcomeName(r.outcome);
            outcomes += ',';
            outcomes += std::to_string(r.completionSec);
            outcomes += ';';
        }
        return outcomes + "|" + metricsStr(server.metricsSnapshot());
    };

    std::string a, b;
    {
        InferenceServer s(cache, cfg);
        a = drive(s);
    }
    {
        InferenceServer s(reg, cfg);
        b = drive(s);
    }
    EXPECT_EQ(a, b);
}

TEST(MixedSoak, SameSeedByteIdenticalWithFaultsLive)
{
    // Two families, mixed priorities, preemption on, correctable
    // and uncorrectable faults injected: the whole serving report —
    // counters, preemptions, registry state — replays byte-for-byte
    // for a given seed.
    auto run = [&]() {
        std::vector<ModelSpec> specs;
        specs.push_back(makeSpec("a", 3, 2));
        specs.push_back(makeSpec("b", 11, 2));
        ModelRegistry reg(std::move(specs));
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.batchMax = 2;
        cfg.batchWindowSec = 2e-7;
        cfg.preemption = true;
        cfg.maxRetries = 3;
        cfg.sloClasses.push_back(SloClass{1.0, 0});
        cfg.sloClasses.push_back(SloClass{0.8, 1});
        cfg.chip.fault.memReadRate = 1e-6;
        cfg.chip.fault.memWriteRate = 1e-6;
        cfg.chip.fault.streamRate = 1e-6;
        cfg.chip.fault.doubleBitFraction = 0.2;
        cfg.chip.fault.seed = 7;
        InferenceServer server(reg, cfg);
        Rng rng(1234);
        const double svc = server.admission().serviceSec(1);
        double now = 0.0;
        for (int i = 0; i < 120; ++i) {
            now += -std::log(1.0 - rng.nextDouble()) * svc * 0.35;
            const int m = static_cast<int>(rng.intIn(0, 1));
            const int tenant =
                rng.nextDouble() < 0.25 ? 1 : 0;
            server.submitModelDetached(
                m, tenant,
                randomInput(static_cast<std::uint64_t>(i)), now,
                now + 2.5 * svc,
                InferenceServer::OnFull::Block);
        }
        server.drain();
        const auto snap = server.metricsSnapshot();
        EXPECT_EQ(snap.predictionMismatches(), 0u);
        EXPECT_EQ(snap.counters().get("submitted"), 120u);
        return server.metricsJson();
    };
    const std::string first = run();
    const std::string second = run();
    EXPECT_EQ(first, second);
    // The run exercised the multi-tenant machinery, not a quiet
    // corner: both families served and something was preempted or
    // swapped.
    EXPECT_NE(first.find("\"name\":\"a\""), std::string::npos);
    EXPECT_NE(first.find("\"name\":\"b\""), std::string::npos);
}

} // namespace
} // namespace tsp
