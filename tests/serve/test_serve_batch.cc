/**
 * @file
 * Deterministic batched serving: the compiled batch-B program installs
 * weights once and pipelines B per-sample schedules, so cycles(B) is
 * exact, strictly sublinear per sample, and every per-sample output is
 * bit-identical to B independent batch-1 serves — including under
 * injected correctable faults. The batcher's open/tryJoin/seal
 * arithmetic proves feasibility before committing, a mid-batch machine
 * check condemns and retries the whole batch, and the pod backend's
 * batched ring all-reduce keeps the same contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "graph/batch_program.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::Admission;
using serve::AdmissionController;
using serve::InferenceServer;
using serve::ModelTiming;
using serve::Outcome;
using serve::PodBackend;
using serve::Result;
using serve::ServerConfig;
using serve::SessionBackend;

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

/** The tiny net as a one-family registry compiling batch sizes up to
 *  max_batch, shared per fixture. */
struct BatchCompiled
{
    Graph g;
    serve::ModelRegistry reg;

    explicit BatchCompiled(int max_batch)
        : g(model::buildTinyNet(3, kH, kW, kC)),
          reg({{"tinynet", g, randomInput(7), max_batch}})
    {
    }

    ref::QTensor
    reference(const std::vector<std::int8_t> &input) const
    {
        ref::QTensor qin(kH, kW, kC);
        qin.data = input;
        return g.runReference(qin).at(g.outputNode());
    }
};

// ---------------------------------------------------------------
// Batch programs — the compiler-side amortization claims.
// ---------------------------------------------------------------

TEST(BatchProgram, PerSampleCyclesStrictlyDecrease)
{
    BatchCompiled m(8);
    std::vector<Cycle> cycles;
    for (int b = 1; b <= m.reg.maxBatch(0); ++b)
        cycles.push_back(m.reg.cycles(0, b));
    ASSERT_EQ(cycles.size(), 8u);
    for (int b = 2; b <= 8; ++b) {
        const double per_prev =
            static_cast<double>(cycles[static_cast<std::size_t>(
                b - 2)]) /
            (b - 1);
        const double per =
            static_cast<double>(
                cycles[static_cast<std::size_t>(b - 1)]) /
            b;
        // The whole point of batching: amortized weight install and
        // pipelined seams make per-sample cost strictly decreasing.
        EXPECT_LT(per, per_prev) << "batch " << b;
        // And strictly sublinear vs b batch-1 replays.
        EXPECT_LT(cycles[static_cast<std::size_t>(b - 1)],
                  static_cast<Cycle>(b) * cycles[0])
            << "batch " << b;
    }
}

TEST(BatchProgram, WeightInstallIsAmortized)
{
    BatchCompiled m(4);
    // The conv placement cache places each layer's weights exactly
    // once regardless of batch size — repeats reuse the tiles.
    const std::uint64_t solo =
        m.reg.acquire(0, 1)->lw->weightPlacements();
    ASSERT_GT(solo, 0u);
    for (int b = 2; b <= 4; ++b)
        EXPECT_EQ(m.reg.acquire(0, b)->lw->weightPlacements(), solo)
            << "batch " << b;
}

TEST(BatchProgram, PerSampleSlotsAreDistinct)
{
    BatchCompiled m(4);
    const std::shared_ptr<BatchProgram> pinned = m.reg.acquire(0, 4);
    const BatchProgram &bp = *pinned;
    ASSERT_EQ(bp.inputs.size(), 4u);
    ASSERT_EQ(bp.outputs.size(), 4u);
    for (int a = 0; a < 4; ++a) {
        for (int b = a + 1; b < 4; ++b) {
            // Distinct activation storage per sample: bump-allocated
            // tensors must not alias or batch members would corrupt
            // each other.
            const GlobalAddr pa =
                bp.outputs[static_cast<std::size_t>(a)].t.addrOf(
                    0, 0, 0, 0);
            const GlobalAddr pb =
                bp.outputs[static_cast<std::size_t>(b)].t.addrOf(
                    0, 0, 0, 0);
            EXPECT_FALSE(pa.hem == pb.hem && pa.slice == pb.slice &&
                         pa.addr == pb.addr)
                << "samples " << a << "/" << b;
        }
    }
}

// ---------------------------------------------------------------
// AdmissionController — batch open/tryJoin/seal arithmetic.
// ---------------------------------------------------------------

/** A one-worker controller over a fixed exact-cycles table, at
 *  1 GHz. */
AdmissionController
tableController(std::vector<Cycle> cycles_by_batch)
{
    return AdmissionController(
        1, 1, ModelTiming::fromTable(std::move(cycles_by_batch)), 1e-9);
}

TEST(BatchAdmission, JoinRebooksExactBatchCompletion)
{
    // cycles table {1000, 1800, 2400} at 1 GHz.
    AdmissionController ac = tableController({1000, 1800, 2400});
    EXPECT_EQ(ac.maxBatch(), 3);
    EXPECT_DOUBLE_EQ(ac.serviceSec(2), 1.8e-6);

    const Admission a = ac.open(0.0, 0.0);
    ASSERT_TRUE(a.admitted);
    EXPECT_DOUBLE_EQ(a.completionSec, 1e-6);

    // Joining re-books the whole batch with the exact cycles(2).
    const Admission b = ac.tryJoin(0.2e-6, 0.0);
    ASSERT_TRUE(b.admitted);
    EXPECT_EQ(b.batch, 2);
    EXPECT_DOUBLE_EQ(b.startSec, 0.2e-6); // Latest member arrival.
    EXPECT_DOUBLE_EQ(b.completionSec, 0.2e-6 + 1.8e-6);

    const Admission sealed = ac.seal();
    EXPECT_EQ(sealed.batch, 2);
    EXPECT_DOUBLE_EQ(sealed.completionSec, 2e-6);

    // The worker is booked through the batch completion.
    EXPECT_DOUBLE_EQ(ac.earliestCompletionFor(0, 0.0), 2e-6 + 1e-6);
    EXPECT_EQ(ac.admitted(), 2u);
}

TEST(BatchAdmission, JoinRefusedWhenMemberDeadlineWouldBreak)
{
    AdmissionController ac = tableController({1000, 1800, 2400});
    // The opener's deadline fits batch-1 but not batch-2.
    const Admission a = ac.open(0.0, 1.5e-6);
    ASSERT_TRUE(a.admitted);
    const Admission b = ac.tryJoin(0.0, 0.0);
    EXPECT_FALSE(b.admitted);
    // A refused join is not a rejection — the candidate will open
    // the next batch instead.
    EXPECT_EQ(ac.rejected(), 0u);
    // The open batch's booking is untouched.
    const Admission sealed = ac.seal();
    EXPECT_EQ(sealed.batch, 1);
    EXPECT_DOUBLE_EQ(sealed.completionSec, 1e-6);
}

TEST(BatchAdmission, JoinRefusedWhenCandidateDeadlineWouldBreak)
{
    AdmissionController ac = tableController({1000, 1800, 2400});
    ASSERT_TRUE(ac.open(0.0, 0.0).admitted);
    // The candidate's own deadline cannot absorb cycles(2).
    EXPECT_FALSE(ac.tryJoin(0.0, 1.7e-6).admitted);
    // But a feasible candidate still joins afterwards.
    EXPECT_TRUE(ac.tryJoin(0.0, 1.9e-6).admitted);
    EXPECT_EQ(ac.seal().batch, 2);
}

TEST(BatchAdmission, JoinRefusedBeyondMaxBatch)
{
    AdmissionController ac = tableController({1000, 1800});
    ASSERT_TRUE(ac.open(0.0, 0.0).admitted);
    ASSERT_TRUE(ac.tryJoin(0.0, 0.0).admitted);
    EXPECT_FALSE(ac.tryJoin(0.0, 0.0).admitted); // Table ends at 2.
    EXPECT_EQ(ac.seal().batch, 2);
}

// ---------------------------------------------------------------
// InferenceServer end-to-end batching.
// ---------------------------------------------------------------

TEST(BatchServer, BatchedOutputsBitIdenticalToSoloServes)
{
    constexpr int kB = 4;
    constexpr int kRequests = 8;
    BatchCompiled m(kB);

    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i)
        inputs.push_back(
            randomInput(static_cast<std::uint64_t>(100 + i)));

    // Solo serves: batching disabled, one request per run.
    std::vector<ref::QTensor> solo;
    {
        ServerConfig cfg;
        cfg.workers = 1;
        InferenceServer server(m.reg, cfg);
        EXPECT_EQ(server.batchMax(), 1);
        std::vector<std::future<Result>> futures;
        for (int i = 0; i < kRequests; ++i)
            futures.push_back(server.submit(
                inputs[static_cast<std::size_t>(i)],
                static_cast<double>(i) * 1e-7));
        server.drain();
        for (auto &f : futures) {
            Result r = f.get();
            ASSERT_EQ(r.outcome, Outcome::Served);
            EXPECT_EQ(r.batch, 1);
            solo.push_back(std::move(r.output));
        }
    }

    // Batched serves of the same inputs.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 1.0; // Everything may share a batch.
    cfg.startPaused = true;   // Batches must form, not race a worker.
    InferenceServer server(m.reg, cfg);
    EXPECT_EQ(server.batchMax(), kB);

    std::vector<std::future<Result>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(
            server.submit(inputs[static_cast<std::size_t>(i)],
                          static_cast<double>(i) * 1e-7));
    server.resume();
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.batch, kB) << "request " << i;
        // The determinism contract survives batching: the booking is
        // the exact cycles(B) and the run matches it.
        EXPECT_EQ(r.predictedCycles, m.reg.cycles(0, kB));
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        // Byte-for-byte identical to the solo serve and the golden
        // reference.
        ASSERT_EQ(r.output.data,
                  solo[static_cast<std::size_t>(i)].data)
            << "request " << i;
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want.data) << "request " << i;
    }

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.predictionMismatches(), 0u);
    EXPECT_EQ(snap.counters().get("served"),
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.counters().get("batches"),
              static_cast<std::uint64_t>(kRequests / kB));
    EXPECT_EQ(snap.counters().get("batch_samples"),
              static_cast<std::uint64_t>(kRequests));
}

TEST(BatchServer, BitIdenticalUnderCorrectableFaults)
{
    constexpr int kB = 4;
    BatchCompiled m(kB);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 1.0;
    cfg.startPaused = true;
    // Correctable-only injection (see ServeFaults for why read+write
    // strikes never stack into an uncorrectable chunk).
    cfg.chip.fault.seed = 0x77ull;
    cfg.chip.fault.memReadRate = 0.02;
    cfg.chip.fault.memWriteRate = 0.02;
    cfg.chip.fault.doubleBitFraction = 0.0;
    InferenceServer server(m.reg, cfg);

    constexpr int kRequests = 8;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            randomInput(static_cast<std::uint64_t>(i)));
        futures.push_back(
            server.submit(inputs.back(),
                          static_cast<double>(i) * 1e-7));
    }
    server.resume();
    server.drain();

    std::uint64_t corrected = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.batch, kB);
        EXPECT_EQ(r.retries, 0u);
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        corrected += r.correctedErrors;
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want.data) << "request " << i;
    }
    EXPECT_GT(corrected, 0u); // The injection actually fired.
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(BatchServer, MidBatchMachineCheckFailsWholeBatch)
{
    constexpr int kB = 4;
    BatchCompiled m(kB);
    // A double-bit (uncorrectable) scheduled fault pair on the first
    // word of sample 0's input, wired to cycle 0 so it replays on
    // every rebuilt chip: every attempt of every batch must
    // machine-check and *all* members fail together — never a
    // partial batch.
    const GlobalAddr a =
        m.reg.acquire(0, kB)->inputs[0].t.addrOf(0, 0, 0, 0);
    const int slice =
        (a.hem == Hemisphere::West ? 0 : kMemSlicesPerHem) + a.slice;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 1.0;
    cfg.startPaused = true;
    cfg.maxRetries = 1;
    cfg.chip.fault.events = {{0, slice, a.addr, 0, 1},
                             {0, slice, a.addr, 0, 5}};
    InferenceServer server(m.reg, cfg);

    std::vector<std::future<Result>> futures;
    for (int i = 0; i < kB; ++i)
        futures.push_back(server.submit(
            randomInput(static_cast<std::uint64_t>(i)),
            static_cast<double>(i) * 1e-7));
    server.resume();
    server.drain();

    for (auto &f : futures) {
        const Result r = f.get();
        ASSERT_EQ(r.outcome, Outcome::FailedMachineCheck);
        EXPECT_EQ(r.batch, kB);
        EXPECT_EQ(r.retries, 1u);          // Shared whole-batch retry.
        EXPECT_GE(r.machineChecks, 2u);    // Attempt + retry.
        EXPECT_TRUE(r.output.data.empty()); // Never partial output.
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("failed_machine_check"),
              static_cast<std::uint64_t>(kB));
    // The batch's shared physical run is counted once, not per member.
    EXPECT_EQ(snap.counters().get("retries"), 1u);
    EXPECT_EQ(snap.counters().get("served"), 0u);
}

TEST(BatchServer, UncorrectableStrikesNeverServeCorruptedBatch)
{
    constexpr int kB = 4;
    BatchCompiled m(kB);
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 1.0;
    cfg.maxRetries = 2;
    cfg.chip.fault.seed = 0x5151ull;
    cfg.chip.fault.streamRate = 2e-4;
    cfg.chip.fault.doubleBitFraction = 1.0;
    InferenceServer server(m.reg, cfg);

    constexpr int kRequests = 24;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(
            randomInput(static_cast<std::uint64_t>(200 + i)));
        futures.push_back(
            server.submit(inputs.back(),
                          static_cast<double>(i) * 1e-7));
    }
    server.drain();

    int served = 0, failed_mc = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        if (r.outcome == Outcome::Served) {
            ++served;
            // Bit-exact or nothing — even when the batch retried on
            // a rebuilt chip.
            const ref::QTensor want =
                m.reference(inputs[static_cast<std::size_t>(i)]);
            ASSERT_EQ(r.output.data, want.data) << "request " << i;
        } else {
            ASSERT_EQ(r.outcome, Outcome::FailedMachineCheck)
                << "request " << i;
            EXPECT_TRUE(r.output.data.empty());
            ++failed_mc;
        }
    }
    EXPECT_EQ(served + failed_mc, kRequests);
}

TEST(BatchServer, WindowZeroBatchesOnlySameArrival)
{
    constexpr int kB = 4;
    BatchCompiled m(kB);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 0.0;
    cfg.startPaused = true;
    InferenceServer server(m.reg, cfg);

    // Two same-stamp pairs with distinct stamps between pairs: the
    // zero window seals at each stamp change, deterministically.
    std::vector<std::future<Result>> futures;
    const double stamps[4] = {0.0, 0.0, 1e-6, 1e-6};
    for (int i = 0; i < 4; ++i)
        futures.push_back(server.submit(
            randomInput(static_cast<std::uint64_t>(i)), stamps[i]));
    server.resume();
    server.drain();

    for (auto &f : futures) {
        const Result r = f.get();
        ASSERT_EQ(r.outcome, Outcome::Served);
        EXPECT_EQ(r.batch, 2);
    }
    EXPECT_EQ(server.metricsSnapshot().counters().get("batches"),
              2u);
}

TEST(BatchServer, BatchMaxOneIsPreBatchingBehavior)
{
    BatchCompiled m(2);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = 1;
    cfg.batchWindowSec = 1.0; // Ignored at batchMax 1.
    InferenceServer server(m.reg, cfg);
    EXPECT_EQ(server.batchMax(), 1);

    auto f1 = server.submit(randomInput(1), 0.0);
    auto f2 = server.submit(randomInput(2), 0.0);
    server.drain();
    EXPECT_EQ(f1.get().batch, 1);
    EXPECT_EQ(f2.get().batch, 1);
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("batches"), 2u);
    EXPECT_EQ(snap.predictionMismatches(), 0u);
}

// ---------------------------------------------------------------
// Batched pod collective.
// ---------------------------------------------------------------

std::vector<std::int8_t>
randomPodInput(int chips, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> data(PodBackend::inputBytes(chips));
    for (auto &v : data)
        v = static_cast<std::int8_t>(rng.intIn(-90, 90));
    return data;
}

/** Host saturating reduction with the schedule's chain order. */
std::vector<std::int8_t>
reduceReference(int chips, const std::vector<std::int8_t> &input)
{
    std::vector<std::int8_t> want(input.begin(),
                                  input.begin() + kLanes);
    for (int c = 1; c < chips; ++c) {
        for (int l = 0; l < kLanes; ++l) {
            const int s =
                int(want[static_cast<std::size_t>(l)]) +
                int(input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(l)]);
            want[static_cast<std::size_t>(l)] =
                static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
    }
    return want;
}

TEST(BatchPod, BatchedAllReduceMatchesPerSampleReference)
{
    constexpr int kChips = 4;
    constexpr int kB = 3;
    ChipConfig cfg;
    PodBackend be(kChips, 17, cfg, kB);
    EXPECT_EQ(be.maxBatch(), kB);

    std::vector<std::vector<std::int8_t>> inputs;
    std::vector<const std::vector<std::int8_t> *> ptrs;
    for (int s = 0; s < kB; ++s) {
        inputs.push_back(randomPodInput(
            kChips, static_cast<std::uint64_t>(40 + s)));
    }
    for (const auto &in : inputs)
        ptrs.push_back(&in);

    const RunResult r = be.serveBatch(ptrs, 1'000'000);
    ASSERT_TRUE(r.completed);
    for (int s = 0; s < kB; ++s) {
        const auto want = reduceReference(
            kChips, inputs[static_cast<std::size_t>(s)]);
        EXPECT_EQ(be.readSample(s).data, want) << "sample " << s;
    }
}

TEST(BatchPod, BatchedCollectiveCyclesStrictlySublinear)
{
    constexpr int kChips = 4;
    ChipConfig cfg;
    const std::vector<Cycle> table =
        PodBackend::serviceCyclesTable(kChips, 17, cfg, 4);
    ASSERT_EQ(table.size(), 4u);
    for (int b = 2; b <= 4; ++b) {
        EXPECT_GT(table[static_cast<std::size_t>(b - 1)],
                  table[static_cast<std::size_t>(b - 2)]);
        // Pipelined around the ring: the marginal sample costs less
        // than a standalone all-reduce.
        EXPECT_LT(table[static_cast<std::size_t>(b - 1)],
                  static_cast<Cycle>(b) * table[0])
            << "batch " << b;
    }
}

TEST(BatchPod, BatchedPodServingExactAndBitIdentical)
{
    constexpr int kChips = 3;
    constexpr int kB = 2;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.batchMax = kB;
    cfg.batchWindowSec = 1.0;
    cfg.startPaused = true;
    const std::vector<Cycle> table =
        PodBackend::serviceCyclesTable(kChips, 17, cfg.chip, kB);
    const ChipConfig chip_cfg = cfg.chip;
    InferenceServer server(
        [=](int) -> std::unique_ptr<serve::Backend> {
            return std::make_unique<PodBackend>(kChips, 17, chip_cfg,
                                                kB);
        },
        table, cfg);
    EXPECT_EQ(server.batchMax(), kB);

    constexpr int kRequests = 6;
    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(randomPodInput(
            kChips, static_cast<std::uint64_t>(70 + i)));
        futures.push_back(
            server.submit(inputs.back(),
                          static_cast<double>(i) * 1e-7));
    }
    server.resume();
    server.drain();

    for (int i = 0; i < kRequests; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        EXPECT_EQ(r.batch, kB);
        EXPECT_EQ(r.predictedCycles,
                  table[static_cast<std::size_t>(kB - 1)]);
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        const auto want = reduceReference(
            kChips, inputs[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.output.data, want) << "request " << i;
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

} // namespace
} // namespace tsp
