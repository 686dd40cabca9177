/**
 * @file
 * Serving-layer unit tests: bounded-queue concurrency contract
 * (FIFO, backpressure, close semantics), exact admission-control
 * arithmetic, and InferenceServer end-to-end behaviour — served
 * requests match the golden reference, infeasible deadlines are
 * rejected without consuming chip cycles, queue-full backpressure,
 * and cycle-budget exhaustion propagating as an explicit failure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "serve/admission.hh"
#include "serve/request_queue.hh"
#include "serve/server.hh"

namespace tsp {
namespace {

using serve::Admission;
using serve::AdmissionController;
using serve::BoundedQueue;
using serve::InferenceServer;
using serve::ModelTiming;
using serve::Outcome;
using serve::Result;
using serve::ServerConfig;

// ---------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(128);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(q.push(int{i}));
    int v = -1;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    q.close();
    EXPECT_FALSE(q.pop(v)); // Closed and drained.
}

TEST(BoundedQueue, FullBoundsCapacity)
{
    // full() is the fail-fast producer's check (the server rejects a
    // request whose queue is full instead of blocking).
    BoundedQueue<int> q(3);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    EXPECT_FALSE(q.full());
    ASSERT_TRUE(q.push(3));
    EXPECT_TRUE(q.full()); // Bounded.
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_FALSE(q.full()); // Space freed.
    ASSERT_TRUE(q.push(4));
    EXPECT_TRUE(q.full());
}

TEST(BoundedQueue, BlockingPushWaitsForSpace)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(q.push(2)); // Blocks until the pop below.
        pushed.store(true);
    });
    // The producer cannot complete while the queue is full.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, BlockedPushResumesAtHalfCapacity)
{
    BoundedQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.push(int{i}));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(q.push(4));
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int v = 0;
    ASSERT_TRUE(q.pop(v)); // 3 left: above half, no wake-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    ASSERT_TRUE(q.pop(v)); // 2 left: half, the pusher resumes.
    producer.join();
    EXPECT_TRUE(pushed.load());
    for (int want = 2; want <= 4; ++want) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, want);
    }
}

TEST(BoundedQueue, CloseDrainsThenStops)
{
    BoundedQueue<int> q(8);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    EXPECT_FALSE(q.push(3)); // No pushes after close.
    int v = 0;
    EXPECT_TRUE(q.pop(v)); // Queued items still drain...
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v)); // ...then pop signals shutdown.
}

TEST(BoundedQueue, CloseWakesBlockedPush)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1)); // Full.
    std::atomic<bool> returned{false};
    std::atomic<bool> result{true};
    std::thread producer([&] {
        result.store(q.push(2)); // Blocks: no consumer will pop.
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    // close() must wake the blocked pusher, which then fails —
    // otherwise shutdown would deadlock behind a full queue.
    q.close();
    producer.join();
    EXPECT_TRUE(returned.load());
    EXPECT_FALSE(result.load());
    // The queued element survives for draining.
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_FALSE(q.pop(v));
}

TEST(BoundedQueue, ConcurrentProducersConsumers)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 250;
    BoundedQueue<int> q(16);
    std::atomic<long> sum{0};
    std::atomic<int> received{0};

    std::vector<std::thread> consumers;
    for (int i = 0; i < 3; ++i) {
        consumers.emplace_back([&] {
            int v = 0;
            while (q.pop(v)) {
                sum.fetch_add(v);
                received.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    const long n = kProducers * kPerProducer;
    EXPECT_EQ(received.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------
// AdmissionController — the deterministic-deadline arithmetic.
// ---------------------------------------------------------------

/** A controller over one family with a fixed exact-cycles table, at
 *  1 GHz. */
AdmissionController
tableController(int workers, std::vector<Cycle> cycles_by_batch)
{
    return AdmissionController(
        workers, 1, ModelTiming::fromTable(std::move(cycles_by_batch)),
        1e-9);
}

/** Books one request as a sealed batch of one. */
Admission
admitOne(AdmissionController &ac, double arrival_sec,
         double deadline_sec)
{
    const Admission a = ac.open(arrival_sec, deadline_sec);
    if (a.admitted)
        ac.seal();
    return a;
}

TEST(Admission, ExactBookingSingleWorker)
{
    // 1000 cycles at 1 GHz = exactly 1 us of service.
    AdmissionController ac = tableController(1, {1000});
    EXPECT_DOUBLE_EQ(ac.serviceSec(), 1e-6);

    // Idle server: service starts at arrival.
    const Admission a = admitOne(ac, 0.0, 0.0);
    EXPECT_TRUE(a.admitted);
    EXPECT_DOUBLE_EQ(a.startSec, 0.0);
    EXPECT_DOUBLE_EQ(a.completionSec, 1e-6);

    // Same-instant arrival queues behind the first booking.
    const Admission b = admitOne(ac, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(b.startSec, 1e-6);
    EXPECT_DOUBLE_EQ(b.completionSec, 2e-6);

    // An arrival after the backlog clears starts immediately.
    const Admission c = admitOne(ac, 5e-6, 0.0);
    EXPECT_DOUBLE_EQ(c.startSec, 5e-6);
    EXPECT_DOUBLE_EQ(c.completionSec, 6e-6);
    EXPECT_EQ(ac.admitted(), 3u);
}

TEST(Admission, RejectInfeasibleWithoutBooking)
{
    AdmissionController ac = tableController(1, {1000});
    // Deadline shorter than the service time: provably infeasible
    // even on an idle chip.
    const Admission a = admitOne(ac, 0.0, 0.5e-6);
    EXPECT_FALSE(a.admitted);
    EXPECT_DOUBLE_EQ(a.completionSec, 1e-6); // Best case reported.
    EXPECT_EQ(ac.rejected(), 1u);

    // The rejection left no phantom reservation: the next request
    // still sees an idle server.
    const Admission b = admitOne(ac, 0.0, 1.1e-6);
    EXPECT_TRUE(b.admitted);
    EXPECT_DOUBLE_EQ(b.startSec, 0.0);

    // Now the server is busy until 1 us; a deadline of 1.5 us
    // cannot fit another 1 us service.
    const Admission c = admitOne(ac, 0.0, 1.5e-6);
    EXPECT_FALSE(c.admitted);
    EXPECT_EQ(ac.admitted(), 1u);
    EXPECT_EQ(ac.rejected(), 2u);
}

TEST(Admission, MultiWorkerBooksEarliestFree)
{
    AdmissionController ac = tableController(2, {1000});
    // Two same-instant arrivals run in parallel on the two chips.
    EXPECT_DOUBLE_EQ(admitOne(ac, 0.0, 0.0).startSec, 0.0);
    EXPECT_DOUBLE_EQ(admitOne(ac, 0.0, 0.0).startSec, 0.0);
    // The third waits for whichever frees first.
    const Admission c = admitOne(ac, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(c.startSec, 1e-6);
    EXPECT_DOUBLE_EQ(c.completionSec, 2e-6);
}

TEST(Admission, EarliestCompletionDoesNotBook)
{
    AdmissionController ac = tableController(1, {1000});
    EXPECT_DOUBLE_EQ(ac.earliestCompletionFor(0, 0.0), 1e-6);
    EXPECT_DOUBLE_EQ(ac.earliestCompletionFor(0, 0.0), 1e-6); // Same.
    ASSERT_TRUE(admitOne(ac, 0.0, 0.0).admitted);
    EXPECT_DOUBLE_EQ(ac.earliestCompletionFor(0, 0.0), 2e-6);
}

// ---------------------------------------------------------------
// InferenceServer end-to-end.
// ---------------------------------------------------------------

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
};

TEST(Server, ServedRequestsMatchGoldenReference)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 2;
    InferenceServer server(m.reg, cfg);
    EXPECT_EQ(server.serviceCycles(), m.bp->lw->finishCycle());

    std::vector<std::future<Result>> futures;
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < 6; ++i) {
        inputs.push_back(m.randomInput(100 + i));
        futures.push_back(server.submit(
            inputs.back(), static_cast<double>(i) * 1e-7));
    }
    server.drain();

    for (int i = 0; i < 6; ++i) {
        const Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.outcome, Outcome::Served) << "request " << i;
        // The determinism contract: measured == predicted, exactly.
        EXPECT_EQ(r.measuredCycles, r.predictedCycles);
        EXPECT_EQ(r.predictedCycles, server.serviceCycles());
        const ref::QTensor want =
            m.reference(inputs[static_cast<std::size_t>(i)]);
        EXPECT_EQ(r.output.data, want.data) << "request " << i;
    }
    EXPECT_EQ(server.metricsSnapshot().predictionMismatches(), 0u);
}

TEST(Server, InfeasibleDeadlineRejectedWithoutChipCycles)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    InferenceServer server(m.reg, cfg);

    // Deadline = half a service: provably unmeetable.
    const double half = server.serviceSec() / 2;
    auto f = server.submit(m.randomInput(1), 0.0, half);
    const Result r = f.get(); // Resolves at admission time.
    EXPECT_EQ(r.outcome, Outcome::RejectedDeadline);
    EXPECT_EQ(r.measuredCycles, 0u);
    server.drain();
    EXPECT_EQ(server.totalChipCycles(), 0u); // Not one cycle spent.

    // A feasible request afterwards runs normally.
    auto f2 = server.submit(m.randomInput(2), 0.0,
                            2.0 * server.serviceSec());
    EXPECT_EQ(f2.get().outcome, Outcome::Served);
    server.drain();
    EXPECT_EQ(server.totalChipCycles(), server.serviceCycles());

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("rejected_deadline"), 1u);
    EXPECT_EQ(snap.counters().get("served"), 1u);
}

TEST(Server, QueueFullBackpressureRejects)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    cfg.startPaused = true; // Workers gated: the queue must fill.
    InferenceServer server(m.reg, cfg);

    auto f1 = server.submit(m.randomInput(1), 0.0);
    auto f2 = server.submit(m.randomInput(2), 0.0);
    auto f3 = server.submit(m.randomInput(3), 0.0); // Queue full.
    // The rejection resolves immediately, before any worker runs.
    ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f3.get().outcome, Outcome::RejectedQueueFull);

    server.resume();
    EXPECT_EQ(f1.get().outcome, Outcome::Served);
    EXPECT_EQ(f2.get().outcome, Outcome::Served);
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("rejected_queue_full"), 1u);
}

TEST(Server, CycleBudgetExhaustionPropagatesAsFailure)
{
    Compiled m;

    // Session-level: the explicit status replaces the old fatal().
    InferenceSession sess(*m.bp->lw);
    const RunResult rr = sess.runBounded(/*max_cycles=*/10);
    EXPECT_FALSE(rr.completed);
    EXPECT_TRUE(sess.timedOut());
    // reset() rebuilds the chip; the rerun completes exactly.
    sess.reset();
    EXPECT_FALSE(sess.timedOut());
    const RunResult ok = sess.runBounded();
    EXPECT_TRUE(ok.completed);
    EXPECT_EQ(ok.cycles, m.bp->lw->finishCycle());

    // Server-level: the timeout surfaces as Outcome::Failed instead
    // of a bogus result.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxCyclesPerRun = 10;
    InferenceServer server(m.reg, cfg);
    const Result r = server.submit(m.randomInput(4), 0.0).get();
    EXPECT_EQ(r.outcome, Outcome::Failed);
    EXPECT_EQ(server.metricsSnapshot().counters().get("failed"), 1u);
}

TEST(Server, ShutdownRejectsBlockedSubmitterWithRecordedMetrics)
{
    // Regression: a submitter blocked on a full queue during
    // shutdown used to fabricate its Result outside the metrics
    // path — the rejection was invisible in the counters and carried
    // no booking. It must be recorded like every other rejection.
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 1;
    cfg.startPaused = true; // Gate the worker so the queue stays full.
    InferenceServer server(m.reg, cfg);

    auto f1 = server.submit(m.randomInput(1), 0.0, 0.0,
                            InferenceServer::OnFull::Block);
    std::atomic<bool> submitted{false};
    std::future<Result> f2;
    std::thread blocked([&] {
        // The queue is full and the pool is paused: this blocks
        // inside submit() until shutdown() closes the queue.
        f2 = server.submit(m.randomInput(2), 1e-7, 0.0,
                           InferenceServer::OnFull::Block);
        submitted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(submitted.load());

    server.shutdown(); // Wakes the blocked submitter (close first).
    blocked.join();

    const Result r1 = f1.get();
    EXPECT_EQ(r1.outcome, Outcome::Served); // Queued work drains.
    const Result r2 = f2.get();
    EXPECT_EQ(r2.outcome, Outcome::RejectedQueueFull);
    // The booking fields survive into the recorded result.
    EXPECT_GT(r2.completionSec, 0.0);

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters().get("submitted"), 2u);
    EXPECT_EQ(snap.counters().get("served"), 1u);
    EXPECT_EQ(snap.counters().get("rejected_queue_full"), 1u);
}

TEST(ServerMetrics, ThroughputWindowCountsOnlyServed)
{
    // Regression: throughputRps divided the served count by a window
    // whose endpoints included DeadlineMissed completions — a late
    // straggler diluted the rate of the requests that counted.
    serve::ServerMetrics metrics(1.0, 1, 4);

    Result served;
    served.outcome = Outcome::Served;
    served.arrivalSec = 0.0;
    served.startSec = 0.0;
    served.completionSec = 10.0;
    metrics.record(served);

    Result missed;
    missed.outcome = Outcome::DeadlineMissed;
    missed.arrivalSec = 0.0;
    missed.startSec = 10.0;
    missed.completionSec = 20.0;
    metrics.record(missed);

    // Numerator and window must agree: 1 served over [0, 10].
    EXPECT_DOUBLE_EQ(metrics.throughputRps(), 0.1);
    // The makespan keeps the all-completions semantics.
    EXPECT_DOUBLE_EQ(metrics.makespanSec(), 20.0);
}

TEST(Server, MetricsJsonIsWellFormed)
{
    Compiled m;
    ServerConfig cfg;
    cfg.workers = 2;
    InferenceServer server(m.reg, cfg);
    for (int i = 0; i < 4; ++i) {
        server.submit(m.randomInput(static_cast<std::uint64_t>(i)),
                      static_cast<double>(i) * 1e-7);
    }
    server.drain();

    const std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
    EXPECT_NE(json.find("\"served\":4"), std::string::npos);
    EXPECT_NE(json.find("\"service_cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
    EXPECT_NE(json.find("\"prediction_mismatches\":0"),
              std::string::npos);
}

} // namespace
} // namespace tsp
