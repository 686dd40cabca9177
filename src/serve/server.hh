/**
 * @file
 * InferenceServer: a multi-chip serving tier over the host runtime.
 *
 * A pool of worker threads, each owning one execution engine (a
 * Backend: one simulated chip or a pod of chips), serves either the
 * compiled families of a ModelRegistry — a single model is the
 * one-family case — or, for engines that carry their own programs
 * (pods), a fixed exact cycles(b) table. Requests flow through a
 * deadline-aware admission controller (exact, because the schedule's
 * cycle count is known before it runs — paper Eq. 4, IV.F, V.c), then
 * a bounded FIFO queue with backpressure, one per worker: each sealed
 * batch runs on the worker its booking chose, so the engine that
 * serves a request — and, with fault injection live, which request
 * absorbs which upset — is a pure function of the admission history.
 * Per-request outcomes, latency distributions and throughput are
 * aggregated in ServerMetrics and dumped as JSON.
 *
 * Batching: with batchMax > 1 (and a batch-capable backend), submit()
 * doubles as the batcher. The first admitted request *opens* a batch;
 * later arrivals within batchWindowSec of the leader try to *join* —
 * a join is committed only when the exact cycles(k+1) completion
 * still meets every member's deadline (AdmissionController::tryJoin),
 * so the batcher proves feasibility instead of gambling on a window.
 * A batch seals (moves to the queue) when it is full, when an arrival
 * falls outside the window or cannot feasibly join, or when drain()/
 * shutdown() flushes it. Batches are formed at admission time under
 * the submit lock, so the grouping is a deterministic function of the
 * (monotone) arrival stamps.
 *
 * Recovery is one step. A mid-batch machine check condemns the
 * engine, and the *whole batch* takes its next attempt: a migration
 * from the last clean snapshot when one exists (snapshotEveryCycles
 * armed), else a retry from cycle 0. A failed attempt costs the
 * cycles it ran plus the engine rebuild, and every attempt is booked
 * before it runs — burned time plus the program cycles left — and
 * taken only when that booking meets the tightest member deadline,
 * so a recovered batch completes exactly at its last booking.
 * Per-sample outputs are only read from a completed run.
 *
 * Admission has one entry and one refusal: every request, a live
 * arrival or a preempted victim, enters a batch through the same step
 * (join, else preempt, else seal and open), and every request no
 * engine will run — malformed, after shutdown, queue-full or
 * deadline-infeasible — resolves in one place, recorded like any
 * other outcome.
 *
 * Registry servers: submitModel() routes each request to a family;
 * batches are single-family; each sealed job carries a
 * registry-pinned program its worker binds before running (weight
 * swaps between families cost exactly the modeled image re-stage,
 * which admission booked; with one family nothing ever swaps).
 * Tenant SLO classes scale deadlines and rank priorities; with
 * preemption on, a higher-priority arrival that is infeasible behind
 * the open batch but feasible in its place takes the booking and the
 * open batch's members are re-admitted at once through the arrivals'
 * step (shedding only the provably infeasible ones). Only the *open*
 * batch is preemptible — it is pure admission state under the submit
 * lock, so preemption decisions replay deterministically; queued and
 * running batches are never revoked.
 *
 * Timeline note: all latencies are *virtual* chip time (seconds at
 * the configured clock). The host threads merely reproduce, slower,
 * a timeline whose every event was already fixed at admission — the
 * worker's measured cycle count is checked against the booking and
 * any divergence is surfaced as a prediction mismatch.
 */

#ifndef TSP_SERVE_SERVER_HH
#define TSP_SERVE_SERVER_HH

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/batch_program.hh"
#include "serve/admission.hh"
#include "serve/backend.hh"
#include "serve/metrics.hh"
#include "serve/model_registry.hh"
#include "serve/request.hh"
#include "serve/request_queue.hh"

namespace tsp::serve {

/**
 * One tenant service class: how much deadline slack its requests
 * get and how it ranks when bookings collide.
 */
struct SloClass
{
    /**
     * Scales the slack (deadline - arrival) of every request in the
     * class: effective = arrival + slack * deadlineMultiplier. > 1
     * relaxes (batch/bulk tenants), < 1 tightens (interactive
     * tenants), 1 passes the caller's deadline through.
     */
    double deadlineMultiplier = 1.0;

    /**
     * Preemption rank. With ServerConfig::preemption, an arrival
     * whose deadline is provably infeasible behind the *open* batch
     * but feasible in its place may preempt it iff its class
     * priority is strictly higher than the open batch's; the
     * preempted members are re-admitted immediately (never dropped),
     * shedding only those whose own deadlines became infeasible.
     */
    int priority = 0;
};

/** Serving-tier configuration. */
struct ServerConfig
{
    /** Worker threads == simulated chips (>= 1). */
    int workers = 2;

    /** Sealed batches each worker's FIFO may hold (the
     *  backpressure point; the bound is per worker). */
    std::size_t queueCapacity = 64;

    /**
     * Per-run cycle budget safety net. A valid compiled program
     * always retires in exactly its predicted cycles; exhaustion is
     * surfaced as Outcome::Failed (see InferenceSession::runBounded).
     */
    Cycle maxCyclesPerRun = 500'000'000;

    /**
     * Start with the worker pool gated: requests queue up (and the
     * bounded queue exerts backpressure) until resume() is called.
     * Deterministic backpressure tests depend on this.
     */
    bool startPaused = false;

    /**
     * Re-runs from cycle 0 allowed per batch after machine checks (on
     * a rebuilt chip with a derived fault seed — see
     * InferenceSession::reset). Like a migration, a retry is taken
     * only when its booking meets every member's deadline; exhaustion
     * yields FailedMachineCheck.
     */
    int maxRetries = 2;

    /**
     * Periodic engine-snapshot cadence in cycles; nonzero arms
     * mid-batch migration, 0 disables both. A machine-checked batch
     * with a clean snapshot resumes from it on a rebuilt engine
     * (Backend::migrateAndResume) instead of re-running from cycle 0,
     * up to InferenceSession::kMaxMigrations times per batch; without
     * one it falls back to a retry. See Backend::enableSnapshots().
     */
    Cycle snapshotEveryCycles = 0;

    /**
     * Largest batch submit() may form (clamped to what the admission
     * table and every backend support). 1 disables batching and the
     * server behaves exactly like the pre-batching tier.
     */
    int batchMax = 1;

    /**
     * How long (virtual seconds) after the batch leader's arrival a
     * later request may still join its open batch. 0 batches only
     * same-arrival-stamp requests. Sealing is driven by subsequent
     * submissions and drain(); there is no wall-clock timer (the
     * timeline is virtual), so call drain() to flush a trailing open
     * batch.
     */
    double batchWindowSec = 0.0;

    /**
     * Called once for every resolved request (all outcomes), after
     * it is recorded in the server metrics. Invoked from worker
     * threads and from the submitting thread (admission rejections),
     * possibly concurrently; must be thread-safe and must not call
     * back into the server. Lets a fleet controller aggregate
     * time-series without paying one std::future per request.
     */
    std::function<void(const Result &)> onResult;

    /**
     * Byte budget of the pool-shared execution-trace cache (LRU,
     * see sim/exec_trace.hh). A worker that runs a compiled program
     * with no resident trace records one; later serves of that
     * program, on any worker, replay it bit-identically instead of
     * re-simulating per cycle. Which runs record depends on host
     * thread timing, so the record/replay counts are accessors only
     * (recordCount()), never part of metricsJson(). 0 disables the
     * replay tier entirely. Sessions self-gate when replay would be
     * unsound (fault injection), so leaving this on is always safe.
     */
    std::size_t traceCacheBytes = TraceCache::kDefaultBudget;

    /**
     * Tenant SLO classes, indexed by submitModel()'s slo_class.
     * Empty means one default class (multiplier 1, priority 0) —
     * the single-tenant behavior.
     */
    std::vector<SloClass> sloClasses;

    /**
     * Allow priority preemption of the open batch (see SloClass).
     * Off by default: with preemption disabled a multi-class server
     * behaves exactly like the priority-free tier (priorities only
     * rank, they never revoke).
     */
    bool preemption = false;

    /** Configuration applied to every worker's chip. */
    ChipConfig chip{};
};

/** Builds one worker's execution engine (chip or pod). */
using BackendFactory =
    std::function<std::unique_ptr<Backend>(int worker)>;

/** A pool of simulated TSP engines serving compiled workloads. */
class InferenceServer
{
  public:
    /** What submit() does when the bounded queue is full. */
    enum class OnFull : std::uint8_t {
        Reject, ///< Fail fast with Outcome::RejectedQueueFull.
        Block,  ///< Wait for a slot (open-loop generator backpressure).
    };

    /**
     * Table form, for engines that carry their own programs (e.g.
     * pods): one Backend per worker from @p factory, booked against
     * @p cycles_by_batch[b-1], the exact cycle count of the batch-b
     * program every backend can run (e.g.
     * PodBackend::serviceCyclesTable).
     */
    InferenceServer(const BackendFactory &factory,
                    std::vector<Cycle> cycles_by_batch,
                    ServerConfig cfg = {});

    /**
     * Registry form: one SessionBackend per worker serves every
     * family in @p registry (one family for a single model). Each
     * worker starts staged with family 0; batch jobs carry a
     * registry-pinned program, weight swaps between families are
     * booked exactly into admission, and submitModel() routes per
     * request; the swap a booking pays for happens on the worker it
     * was booked on. @p registry must outlive the server.
     */
    explicit InferenceServer(ModelRegistry &registry,
                             ServerConfig cfg = {});

    /**
     * Registry form with operator-supplied backends (e.g. fault
     * plans seeded per worker). Every backend must support
     * bindProgram(), as SessionBackend does. @p registry must
     * outlive the server.
     */
    InferenceServer(const BackendFactory &factory,
                    ModelRegistry &registry, ServerConfig cfg = {});

    /** Drains and joins the pool. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submits one request; never blocks on chip work (admission
     * rejections and queue-full rejections resolve the returned
     * future immediately; with OnFull::Block the call can wait for a
     * queue slot).
     *
     * @param input dense [h x w x c] int8 model input.
     * @param arrival_sec arrival stamp on the virtual timeline;
     *        submissions must be monotone for FIFO semantics to
     *        mirror the booking.
     * @param deadline_sec absolute virtual deadline; <= 0 for none.
     */
    std::future<Result> submit(std::vector<std::int8_t> input,
                               double arrival_sec,
                               double deadline_sec = 0.0,
                               OnFull on_full = OnFull::Reject);

    /**
     * submit() addressed to one model family and tenant class (see
     * ServerConfig::sloClasses). An unknown model or class resolves
     * as RejectedInvalid; submit() is submitModel(0, 0, ...).
     */
    std::future<Result> submitModel(int model, int slo_class,
                                    std::vector<std::int8_t> input,
                                    double arrival_sec,
                                    double deadline_sec = 0.0,
                                    OnFull on_full = OnFull::Reject);

    /**
     * submitModel() without the future: the request resolves through
     * ServerConfig::onResult (and the metrics) only. This is the
     * fleet soak path — a million-request run must not allocate a
     * million promise/future pairs it never reads.
     */
    void submitModelDetached(int model, int slo_class,
                             std::vector<std::int8_t> input,
                             double arrival_sec,
                             double deadline_sec = 0.0,
                             OnFull on_full = OnFull::Reject);

    /**
     * Seals and enqueues the open batch, if any, without draining.
     * The fleet controller calls this before snapshotting a pod's
     * booked backlog so a trailing open batch is not invisible to
     * the autoscaler.
     */
    void flushOpenBatch();

    /** Releases a startPaused pool (idempotent). */
    void resume();

    /** Flushes the open batch (if any) and blocks until every
     * submitted request has resolved. */
    void drain();

    /**
     * Closes the queue (rejecting any submitter still blocked on a
     * full queue — recorded like every other rejection), flushes the
     * open batch, drains and joins the workers. Called by the
     * destructor; subsequent submits reject. Idempotent.
     */
    void shutdown();

    /** @return exact cycles one batch-1 inference consumes. */
    Cycle serviceCycles() const { return admission_.serviceCycles(); }

    /** @return exact virtual seconds one batch-1 inference consumes. */
    double serviceSec() const { return admission_.serviceSec(); }

    /** @return pool width. */
    int workers() const { return cfg_.workers; }

    /** @return the effective batch cap (config clamped to the
     * admission table and every backend's maxBatch). */
    int batchMax() const { return effBatchMax_; }

    /** @return model families served (1 for the table form). */
    int models() const { return admission_.models(); }

    /** @return the admission controller (booking state + counters). */
    const AdmissionController &admission() const { return admission_; }

    /** @return a consistent snapshot of the aggregated metrics. */
    ServerMetrics metricsSnapshot() const;

    /**
     * @return the full serving report (config, model, registry,
     * counters, latency percentiles, throughput) as a JSON document.
     * Every field is a pure function of the submitted stream, so
     * same-seed runs produce byte-identical reports.
     */
    std::string metricsJson() const;

    /**
     * @return total chip cycles consumed across the pool. Only
     * meaningful when idle (after drain()): proves rejected requests
     * cost zero cycles.
     */
    Cycle totalChipCycles() const;

    /** @return recorded traces resident in the shared cache. */
    std::size_t traceCacheSize() const
    {
        return traceCache_ ? traceCache_->size() : 0;
    }

    /** @return bytes those resident traces hold. */
    std::size_t traceCacheBytes() const
    {
        return traceCache_ ? traceCache_->memoryBytes() : 0;
    }

    /** @return pool-wide runs served by trace replay. */
    std::uint64_t replayCount() const;

    /** @return pool-wide runs that recorded a trace. */
    std::uint64_t recordCount() const;

  private:
    /** One request riding in a batch. */
    struct Member
    {
        Request req;
        /** Times this member's open batch was preempted so far. */
        std::uint32_t preemptions = 0;
        /** Unset for detached submissions (onResult-only). */
        std::optional<std::promise<Result>> promise;
    };

    /** One sealed batch: the queue's unit of work. */
    struct BatchJob
    {
        std::vector<Member> members;
        Admission booking; ///< Final sealed booking (whole batch).
        int model = 0;     ///< Model family the batch runs.
        /** Registry-pinned compiled program (null for the table
         * form): safe against eviction while the job is queued or
         * running. */
        std::shared_ptr<BatchProgram> program;
    };

    /** The batch admission is still growing (guarded by submitMu_). */
    struct OpenBatch
    {
        std::vector<Member> members;
        double leaderArrival = 0.0;
        int model = 0;
        int priority = 0; ///< Highest member priority.
    };

    /** Delegation target of every public constructor. */
    InferenceServer(const BackendFactory &factory, int models,
                    ModelTiming timing, ModelRegistry *registry,
                    ServerConfig cfg);

    void workerLoop(int w);
    std::future<Result>
    submitImpl(int model, int slo_class,
               std::vector<std::int8_t> input, double arrival_sec,
               double deadline_sec, OnFull on_full, bool want_future);
    /**
     * The one step that puts a request in a batch, for arrivals and
     * preempted victims alike (requires submitMu_): join the open
     * batch, else preempt it, else seal it and open a new one;
     * @p at_sec is the virtual time of the attempt. A request that
     * cannot be admitted is refused.
     * @return true when @p m was admitted.
     */
    bool admitLocked(Member m, int priority, double at_sec,
                     OnFull on_full);
    /** Preempts the open batch for @p m (feasibility already
     * proved): books and seals the preemptor, then re-admits the
     * victims at @p at_sec (requires submitMu_). */
    void preemptLocked(Member m, int priority, double at_sec);
    /** @return the fields every outcome of @p m shares, in a batch
     * of @p batch booked as @p booking. */
    Result resultFor(const Member &m, int batch,
                     const Admission &booking) const;
    /** Resolves a request no engine will run: recorded, resolved,
     * released from the in-flight count. */
    void refuse(Member &m, Outcome outcome, const Admission &booking,
                int batch);
    /** Resolves one member: metrics hook already ran; fires the
     * onResult callback, then the promise (if attached). */
    void resolveMember(Member &m, Result r);
    /** Seals + enqueues the open batch (requires submitMu_). */
    void sealOpenLocked();
    void finishBatch(BatchJob &job, std::vector<Result> results);
    /** Retires @p n resolved requests; wakes drain() at zero. */
    void releaseInflight(std::uint64_t n);
    /** @return the batch cap for @p model (config clamped to the
     * model's compiled sizes and every backend). */
    int effBatchMaxFor(int model) const;
    /** @return the queue feeding worker @p w's batches. */
    BoundedQueue<BatchJob> &queueFor(int w)
    {
        return *queues_[static_cast<std::size_t>(w)];
    }

    const ServerConfig cfg_;
    ModelRegistry *registry_ = nullptr; ///< Null for the table form.
    /** Effective SLO classes (cfg_.sloClasses or one default). */
    std::vector<SloClass> classes_;

    AdmissionController admission_;
    /** One FIFO per worker, fed by the bookings. */
    std::vector<std::unique_ptr<BoundedQueue<BatchJob>>> queues_;

    std::vector<std::unique_ptr<Backend>> backends_;
    std::shared_ptr<TraceCache> traceCache_; ///< Null when disabled.
    std::vector<std::thread> threads_;
    int effBatchMax_ = 1;
    int backendBatchCap_ = 1; ///< Min maxBatch() over the backends.
    /** Bytes a valid input must have (0 = backend can't say). */
    std::size_t expectedInput_ = 0;

    std::mutex submitMu_; ///< Serializes admission + batching + enqueue.
    OpenBatch open_;

    std::mutex pauseMu_;
    std::condition_variable pauseCv_;
    bool paused_;

    mutable std::mutex doneMu_; ///< Guards metrics_ and drain()'s wait.
    std::condition_variable doneCv_;
    /** Submitted requests not yet resolved. */
    std::atomic<std::uint64_t> inflight_{0};
    ServerMetrics metrics_;

    std::atomic<RequestId> nextId_{1};
    bool shutdown_ = false; ///< Guarded by submitMu_.
};

} // namespace tsp::serve

#endif // TSP_SERVE_SERVER_HH
