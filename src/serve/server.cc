#include "serve/server.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace tsp::serve {

InferenceServer::InferenceServer(const BackendFactory &factory,
                                 std::vector<Cycle> cycles_by_batch,
                                 ServerConfig cfg)
    : InferenceServer(factory, 1,
                      ModelTiming::fromTable(
                          std::move(cycles_by_batch)),
                      nullptr, cfg)
{
}

InferenceServer::InferenceServer(ModelRegistry &registry,
                                 ServerConfig cfg)
    : InferenceServer(
          [&registry, &cfg](int) {
              int cap = 1;
              for (int m = 0; m < registry.modelCount(); ++m)
                  cap = std::max(cap, registry.maxBatch(m));
              return std::make_unique<SessionBackend>(
                  registry.acquire(0, 1), cap, cfg.chip);
          },
          registry, cfg)
{
}

InferenceServer::InferenceServer(const BackendFactory &factory,
                                 ModelRegistry &registry,
                                 ServerConfig cfg)
    : InferenceServer(
          factory, registry.modelCount(),
          // Lazy pulls: a batch size the batcher never forms is never
          // compiled (the registry memoizes exact cycles).
          ModelTiming{
              [&registry](int m, int b) {
                  return registry.cycles(m, b);
              },
              [&registry](int m) { return registry.maxBatch(m); },
              // The swap re-stages the family's weight/constant
              // image; batch sizes of one family share placements
              // (conv-placement cache), so batch-1's image is the
              // family's staging cost.
              [&registry](int m) { return registry.swapSec(m, 1); }},
          &registry, cfg)
{
}

InferenceServer::InferenceServer(const BackendFactory &factory,
                                 int models, ModelTiming timing,
                                 ModelRegistry *registry,
                                 ServerConfig cfg)
    : cfg_(cfg), registry_(registry),
      admission_(cfg.workers, models, std::move(timing),
                 cfg.chip.cyclePeriodSec()),
      paused_(cfg.startPaused),
      metrics_(admission_.serviceSec(), cfg.workers,
               cfg.queueCapacity)
{
    TSP_ASSERT(cfg_.workers >= 1);
    classes_ = cfg_.sloClasses;
    if (classes_.empty())
        classes_.push_back(SloClass{});
    // One FIFO per worker: each sealed batch goes to the worker its
    // booking assumed, so the engine that serves a request is a pure
    // function of the admission history.
    queues_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int w = 0; w < cfg_.workers; ++w)
        queues_.push_back(std::make_unique<BoundedQueue<BatchJob>>(
            cfg_.queueCapacity));
    backends_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int w = 0; w < cfg_.workers; ++w)
        backends_.push_back(factory(w));
    // Every worker shares the trace cache. A snapshot cadence arms
    // mid-batch migration (0 disables both).
    for (const auto &b : backends_) {
        b->attachTraceCache(traceCache_);
        b->enableSnapshots(cfg_.snapshotEveryCycles);
    }
    backendBatchCap_ = backends_[0]->maxBatch();
    for (const auto &b : backends_)
        backendBatchCap_ = std::min(backendBatchCap_, b->maxBatch());
    effBatchMax_ = effBatchMaxFor(0);
    expectedInput_ = backends_[0]->expectedInputBytes();
    threads_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int w = 0; w < cfg_.workers; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

InferenceServer::~InferenceServer() { shutdown(); }

Result
InferenceServer::resultFor(const Member &m, int batch,
                           const Admission &booking) const
{
    Result r;
    r.id = m.req.id;
    r.model = m.req.model;
    r.preemptions = m.preemptions;
    r.batch = batch;
    // An out-of-range model (RejectedInvalid) has no timing; report
    // the default family's like any other malformed request.
    const bool known = m.req.model >= 0 && m.req.model < admission_.models();
    r.predictedCycles =
        admission_.serviceCyclesFor(known ? m.req.model : 0, batch);
    r.arrivalSec = m.req.arrivalSec;
    r.startSec = booking.startSec;
    r.completionSec = booking.completionSec;
    return r;
}

void
InferenceServer::refuse(Member &m, Outcome outcome,
                        const Admission &booking, int batch)
{
    Result r = resultFor(m, batch, booking);
    r.outcome = outcome;
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        metrics_.record(r);
    }
    resolveMember(m, std::move(r));
    releaseInflight(1);
}

void
InferenceServer::resolveMember(Member &m, Result r)
{
    if (cfg_.onResult)
        cfg_.onResult(r);
    if (m.promise)
        m.promise->set_value(std::move(r));
}

void
InferenceServer::sealOpenLocked()
{
    if (open_.members.empty())
        return;
    // Moving the members out leaves the open batch empty.
    BatchJob job{std::move(open_.members), admission_.seal(),
                 open_.model, nullptr};
    // The registry handle rides with the job: LRU eviction may drop
    // the program from the registry while the batch is queued, but
    // the worker's copy stays pinned. acquire() runs here, on the
    // submit path, so the LRU/eviction sequence is a pure function
    // of the admission history.
    if (registry_)
        job.program =
            registry_->acquire(job.model, job.booking.batch);
    // push() may block (only workers free space) but never loses the
    // job: on failure — the queue was closed by shutdown() — the
    // members are resolved as recorded queue-full rejections, booking
    // fields intact, exactly like any other rejection.
    if (queueFor(job.booking.worker).push(std::move(job)))
        return;
    for (Member &m : job.members)
        refuse(m, Outcome::RejectedQueueFull, job.booking,
               job.booking.batch);
}

std::future<Result>
InferenceServer::submit(std::vector<std::int8_t> input,
                        double arrival_sec, double deadline_sec,
                        OnFull on_full)
{
    return submitImpl(0, 0, std::move(input), arrival_sec,
                      deadline_sec, on_full, /*want_future=*/true);
}

std::future<Result>
InferenceServer::submitModel(int model, int slo_class,
                             std::vector<std::int8_t> input,
                             double arrival_sec, double deadline_sec,
                             OnFull on_full)
{
    return submitImpl(model, slo_class, std::move(input),
                      arrival_sec, deadline_sec, on_full,
                      /*want_future=*/true);
}

void
InferenceServer::submitModelDetached(int model, int slo_class,
                                     std::vector<std::int8_t> input,
                                     double arrival_sec,
                                     double deadline_sec,
                                     OnFull on_full)
{
    submitImpl(model, slo_class, std::move(input), arrival_sec,
               deadline_sec, on_full, /*want_future=*/false);
}

int
InferenceServer::effBatchMaxFor(int model) const
{
    const int cap =
        std::min(admission_.maxBatchFor(model), backendBatchCap_);
    return std::max(1, std::min(cfg_.batchMax, cap));
}

std::future<Result>
InferenceServer::submitImpl(int model, int slo_class,
                            std::vector<std::int8_t> input,
                            double arrival_sec, double deadline_sec,
                            OnFull on_full, bool want_future)
{
    Member m;
    m.req = Request{nextId_.fetch_add(1, std::memory_order_relaxed),
                    std::move(input), arrival_sec, deadline_sec,
                    model, slo_class};
    std::future<Result> f;
    if (want_future)
        f = m.promise.emplace().get_future();
    inflight_.fetch_add(1);

    // An unknown model or tenant class is malformed, exactly like a
    // mis-sized input: refused before it can touch admission state.
    if (model < 0 || model >= admission_.models() || slo_class < 0 ||
        slo_class >= static_cast<int>(classes_.size())) {
        refuse(m, Outcome::RejectedInvalid, Admission{}, 1);
        return f;
    }

    // The tenant class scales the *slack*, not the absolute stamp;
    // everything downstream (join checks, retry budgets, preemption
    // probes) sees only the effective deadline.
    const SloClass &cls =
        classes_[static_cast<std::size_t>(slo_class)];
    if (deadline_sec > 0.0)
        m.req.deadlineSec = arrival_sec + (deadline_sec - arrival_sec) *
                                              cls.deadlineMultiplier;

    // Malformed input is refused before it can touch the admission
    // state or fault inside a worker thread.
    const std::size_t expect =
        registry_ ? registry_->expectedInputBytes(model)
                  : expectedInput_;
    if (expect != 0 && m.req.input.size() != expect) {
        refuse(m, Outcome::RejectedInvalid, Admission{}, 1);
        return f;
    }

    std::lock_guard<std::mutex> lock(submitMu_);
    if (shutdown_)
        refuse(m, Outcome::RejectedQueueFull, Admission{}, 1);
    else
        admitLocked(std::move(m), cls.priority, arrival_sec, on_full);
    return f;
}

bool
InferenceServer::admitLocked(Member m, int priority, double at_sec,
                             OnFull on_full)
{
    const int model = m.req.model;
    const double deadline = m.req.deadlineSec;
    if (!open_.members.empty()) {
        // Join the open batch first: a joined request consumes no
        // queue slot of its own and cannot be queue-full rejected.
        // Batches are single-family — a request for another model
        // can never join.
        if (model == open_.model &&
            at_sec <= open_.leaderArrival + cfg_.batchWindowSec &&
            admission_.tryJoin(at_sec, deadline).admitted) {
            open_.members.push_back(std::move(m));
            open_.priority = std::max(open_.priority, priority);
            if (static_cast<int>(open_.members.size()) >=
                effBatchMaxFor(model))
                sealOpenLocked();
            return true;
        }
        // Priority preemption: this request outranks the open batch,
        // cannot make its deadline behind it, but provably can in
        // its place. Both probes book nothing, so declining leaves no
        // trace. Victims carry their batch's priority, so they never
        // outrank the batch they re-form.
        if (cfg_.preemption && priority > open_.priority &&
            deadline > 0.0 &&
            admission_.earliestCompletionFor(model, at_sec) >
                deadline &&
            admission_.completionIfPreempted(at_sec, model) <=
                deadline) {
            preemptLocked(std::move(m), priority, at_sec);
            return true;
        }
        // Window expired or the join was provably infeasible: this
        // request starts the next batch.
        sealOpenLocked();
    }

    // Backpressure check *before* booking so a full queue never
    // leaves a phantom reservation in the admission state. Only
    // submitters (serialized here) add to a queue, so a non-full
    // observation cannot be invalidated before our push. The
    // relevant queue is the one this booking would land on.
    if (on_full == OnFull::Reject &&
        queueFor(admission_.bestWorkerFor(model, at_sec)).full()) {
        refuse(m, Outcome::RejectedQueueFull, Admission{}, 1);
        return false;
    }
    const Admission booking = admission_.open(at_sec, deadline, model);
    if (!booking.admitted) {
        // A failed open() books nothing and leaves no open batch.
        refuse(m, Outcome::RejectedDeadline, booking, 1);
        return false;
    }
    open_.members.push_back(std::move(m));
    open_.leaderArrival = at_sec;
    open_.model = model;
    open_.priority = priority;
    if (effBatchMaxFor(model) <= 1)
        sealOpenLocked();
    return true;
}

void
InferenceServer::preemptLocked(Member m, int priority, double at_sec)
{
    // Capture the victims and undo their booking completely; the
    // controller returns to its pre-open timeline.
    OpenBatch victims = std::exchange(open_, OpenBatch{});
    admission_.rollbackOpen();

    // The feasibility probe already proved the preemptor admits.
    // Seal it at once: the victims must re-book *now* (only one
    // batch may be open, and deferring their fate to a later submit
    // would leave them booked nowhere).
    const bool booked =
        admitLocked(std::move(m), priority, at_sec, OnFull::Block);
    TSP_ASSERT(booked);
    sealOpenLocked();

    // Re-admit the victims in their original admission order at the
    // preemption's virtual time, through the arrivals' own step:
    // feasible members re-batch; members whose own deadline became
    // infeasible are shed as recorded RejectedDeadline — re-decided,
    // never dropped. A victim is never refused for backpressure.
    std::uint64_t requeued = 0;
    for (Member &v : victims.members) {
        v.preemptions += 1;
        if (admitLocked(std::move(v), victims.priority, at_sec,
                        OnFull::Block))
            ++requeued;
    }
    std::lock_guard<std::mutex> dl(doneMu_);
    metrics_.recordPreemption(requeued,
                              victims.members.size() - requeued);
}

void
InferenceServer::workerLoop(int w)
{
    Backend &be = *backends_[static_cast<std::size_t>(w)];
    const double period = cfg_.chip.cyclePeriodSec();
    BatchJob job;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(pauseMu_);
            pauseCv_.wait(lock, [&] { return !paused_; });
        }
        if (!queueFor(w).pop(job))
            return; // Closed and drained.

        // Multi-model: arm this family's compiled program before the
        // batch touches the engine. The shared_ptr was pinned at seal
        // time, so a registry eviction cannot free it mid-run.
        if (job.program)
            be.bindProgram(job.program);

        const int k = static_cast<int>(job.members.size());
        const Cycle predicted =
            admission_.serviceCyclesFor(job.model, k);
        const double deadline = job.booking.deadlineSec;
        // Engine rebuilds are not free: every attempt after a machine
        // check first re-stages the engine image over the host link.
        const double rebuild = be.rebuildPenaltySec();
        // Snapshots only serve a migration, and any recovery attempt
        // books at least a rebuild plus the whole program after the
        // batch's start (a failed attempt ran at least up to its last
        // snapshot). When that misses the deadline, the loop below
        // refuses every recovery, so the batch takes no snapshots.
        if (cfg_.snapshotEveryCycles > 0) {
            const bool recoverable =
                deadline <= 0.0 ||
                job.booking.startSec + rebuild +
                        static_cast<double>(predicted) * period <=
                    deadline;
            be.enableSnapshots(recoverable ? cfg_.snapshotEveryCycles
                                           : 0);
        }

        // One recovery step. An attempt starts at program cycle
        // `from`: 0 for the first attempt and every retry (a fresh
        // run), the last clean snapshot's cycle for a migration. A
        // failed attempt burns the cycles it ran plus a rebuild, and
        // the next one is taken only when its booking — the time
        // burned plus the program cycles left — meets the batch's
        // tightest deadline. The whole batch recovers or fails
        // together.
        std::uint32_t retries = 0;
        int migrations = 0;
        std::uint64_t machine_checks = 0;
        std::uint64_t corrected = 0;
        double burned = 0.0;
        Cycle from = 0;
        // The one booking rule: an attempt that runs `left` program
        // cycles after everything burned so far ends here.
        const auto endAfter = [&](Cycle left) {
            return job.booking.startSec + burned +
                   static_cast<double>(left) * period;
        };
        RunResult rr;
        for (;;) {
            if (from == 0) {
                // resetBatch() rebuilds a condemned (or timed-out)
                // engine, with a derived fault seed so a retry does
                // not replay the identical environmental upset, and
                // arms the compiled batch-k program.
                be.resetBatch(k);
                for (int s = 0; s < k; ++s)
                    be.writeSample(
                        s,
                        job.members[static_cast<std::size_t>(s)]
                            .req.input);
            }
            const std::uint64_t cor0 = be.correctedErrors();
            rr = from == 0 ? be.runBounded(cfg_.maxCyclesPerRun)
                           : be.migrateAndResume(cfg_.maxCyclesPerRun);
            // A migrated engine's counter rewinds to its snapshot-time
            // value; only count forward progress.
            const std::uint64_t cor1 = be.correctedErrors();
            if (cor1 > cor0)
                corrected += cor1 - cor0;
            if (rr.status != RunStatus::MachineCheck)
                break;
            machine_checks += be.machineCheckCount();
            burned += static_cast<double>(rr.cycles) * period + rebuild;
            const bool migrate =
                rr.resumeAt > 0 &&
                migrations < InferenceSession::kMaxMigrations;
            if (!migrate && static_cast<int>(retries) >= cfg_.maxRetries)
                break;
            const Cycle next = migrate ? rr.resumeAt : 0;
            if (deadline > 0.0 && endAfter(predicted - next) > deadline)
                break;
            if (migrate)
                ++migrations;
            else
                ++retries;
            from = next;
        }

        const Cycle measured = from + rr.cycles;
        std::vector<Result> results;
        results.reserve(static_cast<std::size_t>(k));
        for (const Member &m : job.members) {
            Result &r = results.emplace_back(
                resultFor(m, k, job.booking));
            r.measuredCycles = measured;
            r.retries = retries;
            r.migrations = static_cast<std::uint32_t>(migrations);
            r.machineChecks = machine_checks;
            r.correctedErrors = corrected;
        }

        if (rr.status == RunStatus::MachineCheck) {
            // Every permitted attempt machine-checked. No output is
            // ever read from a condemned engine — a corrupted batch
            // cannot reach clients as a partial success.
            for (Result &r : results)
                r.outcome = Outcome::FailedMachineCheck;
        } else if (!rr.completed) {
            // Timeout propagates as an explicit failure; the backend
            // rebuilds its engine on the next reset.
            for (Result &r : results)
                r.outcome = Outcome::Failed;
        } else {
            if (measured != predicted) {
                // Defensive path — determinism says this is dead
                // code; if it ever fires, the completion below comes
                // from the measured cycles and deadlines are
                // re-checked.
                warn("serve: batch of %d measured %llu cycles, "
                     "predicted %llu",
                     k, static_cast<unsigned long long>(measured),
                     static_cast<unsigned long long>(predicted));
            }
            // The batch completes at its last booking (the admission
            // booking itself when nothing failed).
            const double completion = endAfter(rr.cycles);
            for (int s = 0; s < k; ++s) {
                const Member &m =
                    job.members[static_cast<std::size_t>(s)];
                Result &r = results[static_cast<std::size_t>(s)];
                r.output = be.readSample(s);
                r.completionSec = completion;
                r.outcome = (m.req.deadlineSec > 0.0 &&
                             completion > m.req.deadlineSec)
                                ? Outcome::DeadlineMissed
                                : Outcome::Served;
            }
        }
        finishBatch(job, std::move(results));
    }
}

void
InferenceServer::finishBatch(BatchJob &job,
                             std::vector<Result> results)
{
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        metrics_.recordBatch(results);
    }
    // Resolve (promises + onResult) *before* releasing the drain
    // gate: once inflight_ hits zero, drain() may return and the
    // caller may read aggregated state — every result must already
    // be delivered by then.
    const std::size_t n = results.size();
    for (std::size_t i = 0; i < n; ++i)
        resolveMember(job.members[i], std::move(results[i]));
    releaseInflight(n);
}

void
InferenceServer::releaseInflight(std::uint64_t n)
{
    // drain() waits for zero only. Waking it on every batch would
    // bounce the draining thread and this one across the CPUs once
    // per request. The wake is sent under doneMu_, so it cannot slip
    // between drain()'s check and its wait.
    if (inflight_.fetch_sub(n) == n) {
        std::lock_guard<std::mutex> lock(doneMu_);
        doneCv_.notify_all();
    }
}

void
InferenceServer::resume()
{
    {
        std::lock_guard<std::mutex> lock(pauseMu_);
        paused_ = false;
    }
    pauseCv_.notify_all();
}

void
InferenceServer::flushOpenBatch()
{
    std::lock_guard<std::mutex> lock(submitMu_);
    sealOpenLocked();
}

void
InferenceServer::drain()
{
    {
        std::lock_guard<std::mutex> lock(submitMu_);
        sealOpenLocked();
    }
    std::unique_lock<std::mutex> lock(doneMu_);
    doneCv_.wait(lock, [&] { return inflight_.load() == 0; });
}

void
InferenceServer::shutdown()
{
    // Close the queues *first*: a submitter blocked in push() (full
    // queue, OnFull::Block) must wake and resolve its members as
    // recorded rejections — shutdown cannot wait for space that may
    // never free. Everything below is idempotent.
    for (auto &q : queues_)
        q->close();
    // Unpause before taking submitMu_: a submitter blocked in push()
    // holds that mutex; close() has already woken it.
    resume();
    {
        std::lock_guard<std::mutex> lock(submitMu_);
        shutdown_ = true;
        // Flush the open batch; with the queue closed its members
        // resolve as recorded rejections.
        sealOpenLocked();
    }
    drain();
    for (auto &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

ServerMetrics
InferenceServer::metricsSnapshot() const
{
    std::lock_guard<std::mutex> lock(doneMu_);
    return metrics_;
}

std::string
InferenceServer::metricsJson() const
{
    const ServerMetrics snap = metricsSnapshot();
    JsonWriter j;
    j.beginObject();
    j.key("config")
        .beginObject()
        .kv("workers", cfg_.workers)
        .kv("queue_capacity",
            static_cast<std::uint64_t>(cfg_.queueCapacity))
        .kv("clock_hz", cfg_.chip.clockHz)
        .kv("batch_max", effBatchMax_)
        .kv("batch_window_us", cfg_.batchWindowSec * 1e6)
        .kv("trace_cache_budget_bytes",
            static_cast<std::uint64_t>(TraceCache::kDefaultBudget))
        .endObject();
    j.key("model").beginObject();
    j.kv("service_cycles",
         static_cast<std::uint64_t>(serviceCycles()));
    j.kv("service_us", serviceSec() * 1e6);
    j.key("service_cycles_by_batch").beginArray();
    for (int b = 1; b <= admission_.maxBatch(); ++b)
        j.value(static_cast<std::uint64_t>(
            admission_.serviceCycles(b)));
    j.endArray();
    j.endObject();
    if (registry_) {
        // Side-effect-free accessors only: reporting must never
        // compile a program or disturb the LRU order.
        j.key("registry")
            .beginObject()
            .kv("budget_bytes", registry_->budgetBytes())
            .kv("resident_bytes", registry_->residentBytes())
            .kv("compiles", registry_->compileCount())
            .kv("evictions", registry_->evictions())
            .endObject();
        j.key("models").beginArray();
        for (int m = 0; m < registry_->modelCount(); ++m) {
            j.beginObject()
                .kv("name", registry_->name(m))
                .kv("max_batch", registry_->maxBatch(m));
            j.key("compiled_sizes").beginArray();
            for (int b = 1; b <= registry_->maxBatch(m); ++b) {
                if (registry_->compiled(m, b))
                    j.value(static_cast<std::uint64_t>(b));
            }
            j.endArray();
            j.kv("resident_bytes",
                 registry_->cache(m).residentBytes());
            j.endObject();
        }
        j.endArray();
    }
    j.key("metrics");
    snap.appendJson(j);
    j.endObject();
    return j.str();
}

Cycle
InferenceServer::totalChipCycles() const
{
    Cycle total = 0;
    for (const auto &b : backends_)
        total += b->totalCycles();
    return total;
}

std::uint64_t
InferenceServer::replayCount() const
{
    std::uint64_t n = 0;
    for (const auto &b : backends_)
        n += b->replayCount();
    return n;
}

std::uint64_t
InferenceServer::recordCount() const
{
    std::uint64_t n = 0;
    for (const auto &b : backends_)
        n += b->recordCount();
    return n;
}

} // namespace tsp::serve
