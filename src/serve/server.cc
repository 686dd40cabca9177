#include "serve/server.hh"

#include <algorithm>

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
    if (cfg_.traceCacheBytes > 0) {
        traceCache_ =
            std::make_shared<TraceCache>(cfg_.traceCacheBytes);
        for (const auto &b : backends_)
            b->attachTraceCache(traceCache_);
        // Eager trace hygiene: when the registry evicts a model's
        // program, its traces leave the shared budget immediately.
        if (registry_)
            registry_->attachTraceCache(traceCache_);
    }
    if (cfg_.migrateOnMachineCheck || cfg_.snapshotEveryCycles > 0) {
        // Default cadence: 8 snapshots per batch-1 service — cheap
        // (serialization is tiny next to simulation) yet fine-grained
        // enough that a migration re-executes at most ~1/8 of a run.
        Cycle every = cfg_.snapshotEveryCycles;
        if (every == 0)
            every = std::max<Cycle>(1, admission_.serviceCycles(1) / 8);
        for (const auto &b : backends_)
            b->enableSnapshots(every);
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

std::future<Result>
InferenceServer::rejectNow(Request req, Outcome outcome,
                           const Admission &booking,
                           bool want_future)
{
    Result r;
    r.id = req.id;
    r.outcome = outcome;
    r.model = req.model;
    // An out-of-range model (RejectedInvalid) has no timing; report
    // the default family's like any other malformed request.
    const int m =
        req.model >= 0 && req.model < admission_.models()
            ? req.model
            : 0;
    r.predictedCycles = admission_.serviceCyclesFor(m, 1);
    r.arrivalSec = req.arrivalSec;
    r.startSec = booking.startSec;
    r.completionSec = booking.completionSec;
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        metrics_.record(r);
    }
    if (cfg_.onResult)
        cfg_.onResult(r);
    if (!want_future)
        return {};
    std::promise<Result> p;
    std::future<Result> f = p.get_future();
    p.set_value(std::move(r));
    return f;
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
    if (openMembers_.empty())
        return;
    BatchJob job;
    job.members = std::move(openMembers_);
    openMembers_.clear();
    job.booking = admission_.seal();
    job.model = openModel_;
    job.priority = openPriority_;
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
    const Cycle predicted =
        admission_.serviceCyclesFor(openModel_, job.booking.batch);
    for (Member &m : job.members) {
        Result r;
        r.id = m.req.id;
        r.outcome = Outcome::RejectedQueueFull;
        r.model = m.req.model;
        r.preemptions = m.preemptions;
        r.batch = job.booking.batch;
        r.predictedCycles = predicted;
        r.arrivalSec = m.req.arrivalSec;
        r.startSec = job.booking.startSec;
        r.completionSec = job.booking.completionSec;
        {
            std::lock_guard<std::mutex> lock(doneMu_);
            metrics_.record(r);
        }
        resolveMember(m, std::move(r));
        releaseInflight(1);
    }
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
    Request req;
    req.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    req.input = std::move(input);
    req.arrivalSec = arrival_sec;
    req.model = model;
    req.sloClass = slo_class;

    // An unknown model or tenant class is malformed, exactly like a
    // mis-sized input: refused before it can touch admission state.
    if (model < 0 || model >= admission_.models() || slo_class < 0 ||
        slo_class >= static_cast<int>(classes_.size())) {
        req.deadlineSec = deadline_sec;
        return rejectNow(std::move(req), Outcome::RejectedInvalid,
                         Admission{}, want_future);
    }

    // The tenant class scales the *slack*, not the absolute stamp;
    // everything downstream (join checks, retry budgets, preemption
    // probes) sees only the effective deadline.
    const SloClass &cls =
        classes_[static_cast<std::size_t>(slo_class)];
    if (deadline_sec > 0.0)
        deadline_sec = arrival_sec + (deadline_sec - arrival_sec) *
                                         cls.deadlineMultiplier;
    req.deadlineSec = deadline_sec;

    // Malformed input is refused before it can touch the admission
    // state or fault inside a worker thread.
    const std::size_t expect =
        registry_ ? registry_->expectedInputBytes(model)
                  : expectedInput_;
    if (expect != 0 && req.input.size() != expect)
        return rejectNow(std::move(req), Outcome::RejectedInvalid,
                         Admission{}, want_future);

    std::unique_lock<std::mutex> lock(submitMu_);
    if (shutdown_)
        return rejectNow(std::move(req), Outcome::RejectedQueueFull,
                         Admission{}, want_future);

    // Try to join the open batch first: a joined request consumes no
    // queue slot of its own and cannot be queue-full rejected.
    // Batches are single-family — a request for another model can
    // never join.
    if (!openMembers_.empty()) {
        Admission joined{};
        if (model == openModel_ &&
            arrival_sec <=
                openLeaderArrival_ + cfg_.batchWindowSec) {
            joined = admission_.tryJoin(arrival_sec, deadline_sec);
        }
        if (joined.admitted) {
            Member m;
            m.req = std::move(req);
            std::future<Result> f;
            if (want_future) {
                m.promise.emplace();
                f = m.promise->get_future();
            }
            {
                std::lock_guard<std::mutex> dl(doneMu_);
                ++inflight_;
            }
            openMembers_.push_back(std::move(m));
            openPriority_ = std::max(openPriority_, cls.priority);
            if (static_cast<int>(openMembers_.size()) >=
                effBatchMaxFor(model))
                sealOpenLocked();
            return f;
        }
        // Priority preemption: this arrival outranks the open batch,
        // cannot make its deadline behind it, but provably can in
        // its place. The open batch's booking is rolled back and its
        // members re-admitted right after (never dropped). Both
        // probes book nothing, so declining leaves no trace.
        if (cfg_.preemption && cls.priority > openPriority_ &&
            deadline_sec > 0.0 &&
            admission_.earliestCompletionFor(model, arrival_sec) >
                deadline_sec &&
            admission_.completionIfPreempted(arrival_sec, model) <=
                deadline_sec) {
            return preemptLocked(std::move(req), cls.priority,
                                 want_future);
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
        queueFor(admission_.bestWorkerFor(model, arrival_sec))
            .full())
        return rejectNow(std::move(req), Outcome::RejectedQueueFull,
                         Admission{}, want_future);

    const Admission booking =
        admission_.open(arrival_sec, deadline_sec, model);
    if (!booking.admitted) {
        // A failed open() books nothing and leaves no open batch.
        return rejectNow(std::move(req), Outcome::RejectedDeadline,
                         booking, want_future);
    }

    Member m;
    m.req = std::move(req);
    std::future<Result> f;
    if (want_future) {
        m.promise.emplace();
        f = m.promise->get_future();
    }
    {
        std::lock_guard<std::mutex> dl(doneMu_);
        ++inflight_;
    }
    openMembers_.push_back(std::move(m));
    openLeaderArrival_ = arrival_sec;
    openModel_ = model;
    openPriority_ = cls.priority;
    if (effBatchMaxFor(model) <= 1)
        sealOpenLocked();
    return f;
}

std::future<Result>
InferenceServer::preemptLocked(Request req, int priority,
                               bool want_future)
{
    // Capture the victims and undo their booking completely; the
    // controller returns to its pre-open timeline.
    std::vector<Member> victims = std::move(openMembers_);
    openMembers_.clear();
    const int vmodel = openModel_;
    const int vprio = openPriority_;
    const int model = req.model;
    const double now = req.arrivalSec;
    admission_.rollbackOpen();

    // Book the preemptor; the feasibility probe already proved this
    // admits.
    const Admission booking =
        admission_.open(now, req.deadlineSec, model);
    TSP_ASSERT(booking.admitted);

    Member m;
    m.req = std::move(req);
    std::future<Result> f;
    if (want_future) {
        m.promise.emplace();
        f = m.promise->get_future();
    }
    {
        std::lock_guard<std::mutex> dl(doneMu_);
        ++inflight_;
    }
    openMembers_.push_back(std::move(m));
    openLeaderArrival_ = now;
    openModel_ = model;
    openPriority_ = priority;
    // Seal immediately: the victims must re-book *now* (only one
    // batch may be open, and deferring their fate to a later submit
    // would leave them booked nowhere).
    sealOpenLocked();

    // Re-admit the victims in their original admission order at the
    // preemption's virtual time. Feasible members re-batch; members
    // whose own deadline became infeasible are shed as recorded
    // RejectedDeadline — re-decided, never dropped.
    std::uint64_t requeued = 0, shed = 0;
    for (Member &v : victims) {
        v.preemptions += 1;
        requeueVictimLocked(std::move(v), vmodel, vprio, now,
                            requeued, shed);
    }
    {
        std::lock_guard<std::mutex> dl(doneMu_);
        metrics_.recordPreemption(requeued, shed);
    }
    return f;
}

void
InferenceServer::requeueVictimLocked(Member v, int vmodel, int vprio,
                                     double now_sec,
                                     std::uint64_t &requeued,
                                     std::uint64_t &shed)
{
    // Victims re-enter as a fresh batch of their family: the first
    // feasible one opens it, later ones try to join (they were
    // batchmates already — same family, adjacent deadlines), and a
    // join failure seals and re-opens, exactly like live arrivals.
    if (!openMembers_.empty()) {
        const Admission joined =
            admission_.tryJoin(now_sec, v.req.deadlineSec);
        if (joined.admitted) {
            openMembers_.push_back(std::move(v));
            ++requeued;
            if (static_cast<int>(openMembers_.size()) >=
                effBatchMaxFor(vmodel))
                sealOpenLocked();
            return;
        }
        sealOpenLocked();
    }
    const Admission booking =
        admission_.open(now_sec, v.req.deadlineSec, vmodel);
    if (!booking.admitted) {
        // Provably infeasible after the preemption: shed against its
        // original (effective) deadline, booking fields recorded.
        Result r;
        r.id = v.req.id;
        r.outcome = Outcome::RejectedDeadline;
        r.model = v.req.model;
        r.preemptions = v.preemptions;
        r.predictedCycles = admission_.serviceCyclesFor(vmodel, 1);
        r.arrivalSec = v.req.arrivalSec;
        r.startSec = booking.startSec;
        r.completionSec = booking.completionSec;
        {
            std::lock_guard<std::mutex> dl(doneMu_);
            metrics_.record(r);
        }
        resolveMember(v, std::move(r));
        releaseInflight(1);
        ++shed;
        return;
    }
    openMembers_.push_back(std::move(v));
    openLeaderArrival_ = now_sec;
    openModel_ = vmodel;
    openPriority_ = vprio;
    ++requeued;
    if (effBatchMaxFor(vmodel) <= 1)
        sealOpenLocked();
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
        const double service =
            admission_.serviceSecFor(job.model, k);

        // The whole batch retries or fails together; a retry is
        // taken only while the *tightest* member deadline still
        // admits another full batch service time.
        double min_deadline = 0.0;
        for (const Member &m : job.members) {
            if (m.req.deadlineSec <= 0.0)
                continue;
            min_deadline = min_deadline <= 0.0
                               ? m.req.deadlineSec
                               : std::min(min_deadline,
                                          m.req.deadlineSec);
        }

        // Engine rebuilds are not free: each retry (and each
        // migration resume) first re-stages the engine image over
        // the host link. Booking retries against service time alone
        // under-estimates the completion and admits retries that
        // cannot make their deadline.
        const double rebuild = be.rebuildPenaltySec();

        std::uint32_t retries = 0;
        int migrations = 0;
        std::uint64_t machine_checks = 0;
        std::uint64_t corrected = 0;
        double migratedSec = 0.0; // Burned by pre-migration segments.
        RunResult rr;
        for (;;) {
            // resetBatch() rebuilds a condemned (or timed-out)
            // engine, with a derived fault seed so a retry does not
            // replay the identical environmental upset, and arms the
            // compiled batch-k program.
            be.resetBatch(k);
            for (int s = 0; s < k; ++s)
                be.writeSample(
                    s,
                    job.members[static_cast<std::size_t>(s)]
                        .req.input);
            const std::uint64_t cor0 = be.correctedErrors();
            rr = be.runBounded(cfg_.maxCyclesPerRun);
            corrected += be.correctedErrors() - cor0;
            // Mid-batch migration: restore the last pre-fault
            // snapshot onto a rebuilt engine and resume, instead of
            // burning a full retry. Only when a clean snapshot
            // precedes the first uncorrectable error; otherwise fall
            // through to the full-retry policy.
            while (rr.status == RunStatus::MachineCheck &&
                   cfg_.migrateOnMachineCheck && be.canMigrate() &&
                   migrations < InferenceSession::kMaxMigrations) {
                machine_checks += be.machineCheckCount();
                migratedSec +=
                    static_cast<double>(rr.cycles) * period + rebuild;
                ++migrations;
                const std::uint64_t mcor0 = be.correctedErrors();
                rr = be.migrateAndResume(cfg_.maxCyclesPerRun);
                const std::uint64_t mcor1 = be.correctedErrors();
                // The restored engine's counter rewinds to the
                // snapshot-time value; only count forward progress.
                if (mcor1 > mcor0)
                    corrected += mcor1 - mcor0;
            }
            if (rr.status != RunStatus::MachineCheck)
                break;
            machine_checks += be.machineCheckCount();
            const double retry_completion =
                job.booking.startSec + migratedSec +
                static_cast<double>(retries + 2) * service +
                static_cast<double>(retries + 1) * rebuild;
            if (static_cast<int>(retries) >= cfg_.maxRetries ||
                (min_deadline > 0.0 &&
                 retry_completion > min_deadline)) {
                break;
            }
            ++retries;
        }

        std::vector<Result> results(
            static_cast<std::size_t>(k));
        for (int s = 0; s < k; ++s) {
            const Member &m =
                job.members[static_cast<std::size_t>(s)];
            Result &r = results[static_cast<std::size_t>(s)];
            r.id = m.req.id;
            r.model = job.model;
            r.preemptions = m.preemptions;
            r.batch = k;
            r.predictedCycles = predicted;
            r.measuredCycles = rr.cycles;
            r.retries = retries;
            r.migrations = static_cast<std::uint32_t>(migrations);
            r.machineChecks = machine_checks;
            r.correctedErrors = corrected;
            r.arrivalSec = m.req.arrivalSec;
            r.startSec = job.booking.startSec;
            r.completionSec = job.booking.completionSec;
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
            bool recheck = false;
            // After a migration rr.cycles spans only the resumed
            // segment, so a mismatch with the whole-run prediction is
            // expected — the migration accounting below already
            // re-derives the completion from measured time.
            if (rr.cycles != predicted && migrations == 0) {
                // Defensive path — determinism says this is dead
                // code; if it ever fires, re-derive the completion
                // from the measured cycles and re-check deadlines.
                warn("serve: batch of %d measured %llu cycles, "
                     "predicted %llu",
                     k, static_cast<unsigned long long>(rr.cycles),
                     static_cast<unsigned long long>(predicted));
                recheck = true;
            }
            for (int s = 0; s < k; ++s) {
                const Member &m =
                    job.members[static_cast<std::size_t>(s)];
                Result &r = results[static_cast<std::size_t>(s)];
                r.output = be.readSample(s);
                if (retries > 0 || migrations > 0 || recheck) {
                    // Each machine-checked attempt burned one batch
                    // service time plus an engine rebuild, and each
                    // migration burned its failed segment plus a
                    // rebuild, before the successful (re)run.
                    r.completionSec =
                        r.startSec +
                        static_cast<double>(retries) *
                            (service + rebuild) +
                        migratedSec +
                        static_cast<double>(rr.cycles) * period;
                    r.outcome =
                        (m.req.deadlineSec > 0.0 &&
                         r.completionSec > m.req.deadlineSec)
                            ? Outcome::DeadlineMissed
                            : Outcome::Served;
                } else {
                    r.outcome = Outcome::Served;
                }
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
    bool idle;
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        inflight_ -= n;
        idle = inflight_ == 0;
    }
    // drain() waits for zero only. Waking it on every batch would
    // bounce the draining thread and this one across the CPUs once
    // per request.
    if (idle)
        doneCv_.notify_all();
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
    doneCv_.wait(lock, [&] { return inflight_ == 0; });
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
            static_cast<std::uint64_t>(cfg_.traceCacheBytes))
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
