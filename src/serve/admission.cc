#include "serve/admission.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"

namespace tsp::serve {

ModelTiming
ModelTiming::fromTable(std::vector<Cycle> cycles_by_batch)
{
    TSP_ASSERT(!cycles_by_batch.empty());
    TSP_ASSERT(cycles_by_batch[0] > 0);
    // Strictly increasing: a bigger batch takes longer — but the
    // batcher only wins when it is *sublinear*, which tests pin.
    for (std::size_t i = 1; i < cycles_by_batch.size(); ++i)
        TSP_ASSERT(cycles_by_batch[i] > cycles_by_batch[i - 1]);
    auto table = std::make_shared<std::vector<Cycle>>(
        std::move(cycles_by_batch));
    ModelTiming t;
    t.cyclesOf = [table](int m, int b) {
        TSP_ASSERT(m == 0);
        TSP_ASSERT(b >= 1 && b <= static_cast<int>(table->size()));
        return (*table)[static_cast<std::size_t>(b - 1)];
    };
    t.maxBatchOf = [table](int m) {
        TSP_ASSERT(m == 0);
        return static_cast<int>(table->size());
    };
    t.swapSecOf = nullptr; // Single family: never swaps.
    return t;
}

AdmissionController::AdmissionController(int workers, int models,
                                         ModelTiming timing,
                                         double cycle_period_sec)
    : timing_(std::move(timing)), periodSec_(cycle_period_sec),
      models_(models)
{
    TSP_ASSERT(workers >= 1);
    TSP_ASSERT(models_ >= 1);
    TSP_ASSERT(cycle_period_sec > 0.0);
    TSP_ASSERT(timing_.cyclesOf != nullptr);
    TSP_ASSERT(timing_.maxBatchOf != nullptr);
    freeAt_.assign(static_cast<std::size_t>(workers), 0.0);
    // Every worker starts staged with family 0, mirroring the
    // server's warm bind; for a single family all swap terms are
    // zero and every booking reduces to the classic rule.
    staged_.assign(static_cast<std::size_t>(workers), 0);
}

double
AdmissionController::swapSecLocked(int w, int model) const
{
    if (staged_[static_cast<std::size_t>(w)] == model)
        return 0.0;
    return timing_.swapSecOf ? timing_.swapSecOf(model) : 0.0;
}

int
AdmissionController::bestWorkerLocked(int model,
                                      double arrival_sec) const
{
    // Minimize completion; break ties toward the earliest-free
    // worker, then the lowest index. With all swap terms zero this
    // selects exactly min_element(freeAt_): any worker free before
    // arrival ties on completion and the earliest-free tie-break
    // recovers the global minimum.
    int best = 0;
    double best_comp = 0.0, best_free = 0.0;
    for (int w = 0; w < static_cast<int>(freeAt_.size()); ++w) {
        const double free_at = freeAt_[static_cast<std::size_t>(w)];
        const double comp = std::max(arrival_sec, free_at) +
                            swapSecLocked(w, model) +
                            serviceSecLocked(model, 1);
        if (w == 0 || comp < best_comp ||
            (comp == best_comp && free_at < best_free)) {
            best = w;
            best_comp = comp;
            best_free = free_at;
        }
    }
    return best;
}

double
AdmissionController::serviceSecLocked(int model, int b) const
{
    return static_cast<double>(timing_.cyclesOf(model, b)) *
           periodSec_;
}

Cycle
AdmissionController::serviceCycles(int b) const
{
    return timing_.cyclesOf(0, b);
}

double
AdmissionController::serviceSec(int b) const
{
    return serviceSecLocked(0, b);
}

Cycle
AdmissionController::serviceCyclesFor(int model, int b) const
{
    return timing_.cyclesOf(model, b);
}

double
AdmissionController::serviceSecFor(int model, int b) const
{
    return serviceSecLocked(model, b);
}

int
AdmissionController::maxBatch() const
{
    return timing_.maxBatchOf(0);
}

int
AdmissionController::maxBatchFor(int model) const
{
    return timing_.maxBatchOf(model);
}

Admission
AdmissionController::open(double arrival_sec, double deadline_sec,
                          int model)
{
    std::lock_guard<std::mutex> lock(mu_);
    return openLocked(arrival_sec, deadline_sec, model);
}

Admission
AdmissionController::openLocked(double arrival_sec,
                                double deadline_sec, int model)
{
    TSP_ASSERT(!open_.active);
    TSP_ASSERT(model >= 0 && model < models_);
    Admission a;
    a.worker = bestWorkerLocked(model, arrival_sec);
    const double free_at =
        freeAt_[static_cast<std::size_t>(a.worker)];
    const double swap = swapSecLocked(a.worker, model);
    // The swap starts the moment the booking decides it (arrival)
    // or when the worker frees up, whichever is later; the service
    // window opens once the weights are staged.
    const double ready =
        std::max(arrival_sec, free_at) + swap;
    a.swapSec = swap;
    a.startSec = ready;
    a.completionSec = a.startSec + serviceSecLocked(model, 1);
    if (deadline_sec > 0.0 && a.completionSec > deadline_sec) {
        // Provably infeasible: the *best case* already misses. No
        // booking, no queue slot, no chip cycles.
        a.admitted = false;
        ++rejected_;
        return a;
    }
    a.admitted = true;
    a.batch = 1;
    freeAt_[static_cast<std::size_t>(a.worker)] = a.completionSec;
    ++admitted_;

    open_.active = true;
    open_.worker = a.worker;
    open_.model = model;
    open_.size = 1;
    open_.baseFree = free_at;
    open_.prevStaged = staged_[static_cast<std::size_t>(a.worker)];
    open_.swapSec = swap;
    open_.readyAt = ready;
    open_.maxArrival = arrival_sec;
    open_.minDeadline = deadline_sec > 0.0 ? deadline_sec : 0.0;
    open_.startSec = a.startSec;
    open_.completionSec = a.completionSec;
    staged_[static_cast<std::size_t>(a.worker)] = model;
    return a;
}

Admission
AdmissionController::tryJoin(double arrival_sec, double deadline_sec)
{
    std::lock_guard<std::mutex> lock(mu_);
    TSP_ASSERT(open_.active);
    Admission a;
    a.worker = open_.worker;
    a.swapSec = open_.swapSec;
    const int k = open_.size + 1;
    if (k > timing_.maxBatchOf(open_.model)) {
        a.admitted = false;
        return a;
    }
    // The whole batch starts when its weights are staged and its
    // *last* member has arrived, and runs the exact batch-k program.
    const double max_arrival =
        std::max(open_.maxArrival, arrival_sec);
    a.startSec = std::max(open_.readyAt, max_arrival);
    a.completionSec =
        a.startSec + serviceSecLocked(open_.model, k);
    const bool members_ok =
        open_.minDeadline <= 0.0 ||
        a.completionSec <= open_.minDeadline;
    const bool self_ok =
        deadline_sec <= 0.0 || a.completionSec <= deadline_sec;
    if (!members_ok || !self_ok) {
        // Not counted as rejected: the caller seals this batch and
        // retries the request as the opener of the next one.
        a.admitted = false;
        return a;
    }
    a.admitted = true;
    a.batch = k;
    open_.size = k;
    open_.maxArrival = max_arrival;
    if (deadline_sec > 0.0)
        open_.minDeadline = open_.minDeadline <= 0.0
                                ? deadline_sec
                                : std::min(open_.minDeadline,
                                           deadline_sec);
    open_.startSec = a.startSec;
    open_.completionSec = a.completionSec;
    freeAt_[static_cast<std::size_t>(open_.worker)] =
        a.completionSec;
    ++admitted_;
    return a;
}

Admission
AdmissionController::seal()
{
    std::lock_guard<std::mutex> lock(mu_);
    TSP_ASSERT(open_.active);
    Admission a;
    a.admitted = true;
    a.worker = open_.worker;
    a.batch = open_.size;
    a.startSec = open_.startSec;
    a.completionSec = open_.completionSec;
    a.swapSec = open_.swapSec;
    open_ = OpenBatch{};
    return a;
}

void
AdmissionController::rollbackOpen()
{
    std::lock_guard<std::mutex> lock(mu_);
    rollbackOpenLocked();
}

void
AdmissionController::rollbackOpenLocked()
{
    TSP_ASSERT(open_.active);
    // The open batch's booking is the only admission state it has
    // touched; undoing it restores the controller bit-for-bit to
    // the pre-open() timeline.
    freeAt_[static_cast<std::size_t>(open_.worker)] = open_.baseFree;
    staged_[static_cast<std::size_t>(open_.worker)] =
        open_.prevStaged;
    TSP_ASSERT(admitted_ >= static_cast<std::uint64_t>(open_.size));
    admitted_ -= static_cast<std::uint64_t>(open_.size);
    open_ = OpenBatch{};
}

double
AdmissionController::completionIfPreempted(double arrival_sec,
                                           int model) const
{
    std::lock_guard<std::mutex> lock(mu_);
    TSP_ASSERT(open_.active);
    TSP_ASSERT(model >= 0 && model < models_);
    double best = 0.0;
    for (int w = 0; w < static_cast<int>(freeAt_.size()); ++w) {
        // Hypothetical state with the open batch rolled back.
        const bool victim = w == open_.worker;
        const double free_at =
            victim ? open_.baseFree
                   : freeAt_[static_cast<std::size_t>(w)];
        const int staged =
            victim ? open_.prevStaged
                   : staged_[static_cast<std::size_t>(w)];
        const double swap =
            staged == model
                ? 0.0
                : (timing_.swapSecOf ? timing_.swapSecOf(model)
                                     : 0.0);
        const double comp = std::max(arrival_sec, free_at) + swap +
                            serviceSecLocked(model, 1);
        if (w == 0 || comp < best)
            best = comp;
    }
    return best;
}

double
AdmissionController::earliestCompletionFor(int model,
                                           double arrival_sec) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const int w = bestWorkerLocked(model, arrival_sec);
    const double free_at = freeAt_[static_cast<std::size_t>(w)];
    return std::max(arrival_sec, free_at) +
           swapSecLocked(w, model) + serviceSecLocked(model, 1);
}

int
AdmissionController::bestWorkerFor(int model,
                                   double arrival_sec) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bestWorkerLocked(model, arrival_sec);
}

double
AdmissionController::busyUntil() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return *std::max_element(freeAt_.begin(), freeAt_.end());
}

double
AdmissionController::backlogSec(double now_sec) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Per-worker backlogs are set by concurrently finishing batches;
    // sum them order-independently so the report (and the autoscaler
    // decisions fed by it) depend only on the backlog multiset. Fine
    // scale: per-request service times can be sub-microsecond.
    FineFixedPointSum total;
    for (const double f : freeAt_)
        total.add(std::max(0.0, f - now_sec));
    return total.value();
}

std::uint64_t
AdmissionController::admitted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return admitted_;
}

std::uint64_t
AdmissionController::rejected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
}

} // namespace tsp::serve
