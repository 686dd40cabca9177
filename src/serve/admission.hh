/**
 * @file
 * Deadline-aware admission control over a pool of identical chips.
 *
 * The TSP's schedule is fully static: a compiled program's cycle
 * count is known *before* it runs (paper Eq. 4; IV.F; V.c — "the
 * compiler knows the exact latency of every program"). For a serving
 * tier this turns admission control from an estimation problem into
 * arithmetic: with FIFO dispatch over W identical workers whose
 * service time is a known constant, a new request's completion time
 * is exactly
 *
 *   completion = max(arrival, earliest worker-free time) + service
 *
 * so a request that cannot meet its deadline is rejected *before a
 * single chip cycle is spent on it*, and every admitted request's
 * measured latency equals the admission-time booking. Contrast the
 * cache-based baseline (src/baseline), where latency is only known
 * after the fact and admission control must over-provision against
 * the tail.
 *
 * Batching extends the same arithmetic: given the exact cycles(b)
 * table of the compiled batch programs, joining a request to an open
 * batch of size k re-books the batch as
 *
 *   completion = max(worker-free, latest member arrival) + service(k+1)
 *
 * and the join is *proved* feasible (every member still meets its
 * deadline) or refused — the batcher never gambles on a window.
 *
 * Multi-model pools extend it once more. Each worker remembers which
 * model family's weights it last staged; booking a batch of model m
 * on a worker holding another family adds the *exact* modeled swap
 * time (weight image over the host link) ahead of the service
 * window:
 *
 *   ready      = max(arrival, worker-free) + swap(m)   [0 if staged]
 *   completion = max(ready, latest member arrival) + service(m, k)
 *
 * Worker choice minimizes that completion (ties: earliest-free, then
 * lowest index), which for a single family — where every swap term
 * is zero — reduces *exactly* to the classic earliest-free-worker
 * rule, so one-family bookings are bit-identical to those over a
 * fixed cycles table (ModelTiming::fromTable).
 *
 * Priority preemption stays inside the same arithmetic: only the
 * *open* (not yet dispatched) batch is preemptible, and its booking
 * is a pure function of admission history, so rolling it back
 * (worker free-time, staged-model, admit counters) and re-booking
 * the preemptor is deterministic. Queued/running batches are never
 * preempted — their revocation would depend on host thread timing.
 */

#ifndef TSP_SERVE_ADMISSION_HH
#define TSP_SERVE_ADMISSION_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "arch/types.hh"

namespace tsp::serve {

/** Admission verdict plus the exact virtual-time booking. */
struct Admission
{
    /** True when the request was admitted (booking committed). */
    bool admitted = false;

    /** Worker slot the booking assumed (informational). */
    int worker = -1;

    /** Samples in the booked batch after this admission. */
    int batch = 1;

    /** Exact service start, virtual seconds (after any swap). */
    double startSec = 0.0;

    /** Exact completion, virtual seconds. */
    double completionSec = 0.0;

    /** Exact modeled weight-swap seconds booked ahead of the
     * service window (0 when the worker already stages the model). */
    double swapSec = 0.0;

    /** Tightest member deadline of a sealed batch, virtual seconds
     * (0 = no member has one); set by seal(). */
    double deadlineSec = 0.0;
};

/**
 * Exact per-model timing providers for a multi-model pool. All three
 * must be pure functions of their arguments (they may lazily compile
 * and memoize — BatchProgramCache guarantees the result is
 * independent of *when* it is first called).
 */
struct ModelTiming
{
    /** Exact cycles of model @p m's compiled batch-@p b program. */
    std::function<Cycle(int m, int b)> cyclesOf;

    /** Largest batch size model @p m compiles. */
    std::function<int(int m)> maxBatchOf;

    /** Modeled seconds to stage model @p m's weight image onto a
     * worker holding another family (null ⇒ swaps are free). */
    std::function<double(int m)> swapSecOf;

    /** @return single-family timing over a fixed exact-cycles table
     * (cycles_by_batch[b-1] = cycles(b), strictly increasing). */
    static ModelTiming fromTable(std::vector<Cycle> cycles_by_batch);
};

/**
 * Books exact per-worker busy intervals on the virtual timeline.
 *
 * Thread-safe; open() is a single compare-and-book under a mutex.
 * Rejected requests leave no trace in the booking state. The
 * batch-forming flow (open / tryJoin / seal / rollbackOpen) must be
 * serialized by the caller (the server's submit lock does this):
 * only one batch may be open at a time.
 */
class AdmissionController
{
  public:
    /**
     * Controller over @p workers identical engines (>= 1) serving
     * @p models families; every worker starts staged with model 0
     * (the registry's first family). Timing is pulled lazily so batch
     * sizes that never form are never compiled; a fixed table is
     * ModelTiming::fromTable().
     */
    AdmissionController(int workers, int models, ModelTiming timing,
                        double cycle_period_sec);

    /**
     * Opens a new batch of model @p model with its first member:
     * books the completion-minimizing worker (swap included), but
     * leaves the batch open so later arrivals of the same model may
     * join. Fails (nothing booked) only when the first member's own
     * deadline is infeasible — @p deadline_sec <= 0 means none. At
     * most one batch may be open; seal() the previous one first.
     */
    Admission open(double arrival_sec, double deadline_sec,
                   int model = 0);

    /**
     * Tries to grow the open batch by one member (same model). The
     * re-booked batch starts at max(swap-ready, latest member
     * arrival) and takes service(model, k+1); the join succeeds only
     * if that completion meets every current member's deadline AND
     * the candidate's — otherwise the open batch's booking is left
     * untouched and the caller should seal it and open a new one.
     * Requires an open batch.
     */
    Admission tryJoin(double arrival_sec, double deadline_sec);

    /** Closes the open batch; @return its final booking, with the
     * tightest member deadline. */
    Admission seal();

    /**
     * Reverts the open batch's booking completely — worker free
     * time, staged-model marker, and admit counters return to their
     * pre-open() values — and closes it. The caller owns re-queueing
     * the evicted members; nothing is dropped here. Requires an open
     * batch. This is the preemption primitive: it exists *only* for
     * the open batch, whose booking is still pure admission state.
     */
    void rollbackOpen();

    /**
     * @return the exact completion a batch-1 request of @p model
     * arriving at @p arrival_sec would book if the current open
     * batch were rolled back first — the preemption feasibility
     * probe. Books nothing. Requires an open batch.
     */
    double completionIfPreempted(double arrival_sec,
                                 int model) const;

    /** @return largest compiled batch size (model 0). */
    int maxBatch() const;

    /** @return largest compiled batch size of @p model. */
    int maxBatchFor(int model) const;

    /** @return number of model families booked over. */
    int models() const { return models_; }

    /** @return exact service seconds for a batch of @p b (model 0). */
    double serviceSec(int b = 1) const;

    /** @return exact service cycles for a batch of @p b (model 0). */
    Cycle serviceCycles(int b = 1) const;

    /** @return exact service seconds for @p model's batch of @p b. */
    double serviceSecFor(int model, int b) const;

    /** @return exact service cycles for @p model's batch of @p b. */
    Cycle serviceCyclesFor(int model, int b) const;

    /** @return requests admitted so far. */
    std::uint64_t admitted() const;

    /** @return requests rejected for provably-missed deadlines. */
    std::uint64_t rejected() const;

    /**
     * @return the earliest possible completion for a batch-1 request
     * of @p model arriving at @p arrival_sec, swap included, without
     * booking anything — what a client could poll to pick a feasible
     * deadline. This is also the fleet's routing and
     * load-shedding primitive: a request whose deadline is below
     * every pod's earliest completion is provably infeasible and can
     * be shed before it touches a queue.
     */
    double earliestCompletionFor(int model,
                                 double arrival_sec) const;

    /** @return the worker the next open() of @p model arriving at
     * @p arrival_sec would book (min completion; ties: min
     * free-time, then lowest index — with every swap term zero, the
     * earliest-free worker). */
    int bestWorkerFor(int model, double arrival_sec) const;

    /** @return the latest booked completion across all workers —
     * virtual seconds; a pod whose busyUntil() has passed has
     * drained its entire booking. */
    double busyUntil() const;

    /**
     * @return total booked-but-unfinished work at virtual time
     * @p now_sec: sum over workers of max(0, freeAt - now). This is
     * the *virtual* queue depth (in seconds of service) — unlike the
     * host-side queue length it is a pure function of the admission
     * history, so autoscaling decisions driven by it replay
     * identically however the host threads are scheduled.
     */
    double backlogSec(double now_sec) const;

  private:
    int bestWorkerLocked(int model, double arrival_sec) const;
    double swapSecLocked(int w, int model) const;
    double serviceSecLocked(int model, int b) const;
    Admission openLocked(double arrival_sec, double deadline_sec,
                         int model);
    void rollbackOpenLocked();

    ModelTiming timing_;
    const double periodSec_;
    int models_ = 1;

    mutable std::mutex mu_;
    std::vector<double> freeAt_; ///< Per-worker busy-until, seconds.
    std::vector<int> staged_;    ///< Per-worker staged model family.
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;

    /** The (single) open batch's booking state. */
    struct OpenBatch
    {
        bool active = false;
        int worker = -1;
        int model = 0;
        int size = 0;
        double baseFree = 0.0;    ///< Worker free time before open.
        int prevStaged = 0;       ///< Worker's staged model before.
        double swapSec = 0.0;     ///< Booked swap (0 = staged).
        double readyAt = 0.0;     ///< Worker swap-done time.
        double maxArrival = 0.0;  ///< Latest member arrival.
        double minDeadline = 0.0; ///< Tightest member deadline (0 =
                                  ///< none have one).
        double startSec = 0.0;
        double completionSec = 0.0;
    };
    OpenBatch open_;
};

} // namespace tsp::serve

#endif // TSP_SERVE_ADMISSION_HH
