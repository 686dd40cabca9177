/**
 * @file
 * Serving-layer request and result types.
 *
 * All timestamps are *modeled* (virtual) seconds of chip time at the
 * configured clock, not host wall time: the simulator runs orders of
 * magnitude slower than the silicon it models, so the serving layer
 * keeps its own virtual timeline. The load generator stamps each
 * request's arrival on that timeline, the admission controller books
 * exact start/completion times on it (possible only because the
 * compiled program's cycle count is known before it runs — paper
 * Eq. 4, IV.F, V.c), and the worker's measured chip cycles are
 * checked against the booking after the fact.
 */

#ifndef TSP_SERVE_REQUEST_HH
#define TSP_SERVE_REQUEST_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "ref/qnn.hh"

namespace tsp::serve {

/** Monotonically increasing per-server request identifier. */
using RequestId = std::uint64_t;

/** What happened to a request. */
enum class Outcome : std::uint8_t {
    /** Ran on a chip and met its deadline (or had none). */
    Served,

    /**
     * Rejected at admission: the provably earliest completion time
     * already exceeded the deadline, so not a single chip cycle was
     * spent on it — the capability the deterministic schedule buys.
     */
    RejectedDeadline,

    /** Rejected by queue backpressure (bounded queue was full). */
    RejectedQueueFull,

    /**
     * Rejected before admission: the request is malformed for the
     * compiled workload (e.g. its input length does not match the
     * model's input tensor). Previously such a request would fault
     * inside a worker thread; now it never reaches one.
     */
    RejectedInvalid,

    /**
     * Served, but completed after its deadline. With exact admission
     * booking this cannot happen unless the measured cycle count
     * diverges from the compiler's prediction (i.e. a simulator bug).
     */
    DeadlineMissed,

    /** Execution failed (cycle budget exhausted — see RunResult). */
    Failed,

    /**
     * An uncorrectable error machine-checked the chip and every
     * permitted recovery attempt (retries and migrations, bounded by
     * their budgets and the batch's tightest deadline) machine-checked
     * too. The output is never populated from a machine-checked run
     * — corrupted data cannot reach a client as a silent success.
     */
    FailedMachineCheck,
};

/** @return a stable lower-case name for @p o. */
const char *outcomeName(Outcome o);

/** One inference request as submitted by a client. */
struct Request
{
    RequestId id = 0;

    /** Dense [h x w x c] int8 input, model-input shaped. */
    std::vector<std::int8_t> input;

    /** Arrival time on the virtual timeline, seconds. */
    double arrivalSec = 0.0;

    /**
     * Absolute completion deadline on the virtual timeline, seconds;
     * <= 0 means no deadline. Inside the server this is the
     * *effective* deadline — the caller's deadline with the tenant
     * SLO class's multiplier already applied to its slack.
     */
    double deadlineSec = 0.0;

    /** Model family this request targets (registry index). */
    int model = 0;

    /** Tenant SLO class (ServerConfig::sloClasses index). */
    int sloClass = 0;
};

/** The serving layer's answer for one request. */
struct Result
{
    RequestId id = 0;
    Outcome outcome = Outcome::Failed;

    /** Model output (valid only when outcome is Served). */
    ref::QTensor output;

    /** Model family that served (or rejected) this request. */
    int model = 0;

    /** Times this request's open batch was preempted by a
     * higher-priority arrival before it sealed (each preemption
     * re-queued it; it was never dropped). */
    std::uint32_t preemptions = 0;

    /** Samples in the batch this request was served in. */
    int batch = 1;

    /** Cycles the admission controller predicted for service (the
     * whole batch's exact cycles(batch)). */
    Cycle predictedCycles = 0;

    /** Program cycles the chip ran to the end of the last attempt
     * (0 if never scheduled): after a migration, its resume point
     * plus the resumed run, so a served batch measures the whole
     * program. */
    Cycle measuredCycles = 0;

    /** Re-runs after machine checks (0 = served on first attempt). */
    std::uint32_t retries = 0;

    /** Machine-check recoveries resumed from a snapshot rather than
     *  re-run from cycle 0 (see ServerConfig::snapshotEveryCycles). */
    std::uint32_t migrations = 0;

    /** Uncorrectable errors raised across this request's attempts. */
    std::uint64_t machineChecks = 0;

    /** Single-bit errors corrected across this request's attempts. */
    std::uint64_t correctedErrors = 0;

    /** Virtual-time bookings (valid unless rejected for queue-full). */
    double arrivalSec = 0.0;
    double startSec = 0.0;      ///< Service start.
    double completionSec = 0.0; ///< Service end (admission-exact).

    /** @return virtual seconds spent queued before service. */
    double queueSec() const { return startSec - arrivalSec; }

    /** @return virtual seconds from arrival to completion. */
    double latencySec() const { return completionSec - arrivalSec; }
};

} // namespace tsp::serve

#endif // TSP_SERVE_REQUEST_HH
