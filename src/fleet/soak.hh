/**
 * @file
 * One-call soak driver: deterministic load generation -> fleet of
 * pod-collective serving tiers -> windowed time series -> JSON.
 *
 * The soak workload is the N-chip ring all-reduce collective
 * (serve::PodBackend): its per-request service time is a few hundred
 * nanoseconds of virtual time and ~0.1 ms of host time, which is what
 * makes millions of simulated requests tractable on one machine. The
 * admission table is the collective builder's exact retire cycle per
 * batch size, shared by every pod; per-(pod, worker) fault seeds are
 * derived from the base seed (common/seed.hh), so background fault
 * injection is live during the whole run and still replays
 * byte-identically.
 */

#ifndef TSP_FLEET_SOAK_HH
#define TSP_FLEET_SOAK_HH

#include <cstdint>
#include <string>

#include "arch/config.hh"
#include "fleet/autoscaler.hh"
#include "fleet/loadgen.hh"

namespace tsp::fleet {

/** Everything one soak run needs. */
struct SoakConfig
{
    /** Base seed: load, payloads and every fault stream derive from
     * it — one number reproduces the entire run. */
    std::uint64_t seed = 1;

    // Workload (one pod = one serving tier over a chip-pod engine).
    int chipsPerPod = 2;      ///< Ring size of each pod collective.
    Cycle wireLatency = 40;   ///< C2C wire latency, cycles.
    int workersPerPod = 2;    ///< Engines (worker threads) per pod.
    int batchMax = 1;         ///< Submit-time batching cap.
    double batchWindowSec = 0.0;
    int maxRetries = 2; ///< Machine-check retry budget per batch.

    // Fleet / scaling.
    int initialPods = 2;
    AutoscalerConfig autoscaler{};
    double windowSec = 1.0;

    // Load.
    LoadGenConfig load{}; ///< inputBytes is filled in by runSoak().
    double durationSec = 60.0; ///< Virtual seconds of arrivals.
    /** Stop after this many requests (0 = duration-bound only). */
    std::uint64_t maxRequests = 0;
    /** Per-request deadline = arrival + slack (0 = no deadlines:
     * nothing is ever shed or rejected on time). */
    double deadlineSlackSec = 0.0;

    // Faults (applied to every chip; seeds derived per pod/worker).
    FaultConfig fault{};

    /** Chip template (clock, ECC, fast-forward). */
    ChipConfig chip{};
};

/** Aggregate results of one soak run. */
struct SoakReport
{
    std::string json; ///< The full BENCH_soak.json document.

    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    std::uint64_t failedMachineCheck = 0;
    std::uint64_t machineChecks = 0;
    double availability = 1.0; ///< served / submitted.
    int podsLaunched = 0;
    int podsRetired = 0;
    std::size_t windows = 0;
};

/**
 * Runs one soak end to end (blocking; spawns the fleet's worker
 * threads internally). The returned JSON contains only virtual-time
 * quantities: two runs with equal configs produce byte-identical
 * documents however the host schedules them.
 */
SoakReport runSoak(const SoakConfig &cfg);

} // namespace tsp::fleet

#endif // TSP_FLEET_SOAK_HH
