/**
 * @file
 * Windowed soak observability.
 *
 * Every resolved request is attributed to the window of its *arrival*
 * stamp (arrivals are monotone, so once the fleet has drained, every
 * window is complete), accumulating outcome counters and a per-window
 * latency histogram. Because all inputs are virtual-time quantities —
 * never host wall time — the whole time series is a deterministic
 * function of the seed, and two same-seed soak runs emit byte-identical
 * JSON. Goodput, availability, shed/reject/machine-check-retry rates
 * and p50/p99 trajectories are derived per window at emission time.
 */

#ifndef TSP_FLEET_TIMESERIES_HH
#define TSP_FLEET_TIMESERIES_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "serve/request.hh"

namespace tsp::fleet {

/** One autoscaler transition, for the report. */
struct ScaleEvent
{
    double timeSec = 0.0;
    int activePods = 0; ///< Routable pods after the transition.
    char kind = '=';    ///< '+' scale-up, '-' drain start, '=' drained.
};

/** Windowed counters + latency trajectories for one soak run. */
class SoakTimeSeries
{
  public:
    /**
     * @param window_sec window width on the virtual timeline.
     * @param lat_hi_sec latency histogram range upper bound (e.g. a
     *        few times the expected worst queue + service latency).
     * @param buckets histogram buckets per window.
     */
    SoakTimeSeries(double window_sec, double lat_hi_sec,
                   std::size_t buckets = 128);

    /** Thread-safe: attributes @p r to its arrival window. */
    void recordResult(const serve::Result &r);

    /** Records a fleet-level shed (refused before any pod booking)
     * at arrival @p arrival_sec. */
    void recordShed(double arrival_sec);

    /** Records an autoscaler transition. */
    void recordScaleEvent(double time_sec, int active_pods,
                          char kind);

    /** Records the routable pod count for the window containing
     * @p time_sec (called by the fleet at window boundaries). */
    void recordPodCount(double time_sec, int active_pods);

    double windowSec() const { return windowSec_; }

    /** @return windows spanned so far. */
    std::size_t windowCount() const;

    /** @return total requests recorded (all outcomes + sheds). */
    std::uint64_t totalSubmitted() const;

    /** @return total served (deadline met or none). */
    std::uint64_t totalServed() const;

    /** @return total fleet-level sheds. */
    std::uint64_t totalShed() const;

    /**
     * Emits the full time series: per-window counter arrays, derived
     * goodput/availability trajectories, p50/p99 latency trajectories
     * and the scale-event log. Values are virtual-time quantities
     * only, so same-seed runs emit byte-identical documents.
     */
    void appendJson(JsonWriter &j) const;

  private:
    struct Window
    {
        std::uint64_t submitted = 0;
        std::uint64_t served = 0;
        std::uint64_t shed = 0;
        std::uint64_t rejectedDeadline = 0;
        std::uint64_t rejectedQueueFull = 0;
        std::uint64_t rejectedInvalid = 0;
        std::uint64_t deadlineMissed = 0;
        std::uint64_t failed = 0;
        std::uint64_t failedMachineCheck = 0;
        std::uint64_t machineChecks = 0;
        std::uint64_t mcRetries = 0;
        int activePods = 0;
        Histogram latency;

        explicit Window(double lat_hi_sec, std::size_t buckets)
            : latency(0.0, lat_hi_sec, buckets)
        {
        }
    };

    Window &windowAtLocked(double time_sec);

    const double windowSec_;
    const double latHiSec_;
    const std::size_t buckets_;

    mutable std::mutex mu_;
    std::vector<Window> windows_;
    std::vector<ScaleEvent> events_;
    Histogram overall_; ///< Whole-run served-latency distribution.
    /** Served-latency sum for the mean: the histogram's own sum sits
     * on a ~1 us grid, which rounds sub-microsecond samples to 0. */
    FineFixedPointSum latencySum_;
};

} // namespace tsp::fleet

#endif // TSP_FLEET_TIMESERIES_HH
