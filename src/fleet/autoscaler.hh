/**
 * @file
 * Deterministic pod autoscaler.
 *
 * The scaler is a pure state machine evaluated once per observation
 * window on *virtual-time* signals only: the mean booked backlog per
 * routable pod (AdmissionController::backlogSec — the sum of booked
 * busy time still ahead of `now`, a pure function of the admission
 * history) and the fraction of the window's submissions the fleet
 * shed. Neither signal depends on host-thread scheduling, so the
 * entire scaling trajectory replays identically for a given seed.
 * Signals that are only knowable after execution on a wall clock
 * (actual queue wait, worker idle time) are deliberately *not* used.
 *
 * Hysteresis: a scale-up needs `upWindows` consecutive pressured
 * windows, a drain needs `downWindows` consecutive idle ones, and any
 * decision resets both streaks — which doubles as a cooldown so the
 * scaler cannot flap faster than its own evidence accumulates.
 */

#ifndef TSP_FLEET_AUTOSCALER_HH
#define TSP_FLEET_AUTOSCALER_HH

#include <cstdint>

namespace tsp::fleet {

/** Autoscaler policy knobs. */
struct AutoscalerConfig
{
    /** Pod-count bounds (drains never go below min; launches never
     * exceed max, counting pods still provisioning). */
    int minPods = 1;
    int maxPods = 8;

    /** Mean booked backlog per routable pod (virtual seconds) at or
     * above which a window counts as pressured. */
    double scaleUpBacklogSec = 0.5;

    /** Shed fraction at or above which a window counts as pressured
     * even if backlog looks fine (capacity is provably short). */
    double scaleUpShedFrac = 0.01;

    /** Mean booked backlog per routable pod below which a window
     * counts as idle (only windows with zero sheds qualify). */
    double scaleDownBacklogSec = 0.05;

    /** Consecutive pressured windows required to launch a pod. */
    int upWindows = 2;

    /** Consecutive idle windows required to drain a pod. */
    int downWindows = 5;

    /** Virtual seconds between a launch decision and the new pod
     * becoming routable (models provisioning / weight install). */
    double provisionSec = 2.0;
};

/** Window-level observation the fleet feeds the scaler. */
struct AutoscalerSignal
{
    /** Mean booked backlog per routable pod, virtual seconds. */
    double backlogSecPerPod = 0.0;

    /** Fraction of this window's submissions shed by the fleet. */
    double shedFraction = 0.0;
};

/** What the fleet should do after a window. */
enum class ScaleDecision : std::uint8_t {
    Hold,
    Up,   ///< Launch one pod.
    Down, ///< Start draining one pod.
};

/** The hysteresis state machine (one instance per fleet). */
class Autoscaler
{
  public:
    explicit Autoscaler(AutoscalerConfig cfg);

    /**
     * Evaluates one window.
     *
     * @param s the window's signals.
     * @param routable_pods pods currently accepting traffic.
     * @param provisioning_pods pods launched but not yet routable.
     * @return the decision; Up/Down reset both streaks (cooldown).
     */
    ScaleDecision evaluate(const AutoscalerSignal &s,
                           int routable_pods,
                           int provisioning_pods);

    const AutoscalerConfig &config() const { return cfg_; }

  private:
    AutoscalerConfig cfg_;
    int upStreak_ = 0;
    int downStreak_ = 0;
};

} // namespace tsp::fleet

#endif // TSP_FLEET_AUTOSCALER_HH
