#include "fleet/autoscaler.hh"

#include "common/logging.hh"

namespace tsp::fleet {

Autoscaler::Autoscaler(AutoscalerConfig cfg) : cfg_(cfg)
{
    TSP_ASSERT(cfg_.minPods >= 1);
    TSP_ASSERT(cfg_.maxPods >= cfg_.minPods);
    TSP_ASSERT(cfg_.upWindows >= 1);
    TSP_ASSERT(cfg_.downWindows >= 1);
    TSP_ASSERT(cfg_.scaleDownBacklogSec <= cfg_.scaleUpBacklogSec);
}

ScaleDecision
Autoscaler::evaluate(const AutoscalerSignal &s, int routable_pods,
                     int provisioning_pods)
{
    const bool pressured =
        s.backlogSecPerPod >= cfg_.scaleUpBacklogSec ||
        s.shedFraction >= cfg_.scaleUpShedFrac;
    const bool idle = s.backlogSecPerPod < cfg_.scaleDownBacklogSec &&
                      s.shedFraction == 0.0;

    if (pressured) {
        downStreak_ = 0;
        ++upStreak_;
        if (upStreak_ >= cfg_.upWindows &&
            routable_pods + provisioning_pods < cfg_.maxPods) {
            upStreak_ = 0;
            return ScaleDecision::Up;
        }
        return ScaleDecision::Hold;
    }

    upStreak_ = 0;
    if (idle) {
        ++downStreak_;
        // A pod still provisioning means a recent scale-up; never
        // drain while one is in flight.
        if (downStreak_ >= cfg_.downWindows &&
            provisioning_pods == 0 &&
            routable_pods > cfg_.minPods) {
            downStreak_ = 0;
            return ScaleDecision::Down;
        }
        return ScaleDecision::Hold;
    }

    downStreak_ = 0;
    return ScaleDecision::Hold;
}

} // namespace tsp::fleet
