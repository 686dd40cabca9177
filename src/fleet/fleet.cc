#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/stats.hh"

namespace tsp::fleet {

Fleet::Fleet(FleetConfig cfg, SoakTimeSeries &ts)
    : cfg_(std::move(cfg)), ts_(ts), scaler_(cfg_.autoscaler)
{
    TSP_ASSERT(cfg_.initialPods >= 1);
    TSP_ASSERT(cfg_.makeBackend != nullptr);
    TSP_ASSERT(!cfg_.cyclesByBatch.empty());
    TSP_ASSERT(cfg_.windowSec > 0.0);
    pods_.reserve(static_cast<std::size_t>(cfg_.initialPods));
    for (int p = 0; p < cfg_.initialPods; ++p) {
        launchPod(0.0);
        pods_.back().info.state = PodState::Active;
        pods_.back().info.readyAtSec = 0.0;
    }
    ts_.recordPodCount(0.0, activePods());
}

Fleet::~Fleet() { drainAll(); }

void
Fleet::launchPod(double now_sec)
{
    const int id = static_cast<int>(pods_.size());
    serve::ServerConfig sc = cfg_.server;
    sc.onResult = [this](const serve::Result &r) {
        ts_.recordResult(r);
    };
    Pod pod;
    pod.info.id = id;
    pod.info.state = PodState::Provisioning;
    pod.info.readyAtSec = now_sec + cfg_.autoscaler.provisionSec;
    pod.server = std::make_unique<serve::InferenceServer>(
        [this, id](int worker) { return cfg_.makeBackend(id, worker); },
        cfg_.cyclesByBatch, sc);
    pods_.push_back(std::move(pod));
}

int
Fleet::activePods() const
{
    int n = 0;
    for (const Pod &p : pods_)
        n += p.info.state == PodState::Active ? 1 : 0;
    return n;
}

int
Fleet::podsRetired() const
{
    int n = 0;
    for (const Pod &p : pods_) {
        n += (p.info.state == PodState::Draining ||
              p.info.state == PodState::Drained)
                 ? 1
                 : 0;
    }
    return n;
}

double
Fleet::totalBacklogSec(double now_sec) const
{
    // Order-independent across pods: the fleet total must not change
    // if the pod container is ever reordered or summed concurrently.
    FineFixedPointSum total;
    for (const Pod &p : pods_) {
        if (p.info.state != PodState::Drained)
            total.add(p.server->admission().backlogSec(now_sec));
    }
    return total.value();
}

void
Fleet::evaluateWindow(std::size_t window, double boundary_sec)
{
    // Promote pods whose provisioning delay has elapsed.
    for (Pod &p : pods_) {
        if (p.info.state == PodState::Provisioning &&
            p.info.readyAtSec <= boundary_sec)
            p.info.state = PodState::Active;
    }

    int routable = 0, provisioning = 0;
    FineFixedPointSum backlog;
    for (const Pod &p : pods_) {
        if (p.info.state == PodState::Active) {
            ++routable;
            backlog.add(
                p.server->admission().backlogSec(boundary_sec));
        } else if (p.info.state == PodState::Provisioning) {
            ++provisioning;
        }
    }

    AutoscalerSignal sig;
    sig.backlogSecPerPod =
        backlog.value() / static_cast<double>(std::max(1, routable));
    // Shed fraction from the fleet's own submit-thread counters
    // (the shared time series attributes served results at
    // completion time, which lags the boundary nondeterministically).
    if (window < winSubmitted_.size() &&
        winSubmitted_[window] > 0) {
        sig.shedFraction =
            static_cast<double>(winShed_[window]) /
            static_cast<double>(winSubmitted_[window]);
    }

    const ScaleDecision d =
        scaler_.evaluate(sig, routable, provisioning);
    if (d == ScaleDecision::Up) {
        launchPod(boundary_sec);
        ts_.recordScaleEvent(boundary_sec, routable, '+');
    } else if (d == ScaleDecision::Down) {
        // Drain the active pod with the least booked backlog (ties
        // to the youngest): cheapest to retire, and the fleet sheds
        // nothing it could have served.
        Pod *victim = nullptr;
        double best = std::numeric_limits<double>::infinity();
        for (Pod &p : pods_) {
            if (p.info.state != PodState::Active)
                continue;
            const double b =
                p.server->admission().backlogSec(boundary_sec);
            if (victim == nullptr || b <= best) {
                victim = &p;
                best = b;
            }
        }
        TSP_ASSERT(victim != nullptr);
        victim->info.state = PodState::Draining;
        // Seal the open batch so the remaining backlog executes
        // without waiting for traffic that will never route here.
        victim->server->flushOpenBatch();
        ts_.recordScaleEvent(boundary_sec, routable - 1, '-');
    }

    // Retire draining pods whose entire booking is in the past.
    for (Pod &p : pods_) {
        if (p.info.state != PodState::Draining)
            continue;
        if (p.server->admission().busyUntil() <= boundary_sec) {
            p.server->drain();
            p.info.state = PodState::Drained;
            ts_.recordScaleEvent(boundary_sec, activePods(), '=');
        }
    }

    // The boundary is the first instant of window + 1.
    ts_.recordPodCount(boundary_sec, activePods());
}

void
Fleet::advanceTo(double now_sec)
{
    for (;;) {
        const double boundary =
            static_cast<double>(nextWindow_ + 1) * cfg_.windowSec;
        if (boundary > now_sec)
            break;
        evaluateWindow(nextWindow_, boundary);
        ++nextWindow_;
    }
    // Mid-window promotion: a pod becomes routable the moment its
    // provisioning delay elapses, not at the next boundary.
    for (Pod &p : pods_) {
        if (p.info.state == PodState::Provisioning &&
            p.info.readyAtSec <= now_sec)
            p.info.state = PodState::Active;
    }
}

void
Fleet::submit(std::vector<std::int8_t> input, double arrival_sec,
              double deadline_sec)
{
    const std::size_t w = static_cast<std::size_t>(
        std::floor(std::max(0.0, arrival_sec) / cfg_.windowSec));
    if (winSubmitted_.size() <= w) {
        winSubmitted_.resize(w + 1, 0);
        winShed_.resize(w + 1, 0);
    }
    ++winSubmitted_[w];

    // Route to the pod whose exact admission state proves the
    // earliest completion (ties to the lowest id).
    Pod *best = nullptr;
    double best_completion =
        std::numeric_limits<double>::infinity();
    for (Pod &p : pods_) {
        if (p.info.state != PodState::Active)
            continue;
        const double c =
            p.server->admission().earliestCompletionFor(0, arrival_sec);
        if (best == nullptr || c < best_completion) {
            best = &p;
            best_completion = c;
        }
    }
    TSP_ASSERT(best != nullptr); // minPods >= 1 keeps one routable.

    // Fleet-level shed: every routable pod provably misses the
    // deadline, so not one chip cycle is spent. (Conservative under
    // batching: a feasible join into an already-open batch could
    // still make it, but a shed never wastes capacity on a loser.)
    if (deadline_sec > 0.0 && best_completion > deadline_sec) {
        ++shed_;
        ++winShed_[w];
        ts_.recordShed(arrival_sec);
        return;
    }

    best->server->submitModelDetached(
        0, 0, std::move(input), arrival_sec, deadline_sec,
        serve::InferenceServer::OnFull::Block);
}

void
Fleet::drainAll()
{
    for (Pod &p : pods_) {
        if (p.info.state == PodState::Drained)
            continue;
        p.server->flushOpenBatch();
        p.server->drain();
    }
}

} // namespace tsp::fleet
