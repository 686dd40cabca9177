#include "fleet/timeseries.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tsp::fleet {

SoakTimeSeries::SoakTimeSeries(double window_sec, double lat_hi_sec,
                               std::size_t buckets)
    : windowSec_(window_sec), latHiSec_(lat_hi_sec),
      buckets_(buckets), overall_(0.0, lat_hi_sec, buckets)
{
    TSP_ASSERT(window_sec > 0.0);
}

SoakTimeSeries::Window &
SoakTimeSeries::windowAtLocked(double time_sec)
{
    const double t = std::max(0.0, time_sec);
    const std::size_t w =
        static_cast<std::size_t>(std::floor(t / windowSec_));
    while (windows_.size() <= w) {
        // A new window inherits the current pod count until the
        // fleet stamps it at the boundary.
        const int pods =
            windows_.empty() ? 0 : windows_.back().activePods;
        windows_.emplace_back(latHiSec_, buckets_);
        windows_.back().activePods = pods;
    }
    return windows_[w];
}

void
SoakTimeSeries::recordResult(const serve::Result &r)
{
    std::lock_guard<std::mutex> lock(mu_);
    Window &w = windowAtLocked(r.arrivalSec);
    ++w.submitted;
    w.machineChecks += r.machineChecks;
    w.mcRetries += r.retries;
    switch (r.outcome) {
      case serve::Outcome::Served:
        ++w.served;
        w.latency.record(r.latencySec());
        overall_.record(r.latencySec());
        latencySum_.add(r.latencySec());
        break;
      case serve::Outcome::RejectedDeadline:
        ++w.rejectedDeadline;
        break;
      case serve::Outcome::RejectedQueueFull:
        ++w.rejectedQueueFull;
        break;
      case serve::Outcome::RejectedInvalid:
        ++w.rejectedInvalid;
        break;
      case serve::Outcome::DeadlineMissed:
        ++w.deadlineMissed;
        break;
      case serve::Outcome::Failed:
        ++w.failed;
        break;
      case serve::Outcome::FailedMachineCheck:
        ++w.failedMachineCheck;
        break;
    }
}

void
SoakTimeSeries::recordShed(double arrival_sec)
{
    std::lock_guard<std::mutex> lock(mu_);
    Window &w = windowAtLocked(arrival_sec);
    ++w.submitted;
    ++w.shed;
}

void
SoakTimeSeries::recordScaleEvent(double time_sec, int active_pods,
                                 char kind)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(ScaleEvent{time_sec, active_pods, kind});
}

void
SoakTimeSeries::recordPodCount(double time_sec, int active_pods)
{
    std::lock_guard<std::mutex> lock(mu_);
    windowAtLocked(time_sec).activePods = active_pods;
}

std::size_t
SoakTimeSeries::windowCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return windows_.size();
}

std::uint64_t
SoakTimeSeries::totalSubmitted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const Window &w : windows_)
        n += w.submitted;
    return n;
}

std::uint64_t
SoakTimeSeries::totalServed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const Window &w : windows_)
        n += w.served;
    return n;
}

std::uint64_t
SoakTimeSeries::totalShed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const Window &w : windows_)
        n += w.shed;
    return n;
}

void
SoakTimeSeries::appendJson(JsonWriter &j) const
{
    std::lock_guard<std::mutex> lock(mu_);

    std::uint64_t submitted = 0, served = 0, shed = 0,
                  rej_deadline = 0, rej_full = 0, rej_invalid = 0,
                  missed = 0, failed = 0, failed_mc = 0, mchecks = 0,
                  retries = 0;
    for (const Window &w : windows_) {
        submitted += w.submitted;
        served += w.served;
        shed += w.shed;
        rej_deadline += w.rejectedDeadline;
        rej_full += w.rejectedQueueFull;
        rej_invalid += w.rejectedInvalid;
        missed += w.deadlineMissed;
        failed += w.failed;
        failed_mc += w.failedMachineCheck;
        mchecks += w.machineChecks;
        retries += w.mcRetries;
    }

    j.beginObject();
    j.kv("window_sec", windowSec_);
    j.kv("windows", static_cast<std::uint64_t>(windows_.size()));

    j.key("totals").beginObject();
    j.kv("submitted", submitted);
    j.kv("served", served);
    j.kv("shed", shed);
    j.kv("rejected_deadline", rej_deadline);
    j.kv("rejected_queue_full", rej_full);
    j.kv("rejected_invalid", rej_invalid);
    j.kv("deadline_missed", missed);
    j.kv("failed", failed);
    j.kv("failed_machine_check", failed_mc);
    j.kv("machine_checks", mchecks);
    j.kv("mc_retries", retries);
    j.kv("availability",
         submitted == 0 ? 1.0
                        : static_cast<double>(served) /
                              static_cast<double>(submitted));
    if (overall_.count() > 0) {
        j.key("latency_us").beginObject();
        j.kv("p50", overall_.quantile(0.50) * 1e6);
        j.kv("p99", overall_.quantile(0.99) * 1e6);
        j.kv("mean", latencySum_.value() /
                         static_cast<double>(overall_.count()) * 1e6);
        j.kv("max", overall_.maxSample() * 1e6);
        j.endObject();
    }
    j.endObject();

    // Per-window trajectories: parallel arrays indexed by window.
    auto emitCounts = [&](const char *name,
                          std::uint64_t Window::*field) {
        j.key(name).beginArray();
        for (const Window &w : windows_)
            j.value(w.*field);
        j.endArray();
    };
    j.key("series").beginObject();
    emitCounts("submitted", &Window::submitted);
    emitCounts("served", &Window::served);
    emitCounts("shed", &Window::shed);
    emitCounts("rejected_deadline", &Window::rejectedDeadline);
    emitCounts("rejected_queue_full", &Window::rejectedQueueFull);
    emitCounts("rejected_invalid", &Window::rejectedInvalid);
    emitCounts("deadline_missed", &Window::deadlineMissed);
    emitCounts("failed", &Window::failed);
    emitCounts("failed_machine_check", &Window::failedMachineCheck);
    emitCounts("machine_checks", &Window::machineChecks);
    emitCounts("mc_retries", &Window::mcRetries);

    j.key("active_pods").beginArray();
    for (const Window &w : windows_)
        j.value(w.activePods);
    j.endArray();

    j.key("goodput_rps").beginArray();
    for (const Window &w : windows_)
        j.value(static_cast<double>(w.served) / windowSec_);
    j.endArray();

    j.key("availability").beginArray();
    for (const Window &w : windows_)
        j.value(w.submitted == 0
                    ? 1.0
                    : static_cast<double>(w.served) /
                          static_cast<double>(w.submitted));
    j.endArray();

    // A window that served nothing has no latency population; emit
    // the -1 sentinel — a value no real latency can take — instead of
    // 0.0, which is indistinguishable from a legitimate (sub-bucket)
    // near-zero quantile and read by dashboards as "infinitely fast".
    j.key("p50_us").beginArray();
    for (const Window &w : windows_)
        j.value(w.latency.count() == 0
                    ? -1.0
                    : w.latency.quantile(0.50) * 1e6);
    j.endArray();

    j.key("p99_us").beginArray();
    for (const Window &w : windows_)
        j.value(w.latency.count() == 0
                    ? -1.0
                    : w.latency.quantile(0.99) * 1e6);
    j.endArray();
    j.endObject();

    j.key("scale_events").beginArray();
    for (const ScaleEvent &e : events_) {
        j.beginObject();
        j.kv("t_sec", e.timeSec);
        j.kv("active_pods", e.activePods);
        j.kv("kind", std::string(1, e.kind));
        j.endObject();
    }
    j.endArray();

    j.endObject();
}

} // namespace tsp::fleet
