#include "serve/metrics.hh"

#include <algorithm>
#include <cmath>

namespace tsp::serve {
namespace {

/** Histogram upper bound: worst feasible latency, with headroom. */
double
latencyBoundUs(double service_sec, int workers,
               std::size_t queue_capacity)
{
    const double waits =
        std::ceil(static_cast<double>(queue_capacity) /
                  std::max(workers, 1));
    return (waits + 2.0) * service_sec * 1e6;
}

void
appendHistogramJson(JsonWriter &j, const Histogram &h)
{
    j.beginObject();
    j.kv("count", h.count());
    j.kv("mean", h.count() ? h.mean() : 0.0);
    j.kv("min", h.count() ? h.minSample() : 0.0);
    j.kv("max", h.count() ? h.maxSample() : 0.0);
    j.kv("p50", h.count() ? h.quantile(0.50) : 0.0);
    j.kv("p95", h.count() ? h.quantile(0.95) : 0.0);
    j.kv("p99", h.count() ? h.quantile(0.99) : 0.0);
    // Nonzero means the bucket range was exceeded and upper
    // quantiles saturate at max rather than resolving in-range.
    j.kv("underflow", h.underflow());
    j.kv("overflow", h.overflow());
    j.endObject();
}

} // namespace

ServerMetrics::ServerMetrics(double service_sec, int workers,
                             std::size_t queue_capacity)
    : queueUs_(0.0, latencyBoundUs(service_sec, workers, queue_capacity),
               512),
      totalUs_(0.0, latencyBoundUs(service_sec, workers, queue_capacity),
               512)
{
    // Seed every counter the schema promises at zero: a report
    // consumer must be able to distinguish "zero machine checks"
    // from "field not emitted by this build" without guessing
    // (schema_version pins the promise).
    for (const Outcome o :
         {Outcome::Served, Outcome::RejectedDeadline,
          Outcome::RejectedQueueFull, Outcome::RejectedInvalid,
          Outcome::DeadlineMissed, Outcome::Failed,
          Outcome::FailedMachineCheck})
        counters_.add(outcomeName(o), 0);
    for (const char *name :
         {"submitted", "batches", "batch_samples", "machine_checks",
          "retries", "migrations", "ecc_corrected", "preemptions",
          "preempted_requeued", "preempted_shed"})
        counters_.add(name, 0);
}

void
ServerMetrics::recordPreemption(std::uint64_t requeued,
                                std::uint64_t shed)
{
    counters_.add("preemptions");
    counters_.add("preempted_requeued", requeued);
    counters_.add("preempted_shed", shed);
}

void
ServerMetrics::record(const Result &r)
{
    recordOne(r, /*count_reliability=*/true);
}

void
ServerMetrics::recordBatch(const std::vector<Result> &results)
{
    counters_.add("batches");
    counters_.add("batch_samples", results.size());
    bool reliability = true;
    for (const Result &r : results) {
        recordOne(r, reliability);
        // The members shared one physical run; count its machine
        // checks / retries / corrections once, not once per member.
        reliability = false;
    }
}

void
ServerMetrics::recordOne(const Result &r, bool count_reliability)
{
    counters_.add("submitted");
    counters_.add(outcomeName(r.outcome));
    // Reliability counters exist (as zero) even on clean runs so the
    // JSON schema is stable across fault configs.
    counters_.add("machine_checks",
                  count_reliability ? r.machineChecks : 0);
    counters_.add("retries", count_reliability ? r.retries : 0);
    counters_.add("migrations",
                  count_reliability ? r.migrations : 0);
    counters_.add("ecc_corrected",
                  count_reliability ? r.correctedErrors : 0);
    if (r.outcome == Outcome::Served ||
        r.outcome == Outcome::DeadlineMissed) {
        queueUs_.record(r.queueSec() * 1e6);
        totalUs_.record(r.latencySec() * 1e6);
        // Determinism tripwire: a migrated batch measures the whole
        // program too (resume point plus the resumed run).
        if (r.measuredCycles != r.predictedCycles)
            ++mismatches_;
        if (!any_ || r.arrivalSec < firstArrival_)
            firstArrival_ = r.arrivalSec;
        if (!any_ || r.completionSec > lastCompletion_)
            lastCompletion_ = r.completionSec;
        any_ = true;
        if (r.outcome == Outcome::Served) {
            if (!anyServed_ || r.arrivalSec < servedFirstArrival_)
                servedFirstArrival_ = r.arrivalSec;
            if (!anyServed_ ||
                r.completionSec > servedLastCompletion_)
                servedLastCompletion_ = r.completionSec;
            anyServed_ = true;
        }
    }
}

double
ServerMetrics::makespanSec() const
{
    return any_ ? lastCompletion_ - firstArrival_ : 0.0;
}

double
ServerMetrics::throughputRps() const
{
    // Served-only window: a trailing DeadlineMissed completion must
    // not dilute (or inflate) the rate of requests that counted.
    if (!anyServed_)
        return 0.0;
    const double span =
        servedLastCompletion_ - servedFirstArrival_;
    if (span <= 0.0)
        return 0.0;
    return static_cast<double>(counters_.get("served")) / span;
}

void
ServerMetrics::appendJson(JsonWriter &j) const
{
    j.beginObject();
    j.kv("schema_version", kSchemaVersion);
    j.key("counters").beginObject();
    for (const auto &[name, v] : counters_.all())
        j.kv(name, v);
    j.endObject();
    j.key("queue_us");
    appendHistogramJson(j, queueUs_);
    j.key("total_us");
    appendHistogramJson(j, totalUs_);
    j.kv("makespan_us", makespanSec() * 1e6);
    j.kv("throughput_rps", throughputRps());
    j.kv("prediction_mismatches", mismatches_);
    j.endObject();
}

} // namespace tsp::serve
