/**
 * @file
 * Measurement harness shared by the perfbench workloads: the host
 * clock, order statistics, peak memory, an in-memory span log for the
 * traced run, and the report each workload fills in.
 *
 * Spans are recorded around calls the benchmark makes into the
 * simulator's public API (no instrumentation inside src/). A span's
 * name is "<layer>.<call>", where the layer is the src/ module that
 * owns the call, so a layer's self time is the summed duration of its
 * spans minus the part covered by their child spans.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/snapshot_io.hh"

namespace perfbench {

/** @return the host monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** @return the calling thread's CPU time in nanoseconds. */
std::int64_t threadCpuNs();

/** @return seconds elapsed since @p start_ns. */
double secondsSince(std::int64_t start_ns);

/** @return the median of @p v (mean of the middle pair); 0 if empty. */
double median(std::vector<double> v);

/** @return the nearest-rank @p p quantile of @p v; 0 if empty. */
double quantile(std::vector<double> v, double p);

/** A served request as its engine's thread saw it. */
struct Completion
{
    std::int64_t atNs = 0; ///< Host time the engine finished it.
    /** Engine thread CPU time charged to it; a batch's CPU time is
     * charged to its members, summing to the batch. */
    std::int64_t busyCpuNs = 0;
};

/**
 * Orders @p done, every engine's completions, by completion time,
 * keeps those at or after @p from_ns, and cuts them into 16 runs of
 * equal count. @return each run's engine CPU ms per request: the
 * steady-state cost of a request, whose median over runs leaves out
 * the start and the end of the phase. Engines that serve different
 * mixes (families, load shares) contribute to every run alike.
 */
std::vector<double> chunkMsPerRequest(std::vector<Completion> done,
                                      std::int64_t from_ns);

/** @return the peak resident set size of this process, MiB. */
double peakRssMiB();

/** @return @p h as 16 hex digits. */
std::string hex(std::uint64_t h);

/** @return the 64-bit FNV-1a digest of @p s as 16 hex digits. */
inline std::string
digest(const std::string &s)
{
    return hex(tsp::fnv1a64(s.data(), s.size()));
}

/** @return FNV-1a digest @p h chained over the bytes of @p v. */
template <typename T>
std::uint64_t
fold(std::uint64_t h, const T &v)
{
    return tsp::fnv1a64(&v, sizeof v, h);
}

/** One timed call. */
struct Span
{
    const char *name = "";      ///< "<layer>.<call>", static storage.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;       ///< 1-based, unique per log.
    std::uint64_t parent = 0;   ///< Enclosing span on this thread.
    std::uint64_t request = 0;  ///< 0 when the caller cannot tell.
    std::uint32_t thread = 0;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

/**
 * In-memory span recorder. A disabled log records nothing and its
 * scopes cost one branch, so the untraced run carries the same code.
 * Each thread appends to its own buffer; collect() is valid once the
 * recording threads are quiescent (joined or drained).
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span: opens at construction, closes at destruction. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        Span span_;
    };

    /** Opens a span named @p name (a string literal). */
    Scope
    scope(const char *name, std::uint64_t request = 0)
    {
        return Scope(enabled_ ? this : nullptr, name, request);
    }

    /** @return every closed span, ordered by start time. */
    std::vector<Span> collect() const;

    /** @return durations (ms) of the spans named @p name that
     * started in [@p from_ns, @p to_ns). */
    std::vector<double> durationsMs(const std::string &name,
                                    std::int64_t from_ns = 0,
                                    std::int64_t to_ns = INT64_MAX) const;

    /** @return summed duration (ms) of those spans. */
    double totalMs(const std::string &name, std::int64_t from_ns = 0,
                   std::int64_t to_ns = INT64_MAX) const;

    /** @return self time (ms) per layer: span time minus children. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Writes Chrome trace-event JSON (opens in Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct ThreadBuf
    {
        std::uint32_t thread = 0;
        std::vector<std::uint64_t> open; ///< Open span ids, innermost last.
        std::vector<Span> spans;
    };

    ThreadBuf &local();

    const bool enabled_;
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_; ///< Guards bufs_ (registration only).
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/** What one workload run measured and checked. */
struct Report
{
    // Host-time samples (end-to-end, untraced run).
    std::vector<double> setupS;     ///< One per set-up.
    std::vector<double> firstReqMs; ///< One per cold pass.
    std::vector<double> reqMs;      ///< Per request or per chunk.
    double hostRps = 0.0;
    double peakRssMiB = 0.0;

    // Simulated results: identical for one seed on every run.
    double chipCycles = 0.0;
    double energyUj = 0.0;
    double servedShare = 0.0;
    double virtUsP50 = 0.0;
    double virtUsP99 = 0.0;

    // Request accounting over the whole run.
    std::uint64_t attempted = 0;
    std::uint64_t served = 0;
    std::uint64_t refused = 0; ///< Shed or rejected by admission.
    std::uint64_t failed = 0;  ///< Failed, machine-check failed, missed.

    // Correctness.
    std::uint64_t outputsChecked = 0;
    std::uint64_t outputMismatches = 0;
    std::uint64_t predictionMismatches = 0;
    std::vector<std::string> errors;

    /** Digests of simulated results that must not depend on tracing
     * or on the host: compared across runs of one seed. */
    std::map<std::string, std::string> digests;

    /** Per-layer metrics (traced run only). */
    std::map<std::string, double> layers;

    /** Extra figures printed in the report and the artifact. */
    std::map<std::string, double> notes;

    /** Records a failed correctness check. */
    void fail(std::string what) { errors.push_back(std::move(what)); }

};

/** Command-line parameters common to every workload. */
struct RunParams
{
    std::uint64_t seed = 1;
    int seconds = 10;
    bool traced = false;
    std::string artifactDir; ///< Where the traced run writes files.
};

/** The three workloads (perfbench/README.md says why each exists). */
void runResnet50(const RunParams &p, SpanLog &spans, Report &rep);
void runServeMix(const RunParams &p, SpanLog &spans, Report &rep);
void runFleetSoak(const RunParams &p, SpanLog &spans, Report &rep);

/**
 * Fills the per-layer metrics every workload takes from spans: the
 * last set-up's build, lower, assemble and construct calls, and the
 * runtime calls of the timed phase [@p from_ns, @p to_ns), in which
 * @p engine_threads threads run the engines.
 */
void addSpanLayers(const SpanLog &spans, std::int64_t from_ns,
                   std::int64_t to_ns, int engine_threads, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
