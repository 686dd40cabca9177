/**
 * @file
 * Shared helpers for the benchmark binaries: table printing, the
 * standard header each experiment emits (paper artifact id + claim),
 * repeated timing with median and quartiles, and a JSON result
 * emitter so benches leave machine-readable BENCH_*.json artifacts
 * for the perf trajectory.
 */

#ifndef TSP_BENCH_BENCH_UTIL_HH
#define TSP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"

namespace tsp::bench {

/** Prints the experiment banner. */
inline void
banner(const char *id, const char *claim)
{
    std::printf("=============================================="
                "==================\n");
    std::printf("%s\n", id);
    std::printf("paper: %s\n", claim);
    std::printf("----------------------------------------------"
                "------------------\n");
}

/** Prints a footer separating experiments in concatenated logs. */
inline void
footer()
{
    std::printf("\n");
}

/** Repeated wall times of one piece of work, in seconds. */
struct Measurement
{
    double median = 0.0;
    double q1 = 0.0; ///< Lower quartile.
    double q3 = 0.0; ///< Upper quartile.
    int reps = 0;    ///< Timed repetitions.
};

/**
 * Runs @p fn at least @p reps times, and on until @p min_time seconds
 * of timed work have accumulated. Each call runs one repetition and
 * returns the seconds its timed part took, so setup it redoes each
 * time (a fresh chip, a reset) stays out of the timings.
 *
 * @return the median and quartiles (linear interpolation between
 * order statistics) of the per-call times.
 */
template <typename Fn>
Measurement
measure(Fn &&fn, int reps, double min_time)
{
    std::vector<double> t;
    double total = 0.0;
    while (static_cast<int>(t.size()) < std::max(reps, 1) ||
           total < min_time) {
        t.push_back(fn());
        total += t.back();
    }
    std::sort(t.begin(), t.end());
    const auto at = [&](double q) {
        const double pos = q * static_cast<double>(t.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, t.size() - 1);
        return t[lo] + (t[hi] - t[lo]) * (pos - static_cast<double>(lo));
    };
    Measurement m;
    m.median = at(0.5);
    m.q1 = at(0.25);
    m.q3 = at(0.75);
    m.reps = static_cast<int>(t.size());
    return m;
}

/**
 * Writes a flat {name: number} JSON object to @p path and announces
 * the artifact on stdout. Doubles represent every value (cycle
 * counts fit: < 2^53). For nested results build a JsonWriter and use
 * writeJsonFile directly.
 *
 * @return true on success.
 */
inline bool
writeJson(const std::string &path,
          std::initializer_list<std::pair<const char *, double>> kv)
{
    JsonWriter j;
    j.beginObject();
    for (const auto &[name, v] : kv)
        j.kv(name, v);
    j.endObject();
    const bool ok = writeJsonFile(path, j.str());
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                path.c_str());
    return ok;
}

} // namespace tsp::bench

#endif // TSP_BENCH_BENCH_UTIL_HH
