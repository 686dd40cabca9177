/**
 * @file
 * Shared helpers for the benchmark binaries: table printing, the
 * standard header each experiment emits (paper artifact id + claim),
 * and a JSON result emitter so benches leave machine-readable
 * BENCH_*.json artifacts for the perf trajectory.
 */

#ifndef TSP_BENCH_BENCH_UTIL_HH
#define TSP_BENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

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
