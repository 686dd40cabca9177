/**
 * @file
 * E15 supplement: scale-out — a statically scheduled ring all-reduce
 * across 2..12 chips. The paper positions the C2C fabric for
 * "high-radix interconnection networks of TSPs for large-scale
 * systems"; determinism extends across chips, so collective time is
 * an exact linear function of ring size with zero variance.
 */

#include "bench_util.hh"
#include "c2c/collective.hh"
#include "common/rng.hh"
#include "mem/ecc.hh"

int
main()
{
    using namespace tsp;
    bench::banner("E15b: multi-chip ring all-reduce scaling",
                  "deterministic chips + deskewed links => "
                  "handshake-free collectives with exactly "
                  "predictable completion times");

    std::printf("%-8s %10s %14s %12s %10s\n", "chips", "hops",
                "cycles", "us @1GHz", "exact?");
    Cycle phase = 0;
    bool all_exact = true;
    for (const int n : {2, 3, 4, 6, 8, 12}) {
        Pod pod(n, /*wire_latency=*/25);
        Rng rng(static_cast<std::uint64_t>(n));
        for (int c = 0; c < n; ++c) {
            Vec320 v;
            for (int l = 0; l < kLanes; ++l) {
                v.bytes[static_cast<std::size_t>(l)] =
                    static_cast<std::uint8_t>(
                        static_cast<std::int8_t>(
                            rng.intIn(-20, 20)));
            }
            pod.chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorWrite(AllReducePlan::kLocalAddr, v);
        }
        std::vector<ScheduledProgram> programs;
        const AllReducePlan plan = buildRingAllReduce(pod, programs);
        phase = plan.phase;
        const Cycle cycles = runAllReduce(pod, programs);
        // Completion is predicted exactly by the plan before running.
        const bool exact = cycles == plan.finish;
        all_exact = all_exact && exact;
        std::printf("%-8d %10d %14llu %12.2f %10s\n", n, 2 * n - 2,
                    static_cast<unsigned long long>(cycles),
                    static_cast<double>(cycles) * 1e-3,
                    exact ? "yes" : "NO");
    }
    std::printf("\nper-hop cost: %llu cycles (22 serialize + 25 "
                "wire + on-chip fold/commit)\n",
                static_cast<unsigned long long>(phase));
    std::printf("shape check: every completion predicted exactly "
                "before execution: %s\n",
                all_exact ? "yes" : "NO");
    bench::footer();
    return all_exact ? 0 : 1;
}
