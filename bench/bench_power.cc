/**
 * @file
 * E4 (Fig. 10): per-layer power while ResNet-50 executes.
 *
 * The paper plots measured chip power layer by layer, with spikes
 * where four conv2d operations run concurrently at peak arithmetic
 * utilization. We reproduce the *shape* from the activity-based power
 * model: one fast-forward run stops at every lowered layer boundary
 * and at 64 equal buckets of the schedule, and each window's average
 * power is its energy delta over its duration, plus an ASCII profile.
 * Exits 1 if a stop misses its cycle, the run does not retire at
 * exactly Lowering::finishCycle(), or the shape check fails.
 */

#include <algorithm>
#include <map>

#include "bench_util.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

int
main()
{
    using namespace tsp;
    bench::banner("E4 (Fig. 10): power usage for ResNet-50 layers",
                  "power tracks MXM occupancy layer by layer; spikes "
                  "at concurrent conv2d regions; deterministic "
                  "profile run-to-run");

    Graph g = model::buildResNet(50, 42);
    const auto input = model::im2colStem(model::makeImage(7));
    Lowering lw(true);
    const auto tensors = g.lower(lw, input);
    (void)tensors;

    InferenceSession sess(lw, ChipConfig{});
    Chip &chip = sess.chip();
    const Cycle base = chip.now();
    const Cycle finish = lw.finishCycle();
    constexpr std::size_t kBuckets = 64;

    // Bucket b holds the cycles c with c * 64 / finish == b.
    const auto bucketEdge = [&](std::size_t b) {
        return (b * finish + kBuckets - 1) / kBuckets;
    };

    // Energy at every window edge: layer spans (clamped to the run)
    // and bucket edges.
    std::map<Cycle, double> energy;
    for (const auto &L : lw.layers()) {
        energy.try_emplace(std::min(L.begin, finish));
        energy.try_emplace(std::min(L.end, finish));
    }
    for (std::size_t b = 0; b <= kBuckets; ++b)
        energy.try_emplace(bucketEdge(b));
    bool stops_ok = true;
    for (auto &[stop, e] : energy) {
        const bool retired = chip.runBounded(base + stop);
        stops_ok &= chip.now() == base + stop && retired == (stop == finish);
        e = chip.power().totalEnergyJ();
    }
    const double period = chip.config().cyclePeriodSec();
    const auto avgW = [&](Cycle b, Cycle e) {
        return e > b ? (energy[e] - energy[b]) /
                           (static_cast<double>(e - b) * period)
                     : 0.0;
    };

    std::printf("%llu cycles, average power %.1f W\n\n",
                static_cast<unsigned long long>(chip.now() - base),
                chip.power().averagePowerW());

    // Average power within each lowered layer's cycle span.
    std::printf("%-4s %-10s %10s %10s %8s\n", "#", "layer", "begin",
                "cycles", "avg W");
    double peak_w = 0.0;
    std::vector<double> layer_w;
    for (std::size_t i = 0; i < lw.layers().size(); ++i) {
        const auto &L = lw.layers()[i];
        const Cycle b = std::min(L.begin, finish);
        const Cycle e = std::min(L.end, finish);
        const double avg = avgW(b, e);
        layer_w.push_back(avg);
        peak_w = std::max(peak_w, avg);
        if (i < 12 || i + 6 >= lw.layers().size()) {
            std::printf("%-4zu %-10s %10llu %10llu %8.1f\n", i,
                        L.name.c_str(),
                        static_cast<unsigned long long>(L.begin),
                        static_cast<unsigned long long>(e - b), avg);
        } else if (i == 12) {
            std::printf("...  (%zu more layers)\n",
                        lw.layers().size() - 18);
        }
    }

    // ASCII profile over 64 equal buckets (the Fig. 10 curve).
    std::printf("\npower profile (64 buckets, '#' = %0.0f W):\n",
                peak_w / 24.0);
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const double w = avgW(bucketEdge(b), bucketEdge(b + 1));
        const int bars = static_cast<int>(w / peak_w * 24.0);
        std::printf("%3zu |", b);
        for (int i = 0; i < bars; ++i)
            std::putchar('#');
        std::printf(" %.0f W\n", w);
    }

    // Shape checks: conv spikes above eltwise layers; idle floor
    // below everything.
    double conv_max = 0.0, res_max = 0.0;
    for (std::size_t i = 0; i < lw.layers().size(); ++i) {
        if (lw.layers()[i].name == "conv2d")
            conv_max = std::max(conv_max, layer_w[i]);
        if (lw.layers()[i].name == "residual")
            res_max = std::max(res_max, layer_w[i]);
    }
    std::printf("\nshape check: peak conv power (%.1f W) > peak "
                "residual power (%.1f W): %s\n",
                conv_max, res_max, conv_max > res_max ? "yes" : "NO");
    if (!stops_ok) {
        std::printf("FAIL: a stop missed its cycle or the run did not "
                    "retire at cycle %llu\n",
                    static_cast<unsigned long long>(finish));
    }
    bench::footer();
    return stops_ok && conv_max > res_max ? 0 : 1;
}
