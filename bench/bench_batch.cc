/**
 * @file
 * E18 (I, V): batch-size behavior — the TSP's raison d'être.
 *
 * A conventional accelerator amortizes weight traffic over a batch,
 * so its batch-1 latency and throughput are poor; the TSP keeps
 * weights resident and deterministic, so per-image latency is flat
 * in batch size and batch-1 throughput is already peak.
 */

#include "baseline/core.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "graph/batch_program.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

int
main()
{
    using namespace tsp;
    bench::banner("E18: latency/throughput vs batch size",
                  "TSP: flat per-image latency at every batch size; "
                  "cache-based parts need large batches to amortize "
                  "weight traffic (the 4x batch-1 gap of section I)");

    // TSP: per-image latency is the single-image program's latency,
    // independent of batching (weights stay resident; each image is
    // its own query). Measure it once on full ResNet-50.
    Graph g = model::buildResNet(50, 42);
    const auto input = model::im2colStem(model::makeImage(7));
    Lowering lw(true);
    const auto t = g.lower(lw, input);
    (void)t;
    InferenceSession sess(lw);
    const Cycle tsp_cycles = sess.run();

    // Baseline: the same network geometry as (outputs,
    // macs-per-output) layer pairs.
    std::vector<baseline::BaselineCore::ConvLayerDesc> layers;
    for (int i = 0; i < g.size(); ++i) {
        const Node &n = g.node(i);
        if (n.kind == OpKind::Conv2d) {
            layers.push_back(
                {static_cast<std::int64_t>(n.outH) * n.outW * n.outC,
                 static_cast<std::int64_t>(n.weights.inC) *
                     n.geom.kh * n.geom.kw,
                 static_cast<std::int64_t>(n.weights.w.size())});
        }
    }

    std::printf("%-8s %22s %26s\n", "batch", "TSP cycles/image",
                "baseline cycles/image");
    for (const int batch : {1, 2, 4, 8, 16, 32}) {
        baseline::CoreConfig cfg;
        cfg.seed = 42;
        cfg.aluPipes = 32; // GPU-like SIMD width (2048 MACs/cycle).
        const auto r =
            baseline::BaselineCore(cfg).runConvNet(layers, batch);
        std::printf("%-8d %22llu %26.0f\n", batch,
                    static_cast<unsigned long long>(tsp_cycles),
                    static_cast<double>(r.cycles) / batch);
    }

    baseline::CoreConfig cfg;
    cfg.seed = 42;
    cfg.aluPipes = 32;
    const double b1 = static_cast<double>(
        baseline::BaselineCore(cfg).runConvNet(layers, 1).cycles);
    const double b32 =
        static_cast<double>(
            baseline::BaselineCore(cfg).runConvNet(layers, 32)
                .cycles) /
        32.0;
    std::printf("\nbaseline batch-1 penalty vs batch-32: %.2fx "
                "per image\n",
                b1 / b32);
    std::printf("TSP batch-1 penalty: 1.00x by construction "
                "(deterministic, weights resident)\n");
    const bool baseline_needs_batching = b1 / b32 > 1.5;
    std::printf("shape check: baseline needs batching (>1.5x "
                "batch-1 penalty), TSP does not: %s\n",
                baseline_needs_batching ? "yes" : "NO");

    // The TSP still *can* batch when a deployment wants to: a batch-B
    // compiled program installs weights once and pipelines B
    // per-sample schedules, shaving the fixed preamble off every
    // sample after the first — with cycles(B) still exact at compile
    // time (unlike the baseline, whose batching trades latency
    // predictability for bandwidth). Shown on the tiny conv net; see
    // bench_batch_serving for the serving-tier consequences.
    Graph tiny = model::buildTinyNet(3, 8, 8, 4);
    Rng rng(7);
    std::vector<std::int8_t> warm(8 * 8 * 4);
    for (auto &v : warm)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    const BatchProgramCache cache(tiny, warm, 8);
    std::printf("\nTSP batch-B compiled programs (tiny conv net, "
                "exact compile-time cycles):\n");
    std::printf("%-8s %14s %18s\n", "batch", "cycles(B)",
                "cycles/image");
    bool decreasing = true;
    for (int b = 1; b <= 8; b *= 2) {
        const double per = static_cast<double>(cache.cycles(b)) / b;
        std::printf("%-8d %14llu %18.1f\n", b,
                    static_cast<unsigned long long>(cache.cycles(b)),
                    per);
        decreasing = decreasing &&
                     (b == 1 || per < static_cast<double>(cache.cycles(1)));
    }
    std::printf("shape check: amortized weight install makes TSP "
                "per-image cycles decrease in B: %s\n",
                decreasing ? "yes" : "NO");
    bench::footer();
    return baseline_needs_batching && decreasing ? 0 : 1;
}
