/**
 * @file
 * tsp-perfbench: runs one benchmark workload once and writes what it
 * measured and checked as one JSON document. perfbench/run.py builds
 * this binary, runs it (twice for a traced run: untraced, then
 * traced), compares the runs and prints the metrics.
 *
 *   tsp-perfbench --workload resnet50|serve-mix|fleet-soak --seed N
 *                 --seconds S [--traced] --out FILE
 *                 [--artifacts DIR]
 *
 * --traced records spans around every call the workload makes into
 * the simulator and writes them, with the per-layer tables, to DIR.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cpu.hh"
#include "common/json.hh"
#include "harness.hh"

namespace {

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: tsp-perfbench --workload "
                 "resnet50|serve-mix|fleet-soak --seed N --seconds S "
                 "[--traced] --out FILE [--artifacts DIR]\n");
}

/** @return the SIMD kernel tier replay and stepping run on. */
const char *
simdTier()
{
    if (!tsp::simdKernelsEnabled())
        return "scalar";
    return tsp::cpuHasAvx512Vnni() ? "avx2+avx512vnni" : "avx2";
}

void
writeReport(const std::string &path, const std::string &workload,
            const RunParams &p, const Report &r)
{
    tsp::JsonWriter j;
    j.beginObject();
    j.kv("workload", workload).kv("seed", p.seed).kv("seconds", p.seconds);
    j.kv("traced", p.traced);
    auto samples = [&](const char *key, const std::vector<double> &v) {
        j.key(key).beginArray();
        for (double x : v)
            j.value(x);
        j.endArray();
    };
    j.key("host").beginObject();
    samples("setup_s", r.setupS);
    samples("first_req_ms", r.firstReqMs);
    samples("req_ms", r.reqMs);
    j.kv("host_rps", r.hostRps).kv("peak_rss_mb", r.peakRssMiB);
    j.endObject();
    j.key("sim")
        .beginObject()
        .kv("chip_cycles", r.chipCycles)
        .kv("energy_uj", r.energyUj)
        .kv("served_share", r.servedShare)
        .kv("virt_us.p50", r.virtUsP50)
        .kv("virt_us.p99", r.virtUsP99)
        .endObject();
    j.key("counts")
        .beginObject()
        .kv("attempted", r.attempted)
        .kv("served", r.served)
        .kv("refused", r.refused)
        .kv("failed", r.failed)
        .endObject();
    j.key("checks")
        .beginObject()
        .kv("outputs_checked", r.outputsChecked)
        .kv("output_mismatches", r.outputMismatches)
        .kv("prediction_mismatches", r.predictionMismatches);
    j.key("errors").beginArray();
    for (const std::string &e : r.errors)
        j.value(e);
    j.endArray().endObject();
    j.key("digests").beginObject();
    for (const auto &[k, v] : r.digests)
        j.kv(k, v);
    j.endObject();
    j.key("layers").beginObject();
    for (const auto &[k, v] : r.layers)
        j.kv(k, v);
    j.endObject();
    j.key("notes").beginObject();
    for (const auto &[k, v] : r.notes)
        j.kv(k, v);
    j.kv("simd_tier", simdTier());
    j.endObject();
    j.endObject();
    if (!tsp::writeJsonFile(path, j.str())) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(2);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out;
    RunParams p;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            workload = next();
        } else if (!std::strcmp(argv[i], "--seed")) {
            p.seed = std::strtoull(next(), nullptr, 10);
            have_seed = true;
        } else if (!std::strcmp(argv[i], "--seconds")) {
            p.seconds = std::atoi(next());
        } else if (!std::strcmp(argv[i], "--traced")) {
            p.traced = true;
        } else if (!std::strcmp(argv[i], "--out")) {
            out = next();
        } else if (!std::strcmp(argv[i], "--artifacts")) {
            p.artifactDir = next();
        } else {
            usage();
            return 2;
        }
    }
    if (!have_seed || out.empty() || p.seconds < 1 ||
        (p.traced && p.artifactDir.empty())) {
        usage();
        return 2;
    }

    SpanLog spans(p.traced);
    Report rep;
    if (workload == "resnet50") {
        runResnet50(p, spans, rep);
    } else if (workload == "serve-mix") {
        runServeMix(p, spans, rep);
    } else if (workload == "fleet-soak") {
        runFleetSoak(p, spans, rep);
    } else {
        usage();
        return 2;
    }
    rep.peakRssMiB = peakRssMiB();
    rep.notes["simd_kernels_enabled"] = tsp::simdKernelsEnabled();
    rep.notes["cpu_has_avx512_vnni"] = tsp::cpuHasAvx512Vnni();
    rep.notes["nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));

    if (p.traced) {
        const std::string base = p.artifactDir + "/" + workload;
        spans.writeChromeTrace(base + "_spans.json");
        std::printf("layer self time (traced run, ms):\n");
        for (const auto &[layer, ms] : spans.selfMsByLayer()) {
            rep.notes["self_ms." + layer] = ms;
            std::printf("  %-9s %12.3f\n", layer.c_str(), ms);
        }
    }
    writeReport(out, workload, p, rep);
    return 0;
}
