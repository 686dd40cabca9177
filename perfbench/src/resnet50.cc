/**
 * @file
 * Workload "resnet50": the paper's headline, batch-1 ResNet-50 on one
 * chip through InferenceSession, one caller in a closed loop, no
 * faults.
 *
 * Each run sets up kSetups times: build, lower, assemble, construct a
 * replay-enabled session, and send it one cold request, which runs the
 * fast-forward stepped tier while recording the replay trace. Each
 * session then serves its share of the warm requests (the timed
 * phases), each reset -> writeTensor -> runBounded (replay) ->
 * readTensor, on two seeded images in turn. Set-ups and warm requests
 * alternate, so both are sampled across the whole run. Every output is
 * checked against the Graph::runReference golden after all timing.
 *
 * The traced run adds the per-lowered-layer stepped profile: a fresh
 * session's chip is stepped with Chip::runBounded to each
 * Lowering::layers() end cycle and must end exactly where the
 * unchunked cold run ended.
 */

#include <cstdio>
#include <memory>

#include "common/json.hh"
#include "common/seed.hh"
#include "harness.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

namespace perfbench {
namespace {

using tsp::Cycle;

/** Set-ups (each with one cold request) per run. */
constexpr int kSetups = 3;

/** Warm requests per second of --seconds (~1.3 s each on a 4-core
 * x86 host with AVX-512 VNNI). */
constexpr double kWarmPerSecond = 0.8;

/** What one set-up builds; the requests run on it. */
struct Model
{
    tsp::Graph graph;
    std::unique_ptr<tsp::Lowering> lw;
    tsp::LoweredTensor input;
    tsp::LoweredTensor output;
    std::shared_ptr<const tsp::AsmProgram> prog;
    std::unique_ptr<tsp::InferenceSession> sess;
};

/** Builds the model with @p image as the compile-time input. */
Model
setUp(std::uint64_t seed, const std::vector<std::int8_t> &image,
      SpanLog &spans)
{
    Model m;
    {
        auto s = spans.scope("model.build");
        m.graph = tsp::model::buildResNet(50, seed);
    }
    m.lw = std::make_unique<tsp::Lowering>(/*pipelined=*/true);
    {
        auto s = spans.scope("compiler.lower");
        const auto tensors = m.graph.lower(*m.lw, image);
        m.input = tensors.at(0);
        m.output = tensors.at(m.graph.outputNode());
    }
    {
        auto s = spans.scope("isa.asm");
        m.prog = std::make_shared<const tsp::AsmProgram>(
            m.lw->program().toAsm(/*with_preamble=*/true));
    }
    {
        auto s = spans.scope("runtime.construct");
        m.sess = std::make_unique<tsp::InferenceSession>(*m.lw, m.prog);
        m.sess->enableReplay();
    }
    return m;
}

/** One request's results. */
struct Served
{
    int image = 0; ///< Index of the input image.
    tsp::RunResult run;
    tsp::ref::QTensor out;
    double ms = 0.0;
    double energyJ = 0.0; ///< PowerModel::totalEnergyJ delta.
};

Served
serve(Model &m, const std::vector<std::int8_t> images[], int image,
      SpanLog &spans, const char *run_span, std::uint64_t request)
{
    tsp::InferenceSession &s = *m.sess;
    Served r;
    r.image = image;
    const std::int64_t t0 = nowNs();
    {
        auto sc = spans.scope("runtime.reset", request);
        s.reset();
    }
    {
        auto sc = spans.scope("runtime.write", request);
        s.writeTensor(m.input, images[image]);
    }
    const double e0 = s.chip().power().totalEnergyJ();
    {
        auto sc = spans.scope(run_span, request);
        r.run = s.runBounded();
    }
    r.energyJ = s.chip().power().totalEnergyJ() - e0;
    {
        auto sc = spans.scope("runtime.read", request);
        r.out = s.readTensor(m.output);
    }
    r.ms = static_cast<double>(nowNs() - t0) * 1e-6;
    return r;
}

std::uint64_t
sxmBytes(const tsp::Chip &c)
{
    return c.sxm(tsp::Hemisphere::West).bytesSwitched() +
           c.sxm(tsp::Hemisphere::East).bytesSwitched();
}

/**
 * Steps a fresh session's chip through every lowered layer and writes
 * the per-layer table. Fails @p rep unless the chunked run ends
 * exactly like the unchunked cold run.
 */
void
steppedProfile(Model &m, const std::vector<std::int8_t> &image,
               const tsp::StatGroup &cold_stats, Cycle cold_cycles,
               const tsp::ref::QTensor &cold_out, const RunParams &p,
               SpanLog &spans, Report &rep)
{
    // Same sequence as the cold request (construct, reset, write) but
    // without replay, driven one layer at a time.
    tsp::InferenceSession prof(*m.lw, m.prog);
    prof.reset();
    prof.writeTensor(m.input, image);
    tsp::Chip &chip = prof.chip();
    const Cycle base = chip.now();

    struct Row
    {
        std::string kind;
        Cycle begin = 0, end = 0;
        double ms = 0.0;
        std::uint64_t maccs = 0, sram = 0, laneOps = 0, sxm = 0;
        double energyJ = 0.0;
    };
    std::vector<Row> rows;
    bool done = false;
    for (const auto &L : m.lw->layers()) {
        Row r;
        r.kind = L.name;
        r.begin = chip.now() - base;
        const std::uint64_t macc0 = chip.totalMaccOps();
        const std::uint64_t sram0 = chip.sramAccessCount();
        const std::uint64_t lane0 = chip.vxm().laneOps();
        const std::uint64_t sxm0 = sxmBytes(chip);
        const double e0 = chip.power().totalEnergyJ();
        const std::int64_t t0 = nowNs();
        {
            auto s = spans.scope("sim.layer");
            done = chip.runBounded(base + L.end);
        }
        r.ms = static_cast<double>(nowNs() - t0) * 1e-6;
        r.end = chip.now() - base;
        r.maccs = chip.totalMaccOps() - macc0;
        r.sram = chip.sramAccessCount() - sram0;
        r.laneOps = chip.vxm().laneOps() - lane0;
        r.sxm = sxmBytes(chip) - sxm0;
        r.energyJ = chip.power().totalEnergyJ() - e0;
        rows.push_back(r);
        if (r.begin != L.begin || r.end != L.end)
            rep.fail("stepped profile: layer span does not match "
                     "Lowering::layers()");
    }
    if (!done) {
        // Anything after the last layer's end belongs to it.
        const std::int64_t t0 = nowNs();
        done = chip.runBounded(base + cold_cycles * 4);
        rows.back().ms += static_cast<double>(nowNs() - t0) * 1e-6;
        rows.back().end = chip.now() - base;
    }

    if (!done || chip.now() - base != cold_cycles)
        rep.fail("stepped profile: chunked run cycles differ from the "
                 "unchunked run");
    if (chip.stats().all() != cold_stats.all())
        rep.fail("stepped profile: chunked run stats differ from the "
                 "unchunked run");
    if (prof.readTensor(m.output).data != cold_out.data)
        rep.fail("stepped profile: chunked run output differs from "
                 "the unchunked run");

    std::map<std::string, int> count;
    std::map<std::string, double> cycles, ms;
    tsp::JsonWriter j;
    j.beginObject().kv("workload", "resnet50").kv("seed", p.seed);
    j.kv("chip_cycles", static_cast<std::uint64_t>(cold_cycles));
    j.key("layers").beginArray();
    for (const Row &r : rows) {
        ++count[r.kind];
        cycles[r.kind] += static_cast<double>(r.end - r.begin);
        ms[r.kind] += r.ms;
        j.beginObject()
            .kv("kind", r.kind)
            .kv("begin", static_cast<std::uint64_t>(r.begin))
            .kv("end", static_cast<std::uint64_t>(r.end))
            .kv("chip_cycles", static_cast<std::uint64_t>(r.end - r.begin))
            .kv("step_ms", r.ms)
            .kv("ns_per_cycle",
                r.end > r.begin
                    ? r.ms * 1e6 / static_cast<double>(r.end - r.begin)
                    : 0.0)
            .kv("mxm_maccs", r.maccs)
            .kv("mem_sram_accesses", r.sram)
            .kv("vxm_lane_ops", r.laneOps)
            .kv("sxm_bytes", r.sxm)
            .kv("energy_uj", r.energyJ * 1e6)
            .endObject();
    }
    j.endArray().endObject();
    tsp::writeJsonFile(p.artifactDir + "/resnet50_layers.json", j.str());

    std::printf("stepped per-layer profile (%zu lowered layers):\n",
                rows.size());
    for (const char *kind : {"conv2d", "residual", "maxpool", "gap"}) {
        const std::string k(kind);
        rep.layers["sim.layer." + k + ".chip_cycles"] = cycles[k];
        rep.layers["sim.layer." + k + ".step_ms"] = ms[k];
        std::printf("  %-9s %3d layers %9.0f cycles %9.1f ms "
                    "(%6.1f ns/cycle)\n",
                    kind, count[k], cycles[k], ms[k],
                    cycles[k] > 0 ? ms[k] * 1e6 / cycles[k] : 0.0);
    }
    if (count["conv2d"] != 54 || count["residual"] != 16 ||
        count["maxpool"] != 1 || count["gap"] != 1)
        rep.fail("stepped profile: expected 54 conv2d, 16 residual, "
                 "1 maxpool and 1 gap layers");
}

} // namespace

void
runResnet50(const RunParams &p, SpanLog &spans, Report &rep)
{
    // Two seeded images: the first is also the compile-time input.
    const std::vector<std::int8_t> images[2] = {
        tsp::model::im2colStem(tsp::model::makeImage(
            tsp::seedMix(p.seed * 2 + 1))),
        tsp::model::im2colStem(tsp::model::makeImage(
            tsp::seedMix(p.seed * 2 + 2))),
    };

    const int warm_n = std::max(
        kSetups, static_cast<int>(p.seconds * kWarmPerSecond + 0.5));
    Model m;
    std::vector<Served> cold, warm;
    tsp::StatGroup cold_stats;
    std::uint64_t cold_sram = 0;
    std::int64_t warm_ns = 0;
    // The last warm phase, for the traced run's span metrics.
    std::int64_t warm0 = 0, warm1 = 0;
    for (int k = 0; k < kSetups; ++k) {
        // Free the previous set-up (session before its Lowering).
        m.sess.reset();
        m = Model{};
        const std::int64_t t0 = nowNs();
        {
            auto s = spans.scope("bench.setup");
            m = setUp(p.seed, images[0], spans);
        }
        {
            auto s = spans.scope("bench.cold");
            cold.push_back(serve(m, images, 0, spans, "sim.record", 0));
        }
        rep.setupS.push_back(secondsSince(t0));
        rep.firstReqMs.push_back(cold.back().ms);
        if (m.sess->recordCount() != 1)
            rep.fail("cold request did not record a replay trace");
        cold_stats = m.sess->chip().stats();
        cold_sram = m.sess->chip().sramAccessCount();

        // This session's share of the warm requests.
        const int share = warm_n * (k + 1) / kSetups - warm_n * k / kSetups;
        warm0 = nowNs();
        for (int i = 0; i < share; ++i) {
            const int w = static_cast<int>(warm.size());
            auto s = spans.scope("bench.warm");
            warm.push_back(serve(m, images, (w + 1) % 2, spans,
                                 "sim.replay",
                                 static_cast<std::uint64_t>(w + 1)));
        }
        warm1 = nowNs();
        warm_ns += warm1 - warm0;
        if (m.sess->replayCount() != static_cast<std::uint64_t>(share))
            rep.fail("warm requests did not all replay");
    }
    const Cycle cycles = cold.front().run.cycles;
    const auto trace = m.sess->trace();

    // --- Host metrics (the warm phases are the timed phase). ---
    for (const Served &w : warm)
        rep.reqMs.push_back(w.ms);
    rep.hostRps = warm_n / (static_cast<double>(warm_ns) * 1e-9);

    // --- Simulated results. ---
    std::vector<double> energy;
    std::uint64_t outs = tsp::kFnv1aBasis;
    for (const auto *set : {&cold, &warm}) {
        for (const Served &r : *set) {
            if (!r.run.completed || r.run.cycles != cycles)
                rep.fail("a request did not complete in the cold "
                         "request's cycle count");
            outs = tsp::fnv1a64(r.out.data.data(), r.out.data.size(),
                                outs);
        }
    }
    for (const Served &w : warm)
        energy.push_back(w.energyJ);
    rep.chipCycles = static_cast<double>(cycles);
    rep.energyUj = median(energy) * 1e6;
    rep.virtUsP50 = rep.virtUsP99 =
        static_cast<double>(cycles) *
        m.sess->chip().config().cyclePeriodSec() * 1e6;
    rep.attempted = cold.size() + warm.size();
    rep.served = rep.attempted;
    rep.servedShare = 1.0;
    rep.digests["outputs"] = hex(outs);
    {
        tsp::JsonWriter j;
        j.beginObject();
        for (const auto &[k, v] : cold_stats.all())
            j.kv(k, v);
        j.endObject();
        rep.digests["chip_stats"] = digest(j.str());
    }

    // --- Per-layer figures. ---
    rep.layers["compiler.instructions"] =
        static_cast<double>(m.lw->program().size());
    rep.layers["sim.trace_mb"] =
        static_cast<double>(trace->memoryBytes()) / (1 << 20);
    rep.layers["sim.trace_events"] =
        static_cast<double>(trace->events.size());
    // Over the run's sessions: each recorded once and replayed its
    // share of the warm requests (checked above).
    rep.layers["sim.trace_replays"] = static_cast<double>(warm.size());
    rep.layers["sim.trace_records"] = static_cast<double>(cold.size());
    rep.layers["sim.trace_entries"] = 1.0;
    rep.layers["mxm.maccs"] = static_cast<double>(cold_stats.get("macc_ops"));
    rep.layers["vxm.lane_ops"] =
        static_cast<double>(cold_stats.get("vxm_lane_ops"));
    rep.layers["sxm.bytes"] = static_cast<double>(cold_stats.get("sxm_bytes"));
    rep.layers["mem.sram_accesses"] = static_cast<double>(cold_sram);
    rep.layers["stream.hops"] =
        static_cast<double>(cold_stats.get("stream_hops"));
    rep.layers["icu.dispatched"] =
        static_cast<double>(cold_stats.get("dispatched"));
    rep.layers["icu.nop_cycles"] =
        static_cast<double>(cold_stats.get("nop_cycles"));
    rep.layers["icu.parked_cycles"] =
        static_cast<double>(cold_stats.get("parked_cycles"));

    if (spans.enabled()) {
        const auto record = spans.durationsMs("sim.record");
        rep.layers["sim.record_ms"] = record.back();
        rep.layers["sim.record_ns_per_cycle"] =
            record.back() * 1e6 / static_cast<double>(cycles);
        const double replay_ms = median(spans.durationsMs("sim.replay"));
        rep.layers["sim.replay_ms.p50"] = replay_ms;
        rep.layers["sim.replay_ns_per_cycle"] =
            replay_ms * 1e6 / static_cast<double>(cycles);
        addSpanLayers(spans, warm0, warm1, 1, rep);
        rep.layers["runtime.engine_busy_share"] =
            spans.totalMs("sim.replay", warm0, warm1) * 1e6 /
            static_cast<double>(warm1 - warm0);
        steppedProfile(m, images[0], cold_stats, cycles,
                       cold.back().out, p, spans, rep);
    } else {
        // Golden check outside every timed phase. The traced run
        // skips it: its outputs must equal this run's (digest check).
        const std::int64_t t0 = nowNs();
        std::vector<tsp::ref::QTensor> golden;
        for (const auto &image : images) {
            tsp::ref::QTensor q(tsp::model::kStemH, tsp::model::kStemW,
                                tsp::model::kStemC);
            q.data = image;
            golden.push_back(
                m.graph.runReference(q).at(m.graph.outputNode()));
        }
        for (const auto *set : {&cold, &warm}) {
            for (const Served &r : *set) {
                ++rep.outputsChecked;
                if (r.out.data != golden[r.image].data)
                    ++rep.outputMismatches;
            }
        }
        rep.notes["ref.check_ms"] = secondsSince(t0) * 1e3;
    }

    rep.notes["threads"] = 1;
    std::printf("resnet50: %llu chip cycles per request; %d cold + %d "
                "warm requests\n",
                static_cast<unsigned long long>(cycles), kSetups, warm_n);
}

} // namespace perfbench
