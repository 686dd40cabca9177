/**
 * @file
 * Differential tests for the trace record/replay execution tier:
 * every program runs per-cycle (the reference), once while recording,
 * and once replayed from the recording — and the three executions
 * must be indistinguishable. Identical cycle counts, identical
 * stats() counters (idle, power-activity, fabric and ECC counters
 * included), energy equal to floating-point association, and
 * bit-identical memory results. Also covers the eligibility gates
 * (fault injection bypasses replay, bind() invalidates the trace,
 * failed runs record nothing, out-of-band fabric writes poison the
 * recording), fresh inputs flowing through a replayed run, pod-scale
 * replay, and TraceCache LRU accounting.
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "common/fp16.hh"
#include "common/rng.hh"
#include "compiler/builder.hh"
#include "compiler/host_image.hh"
#include "compiler/schedule.hh"
#include "graph/graph.hh"
#include "isa/assembler.hh"
#include "mem/ecc.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "sim/chip.hh"
#include "sim/exec_trace.hh"

namespace tsp {
namespace {

Vec320
fill(std::uint8_t v)
{
    Vec320 x;
    x.bytes.fill(v);
    return x;
}

ChipConfig
configFor(bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    return cfg;
}

/** One memory word to seed before the run. */
struct Seed
{
    Hemisphere hem;
    int slice;
    MemAddr addr;
    Vec320 vec;
};

/** One memory word to read back and compare after the run. */
struct Probe
{
    Hemisphere hem;
    int slice;
    MemAddr addr;
};

void
expectChipsIdentical(const Chip &ref, const Chip &other,
                     const std::vector<Probe> &probes,
                     const char *label)
{
    EXPECT_EQ(ref.now(), other.now()) << label;
    EXPECT_EQ(ref.stats().all(), other.stats().all()) << label;
    EXPECT_EQ(ref.power().cycles(), other.power().cycles()) << label;
    EXPECT_NEAR(ref.power().totalEnergyJ(),
                other.power().totalEnergyJ(),
                1e-9 * ref.power().totalEnergyJ())
        << label;
    for (const auto &p : probes) {
        const Vec320 a = ref.mem(p.hem, p.slice).backdoorRead(p.addr);
        const Vec320 b =
            other.mem(p.hem, p.slice).backdoorRead(p.addr);
        EXPECT_EQ(a.bytes, b.bytes)
            << label << ": probe slice " << p.slice << " addr "
            << p.addr;
    }
}

/**
 * Runs @p prog per-cycle (reference), recorded, and replayed, and
 * asserts the three executions are indistinguishable.
 */
void
expectIdenticalReplay(const AsmProgram &prog,
                      const std::vector<Seed> &seeds,
                      const std::vector<Probe> &probes)
{
    Chip legacy(configFor(false));
    Chip recorded(configFor(true));
    Chip replayed(configFor(true));
    for (Chip *chip : {&legacy, &recorded, &replayed}) {
        for (const auto &s : seeds)
            chip->mem(s.hem, s.slice).backdoorWrite(s.addr, s.vec);
        chip->loadProgram(prog);
    }

    const Cycle legacy_cycles = legacy.run();

    std::shared_ptr<const ExecutionTrace> trace;
    {
        TraceRecording rec({&recorded});
        const Cycle recorded_cycles = recorded.run();
        EXPECT_EQ(recorded_cycles, legacy_cycles);
        trace = rec.finish(/*completed=*/true);
    }
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->span, legacy_cycles);
    expectChipsIdentical(legacy, recorded, probes, "recorded");

    replayTrace(*trace, {&replayed});
    EXPECT_TRUE(replayed.done());
    expectChipsIdentical(legacy, replayed, probes, "replayed");
}

TEST(Replay, StreamAddWithLongIdleSpans)
{
    // The Table I read->add->write program, NOP-padded: dispatches,
    // a VXM op and long skipped spans all inside one recording.
    const std::string text = "@MEM_W0:\n"
                             "    nop 510\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 509\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 517\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 513\n"
                             "    add.sat s16.e, s17.e, s29.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalReplay(r.program,
                          {{Hemisphere::West, 0, 0x5, fill(30)},
                           {Hemisphere::West, 1, 0x6, fill(40)}},
                          {{Hemisphere::West, 2, 0x7}});
}

TEST(Replay, RepeatWithWideGaps)
{
    // Repeat re-issues with a 7-cycle gap: the re-issues are resolved
    // dispatch events in the trace, not Repeat bookkeeping.
    const std::string text = "@MEM_E3:\n"
                             "    nop 40\n"
                             "    read 0x9, s2.w\n"
                             "    repeat 12, 7\n"
                             "@MEM_E2:\n"
                             "    nop 121\n"
                             "    write 0x30, s2.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalReplay(r.program,
                          {{Hemisphere::East, 3, 0x9, fill(5)}},
                          {{Hemisphere::East, 2, 0x30}});
}

TEST(Replay, SyncNotifyBarrier)
{
    // Sync parking never re-executes at replay (only the Notify
    // dispatch does), so parked-cycle crediting must carry it all.
    const std::string text = "@MEM_W1:\n"
                             "    sync\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W0:\n"
                             "    sync\n"
                             "    nop 3\n"
                             "    write 0x6, s16.e\n"
                             "@VXM0:\n"
                             "    nop 300\n"
                             "    notify\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalReplay(r.program,
                          {{Hemisphere::West, 1, 0x5, fill(21)}},
                          {{Hemisphere::West, 0, 0x6}});
}

TEST(Replay, BarrierPreambleProgram)
{
    // The compulsory all-queue barrier preamble: 144 parked queues
    // plus one Notify.
    ScheduledProgram empty;
    expectIdenticalReplay(empty.toAsm(/*with_preamble=*/true), {},
                          {});
}

TEST(Replay, GatherScatterIndirection)
{
    // Address-indirect MEM paths: the replayed gather/scatter read
    // live SRAM through the re-executed map consumes.
    Vec320 map;
    for (int sl = 0; sl < kSuperlanes; ++sl)
        map.bytes[static_cast<std::size_t>(sl * kWordBytes)] = 0x20;
    const std::string text = "@MEM_W5:\n"
                             "    nop 60\n"
                             "    read 0x1, s0.e\n"
                             "    nop 1\n"
                             "    repeat 1, 2\n"
                             "@MEM_W4:\n"
                             "    nop 63\n"
                             "    gather s1.e, s0.e\n"
                             "@MEM_W3:\n"
                             "    nop 66\n"
                             "    scatter s1.e, s0.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;
    expectIdenticalReplay(r.program,
                          {{Hemisphere::West, 5, 0x1, map},
                           {Hemisphere::West, 4, 0x20, fill(77)}},
                          {{Hemisphere::West, 3, 0x20}});
}

TEST(Replay, CompiledNetworkSessionReplayWithFreshInputs)
{
    // End-to-end: a replay-enabled session serves three inferences of
    // a compiled network with a *different* input each time. Run 1
    // records; runs 2 and 3 replay — and every one must be
    // indistinguishable from a session running the normal tiers on
    // the same inputs, because the replayed numerics re-read live
    // SRAM where the fresh input was staged.
    const int h = 12, w = 12, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/42, h, w, c);
    Rng rng(7);
    std::vector<std::vector<std::int8_t>> inputs;
    for (int i = 0; i < 3; ++i) {
        std::vector<std::int8_t> in(static_cast<std::size_t>(h) * w *
                                    c);
        for (auto &v : in)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        inputs.push_back(std::move(in));
    }

    Lowering lw_ref(true);
    const auto lowered_ref = g.lower(lw_ref, inputs[0]);
    Lowering lw_rep(true);
    const auto lowered_rep = g.lower(lw_rep, inputs[0]);

    InferenceSession ref(lw_ref);
    InferenceSession rep(lw_rep);
    rep.enableReplay();

    std::vector<std::vector<std::int8_t>> outputs;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (i > 0) {
            for (InferenceSession *s : {&ref, &rep})
                s->reset();
            ref.writeTensor(lowered_ref.at(0), inputs[i]);
            rep.writeTensor(lowered_rep.at(0), inputs[i]);
        }
        ASSERT_TRUE(ref.runBounded().completed);
        ASSERT_TRUE(rep.runBounded().completed);
        EXPECT_EQ(ref.cycles(), rep.cycles()) << "run " << i;
        EXPECT_EQ(ref.chip().stats().all(), rep.chip().stats().all())
            << "run " << i;
        EXPECT_NEAR(ref.chip().power().totalEnergyJ(),
                    rep.chip().power().totalEnergyJ(),
                    1e-9 * ref.chip().power().totalEnergyJ())
            << "run " << i;
        for (const auto &[id, lt] : lowered_ref) {
            EXPECT_EQ(ref.readTensor(lt).data,
                      rep.readTensor(lowered_rep.at(id)).data)
                << "run " << i << " node " << id;
        }
        outputs.push_back(
            ref.readTensor(lowered_ref.at(g.outputNode())).data);
    }
    EXPECT_EQ(rep.recordCount(), 1u);
    EXPECT_EQ(rep.replayCount(), 2u);
    // Guard against a vacuous pass: distinct inputs must actually
    // produce distinct outputs for the fresh-input property to mean
    // anything.
    EXPECT_NE(outputs[0], outputs[1]);
}

TEST(Replay, FaultInjectionBypassesReplay)
{
    // An armed fault injector disqualifies record and replay: both
    // runs take the normal tiers and stay bit-identical to a session
    // that never heard of replay.
    ChipConfig cfg;
    cfg.fault.seed = 0xfaceull;
    cfg.fault.memReadRate = 0.001;
    cfg.fault.doubleBitFraction = 0.0;

    const int h = 8, w = 8, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/3, h, w, c);
    Rng rng(11);
    std::vector<std::int8_t> input(static_cast<std::size_t>(h) * w *
                                   c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));

    Lowering lw_ref(true);
    g.lower(lw_ref, input);
    Lowering lw_rep(true);
    const auto lowered_rep = g.lower(lw_rep, input);

    InferenceSession ref(lw_ref, cfg);
    InferenceSession rep(lw_rep, cfg);
    rep.enableReplay();

    for (int run = 0; run < 2; ++run) {
        if (run > 0) {
            ref.reset();
            rep.reset();
        }
        const RunResult a = ref.runBounded();
        const RunResult b = rep.runBounded();
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(ref.chip().stats().all(), rep.chip().stats().all());
    }
    EXPECT_EQ(rep.recordCount(), 0u);
    EXPECT_EQ(rep.replayCount(), 0u);
    EXPECT_EQ(rep.trace(), nullptr);
}

TEST(Replay, BindInvalidatesTrace)
{
    // Rebinding (a different program, or a weight reinstall) drops
    // the recorded trace; the next fresh run re-records.
    const int h = 8, w = 8, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/5, h, w, c);
    Rng rng(13);
    std::vector<std::int8_t> input(static_cast<std::size_t>(h) * w *
                                   c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));

    Lowering lw(true);
    g.lower(lw, input);
    InferenceSession sess(lw);
    sess.enableReplay();
    ASSERT_TRUE(sess.runBounded().completed);
    ASSERT_NE(sess.trace(), nullptr);
    EXPECT_EQ(sess.recordCount(), 1u);

    // Rebind to a fresh compile of the same model: the old trace is
    // for the old program object and must not survive.
    Lowering lw2(true);
    g.lower(lw2, input);
    auto prog2 = std::make_shared<const AsmProgram>(
        lw2.program().toAsm(/*with_preamble=*/true));
    sess.bind(lw2, SharedProgram(prog2));
    EXPECT_EQ(sess.trace(), nullptr);
    EXPECT_EQ(sess.program(), prog2.get());

    // Before the reset that loads the new program the session is not
    // fresh: nothing records.
    sess.reset();
    ASSERT_TRUE(sess.runBounded().completed);
    EXPECT_EQ(sess.recordCount(), 2u);
    sess.reset();
    ASSERT_TRUE(sess.runBounded().completed);
    EXPECT_EQ(sess.replayCount(), 1u);
}

TEST(Replay, TimedOutRunRecordsNothing)
{
    // A run that hits its cycle budget is mid-program: finish(false)
    // must seal no trace, and the session recovers via reset().
    const int h = 8, w = 8, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/9, h, w, c);
    Rng rng(17);
    std::vector<std::int8_t> input(static_cast<std::size_t>(h) * w *
                                   c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    Lowering lw(true);
    g.lower(lw, input);

    InferenceSession sess(lw);
    sess.enableReplay();
    const RunResult r = sess.runBounded(/*max_cycles=*/10);
    ASSERT_FALSE(r.completed);
    EXPECT_EQ(sess.trace(), nullptr);
    EXPECT_EQ(sess.recordCount(), 0u);

    sess.reset();
    ASSERT_TRUE(sess.runBounded().completed);
    EXPECT_EQ(sess.recordCount(), 1u);
}

TEST(Replay, OutOfBandFabricWritePoisonsRecording)
{
    // A value consumed from the fabric that no StreamIo produced
    // (here: a test writing the register file directly) cannot be
    // reproduced by the tape — the recording must refuse to seal.
    const std::string text = "@MEM_W0:\n"
                             "    write 0x7, s16.e\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;

    Chip chip(configFor(true));
    chip.loadProgram(r.program);
    Vec320 v = fill(99);
    eccComputeVec(v); // Valid codeword: only provenance is missing.
    chip.fabric().write(StreamRef{16, Direction::East},
                        IcuId::mem(Hemisphere::West, 0).pos(), v);
    TraceRecording rec({&chip});
    chip.run();
    EXPECT_TRUE(rec.poisoned());
    EXPECT_EQ(rec.finish(/*completed=*/true), nullptr);
    // The out-of-band value still flowed: the run itself is fine.
    EXPECT_EQ(chip.mem(Hemisphere::West, 0).backdoorRead(0x7).bytes,
              v.bytes);
}

TEST(Replay, PodAllReduceReplayIdentical)
{
    // Pod-scale: a 4-chip ring all-reduce recorded once and replayed
    // with fresh local vectors, against a reference pod running the
    // normal tiers on the same data.
    constexpr int kChips = 4;
    constexpr Cycle kWire = 12;

    InferenceSession ref(kChips, kWire);
    InferenceSession rep(kChips, kWire);
    rep.enableReplay();
    for (InferenceSession *s : {&ref, &rep}) {
        std::vector<ScheduledProgram> programs;
        buildRingAllReduce(s->pod(), programs);
        std::vector<SharedProgram> shared;
        shared.reserve(programs.size());
        for (auto &p : programs)
            shared.emplace_back(p.toAsm());
        s->bind(std::move(shared));
        s->reset();
    }

    for (int run = 0; run < 3; ++run) {
        if (run > 0) {
            ref.reset();
            rep.reset();
        }
        Rng rng(static_cast<std::uint64_t>(run) * 1009 + 5);
        for (int c = 0; c < kChips; ++c) {
            Vec320 v;
            for (int l = 0; l < kLanes; ++l) {
                v.bytes[static_cast<std::size_t>(l)] =
                    static_cast<std::uint8_t>(rng.intIn(-90, 90));
            }
            for (InferenceSession *s : {&ref, &rep}) {
                s->pod()
                    .chip(c)
                    .mem(Hemisphere::East, AllReducePlan::kSlice)
                    .backdoorWrite(AllReducePlan::kLocalAddr, v);
            }
        }
        ASSERT_TRUE(ref.runBounded().completed) << "run " << run;
        ASSERT_TRUE(rep.runBounded().completed) << "run " << run;
        EXPECT_EQ(ref.cycles(), rep.cycles()) << "run " << run;
        for (int c = 0; c < kChips; ++c) {
            const Chip &a = ref.pod().chip(c);
            const Chip &b = rep.pod().chip(c);
            EXPECT_EQ(a.stats().all(), b.stats().all())
                << "run " << run << " chip " << c;
            EXPECT_EQ(a.mem(Hemisphere::East, AllReducePlan::kSlice)
                          .backdoorRead(AllReducePlan::kResultAddr)
                          .bytes,
                      b.mem(Hemisphere::East, AllReducePlan::kSlice)
                          .backdoorRead(AllReducePlan::kResultAddr)
                          .bytes)
                << "run " << run << " chip " << c;
            EXPECT_NEAR(a.power().totalEnergyJ(),
                        b.power().totalEnergyJ(),
                        1e-9 * a.power().totalEnergyJ())
                << "run " << run << " chip " << c;
        }
    }
    EXPECT_EQ(rep.recordCount(), 1u);
    EXPECT_EQ(rep.replayCount(), 2u);
}

/**
 * Builds the fp16 matmul of test_fp16_matmul.cc — weights installed
 * as byte-plane pairs (LW bursts of 16 streams), @p n activation
 * vectors broadcast as stream pairs, fp32 results drained through ACC
 * and committed to MEM — from raw fp16 bit patterns, so adversarial
 * encodings (NaN payloads, infinities, denormals) flow through the
 * whole LW/IW/ABC/ACC surface. @return probes over the result words.
 */
std::vector<Probe>
buildF16Matmul(ScheduledProgram &prog, HostImage &image, int n,
               const std::vector<std::uint16_t> &wbits,
               const std::vector<std::uint16_t> &abits)
{
    MemAllocator alloc;
    KernelBuilder kb(prog);
    const Hemisphere hem = Hemisphere::East;
    const int plane = 2;
    const SlicePos mxm = Layout::mxmPos(hem);
    const IcuId wq = IcuId::mxm(plane, true);

    auto split = [](const std::uint16_t *bits,
                    std::array<std::uint8_t, kLanes> &lo,
                    std::array<std::uint8_t, kLanes> &hi) {
        for (int c = 0; c < kMxmDim; ++c) {
            lo[static_cast<std::size_t>(c)] =
                static_cast<std::uint8_t>(bits[c] & 0xff);
            hi[static_cast<std::size_t>(c)] =
                static_cast<std::uint8_t>(bits[c] >> 8);
        }
    };

    std::vector<GlobalAddr> lo_addr(kMxmDim), hi_addr(kMxmDim);
    for (int r = 0; r < kMxmDim; ++r) {
        const int s_lo = 28 + 2 * (r % 8);
        lo_addr[static_cast<std::size_t>(r)] =
            alloc.alloc(hem, s_lo, 1);
        hi_addr[static_cast<std::size_t>(r)] =
            alloc.alloc(hem, s_lo + 1, 1);
        std::array<std::uint8_t, kLanes> lo{}, hi{};
        split(&wbits[static_cast<std::size_t>(r) * kMxmDim], lo, hi);
        image.add(lo_addr[static_cast<std::size_t>(r)], lo);
        image.add(hi_addr[static_cast<std::size_t>(r)], hi);
    }

    const Cycle t0 = 80;
    for (int burst = 0; burst < kMxmDim / 8; ++burst) {
        const Cycle at = t0 + static_cast<Cycle>(burst);
        for (int i = 0; i < 8; ++i) {
            const int r = burst * 8 + i;
            kb.readArriving(lo_addr[static_cast<std::size_t>(r)],
                            {static_cast<StreamId>(2 * i),
                             Direction::East},
                            mxm, at);
            kb.readArriving(hi_addr[static_cast<std::size_t>(r)],
                            {static_cast<StreamId>(2 * i + 1),
                             Direction::East},
                            mxm, at);
        }
        Instruction lw;
        lw.op = Opcode::Lw;
        lw.srcA = {0, Direction::East};
        lw.groupSize = 16;
        lw.dtype = DType::Fp16;
        prog.emit(at, wq, lw);
    }
    Instruction iw;
    iw.op = Opcode::Iw;
    iw.imm0 = static_cast<std::uint32_t>(plane);
    const Cycle iw_at = t0 + kMxmDim / 8;
    prog.emit(iw_at, wq, iw);

    const Cycle abc_at = iw_at + 2;
    for (int i = 0; i < n; ++i) {
        const GlobalAddr alo = alloc.alloc(hem, 10, 1);
        const GlobalAddr ahi = alloc.alloc(hem, 11, 1);
        std::array<std::uint8_t, kLanes> lo{}, hi{};
        split(&abits[static_cast<std::size_t>(i) * kMxmDim], lo, hi);
        image.add(alo, lo);
        image.add(ahi, hi);
        kb.readArriving(alo, {16, Direction::East}, mxm,
                        abc_at + static_cast<Cycle>(i));
        kb.readArriving(ahi, {17, Direction::East}, mxm,
                        abc_at + static_cast<Cycle>(i));
    }
    kb.abc(plane, {16, Direction::East}, n, false, DType::Fp16,
           abc_at);

    kb.acc(plane, {20, Direction::West}, n, abc_at + 1);
    std::vector<Probe> probes;
    for (int i = 0; i < n; ++i) {
        const Cycle vis = abc_at + 1 + static_cast<Cycle>(i) +
                          opTiming(Opcode::Acc).dFunc;
        for (int k = 0; k < 4; ++k) {
            const GlobalAddr dst = alloc.alloc(hem, 20 + k, 1);
            Instruction wr;
            wr.op = Opcode::Write;
            wr.addr = dst.addr;
            wr.srcA = {static_cast<StreamId>(20 + k),
                       Direction::West};
            prog.emit(vis + Layout::transitDelay(mxm, dst.pos()),
                      dst.icu(), wr);
            probes.push_back({dst.hem, dst.slice, dst.addr});
        }
    }
    return probes;
}

/** Fp16 operand bits: mostly random finite, specials up front. */
void
fillF16Bits(std::vector<std::uint16_t> &bits, std::uint64_t seed)
{
    const std::uint16_t specials[] = {
        0x7e55, // qNaN with payload
        0xfe00, // -qNaN
        0x7c00, // +inf
        0xfc00, // -inf
        0x0001, // smallest denormal
        0x8000, // -0
        0x7bff, // largest finite
    };
    Rng rng(seed);
    for (auto &b : bits)
        b = Fp16(rng.uniform(-1.0f, 1.0f)).bits();
    for (std::size_t i = 0; i < std::size(specials); ++i)
        bits[i] = specials[i];
}

TEST(Replay, Fp16MatmulReplayIdentical)
{
    // The fp16 MXM surface under replay: byte-plane LW bursts
    // (batched tape consumes), fp16 ABC (SIMD kernels + pair
    // consumes), zero-copy ACC drains — bit-identical to the
    // per-cycle reference, NaN payloads and infinities included.
    constexpr int kN = 4;
    std::vector<std::uint16_t> wbits(
        static_cast<std::size_t>(kMxmDim) * kMxmDim);
    std::vector<std::uint16_t> abits(static_cast<std::size_t>(kN) *
                                     kMxmDim);
    fillF16Bits(wbits, 77);
    fillF16Bits(abits, 78);

    ScheduledProgram prog;
    HostImage image;
    const std::vector<Probe> probes =
        buildF16Matmul(prog, image, kN, wbits, abits);
    const AsmProgram asmProg = prog.toAsm();

    Chip legacy(configFor(false));
    Chip recorded(configFor(true));
    Chip replayed(configFor(true));
    for (Chip *chip : {&legacy, &recorded, &replayed}) {
        image.applyTo(*chip);
        chip->loadProgram(asmProg);
    }

    const Cycle legacy_cycles = legacy.run();

    std::shared_ptr<const ExecutionTrace> trace;
    {
        TraceRecording rec({&recorded});
        EXPECT_EQ(recorded.run(), legacy_cycles);
        trace = rec.finish(/*completed=*/true);
    }
    ASSERT_NE(trace, nullptr);
    expectChipsIdentical(legacy, recorded, probes, "recorded");

    replayTrace(*trace, {&replayed});
    EXPECT_TRUE(replayed.done());
    expectChipsIdentical(legacy, replayed, probes, "replayed");
}

TEST(Replay, Fp16FaultInjectionDeterministicAcrossLiveTiers)
{
    // Faults armed: replay is ineligible (the session gate is
    // covered by FaultInjectionBypassesReplay), but the *live*
    // consume paths the replay refactor rerouted — consumeRef, the
    // batched LW group reads — must keep injecting stream upsets at
    // exactly the recorded-by-seed points: same seed, same end
    // state, on both the per-cycle and fast-forward tiers.
    constexpr int kN = 4;
    std::vector<std::uint16_t> wbits(
        static_cast<std::size_t>(kMxmDim) * kMxmDim);
    std::vector<std::uint16_t> abits(static_cast<std::size_t>(kN) *
                                     kMxmDim);
    fillF16Bits(wbits, 81);
    fillF16Bits(abits, 82);

    ScheduledProgram prog;
    HostImage image;
    const std::vector<Probe> probes =
        buildF16Matmul(prog, image, kN, wbits, abits);
    const AsmProgram asmProg = prog.toAsm();

    ChipConfig cfg = configFor(false);
    cfg.fault.seed = 0xf16ull;
    cfg.fault.streamRate = 0.01;
    cfg.fault.doubleBitFraction = 0.0;
    ChipConfig cfg_ff = cfg;
    cfg_ff.fastForwardEnabled = true;

    Chip a(cfg), b(cfg), ff(cfg_ff);
    for (Chip *chip : {&a, &b, &ff}) {
        image.applyTo(*chip);
        chip->loadProgram(asmProg);
        chip->run();
    }
    expectChipsIdentical(a, b, probes, "same-seed repeat");
    expectChipsIdentical(a, ff, probes, "fast-forward");

    // Non-vacuous: upsets were actually injected on the fp16 consume
    // paths, and SECDED corrected every one of them.
    EXPECT_GT(a.stats().get("faults_injected_stream"), 0u);
    EXPECT_GT(a.stats().get("ecc_corrected_mxm"), 0u);
    EXPECT_EQ(a.stats().get("ecc_uncorrectable"), 0u);
}

TEST(Replay, TraceCacheLruEviction)
{
    auto make_trace = [](std::size_t events) {
        auto t = std::make_shared<ExecutionTrace>();
        t->events.resize(events);
        return std::shared_ptr<const ExecutionTrace>(std::move(t));
    };
    const std::size_t unit = make_trace(1000)->memoryBytes();

    int keys[4];
    TraceCache cache(2 * unit + unit / 2); // Fits two entries.
    cache.insert(&keys[0], make_trace(1000));
    cache.insert(&keys[1], make_trace(1000));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.memoryBytes(), 2 * unit);

    // Touch key 0 so key 1 is the LRU victim of the next insert.
    EXPECT_NE(cache.find(&keys[0]), nullptr);
    cache.insert(&keys[2], make_trace(1000));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(&keys[1]), nullptr);
    EXPECT_NE(cache.find(&keys[0]), nullptr);
    EXPECT_NE(cache.find(&keys[2]), nullptr);

    // An oversized trace still caches (never thrash to empty) but
    // evicts everything else.
    cache.insert(&keys[3], make_trace(5000));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_NE(cache.find(&keys[3]), nullptr);

    cache.invalidate(&keys[3]);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.memoryBytes(), 0u);
}

TEST(Replay, ArenaAccountingMatchesAllocation)
{
    // Record a real program and pin the trace's self-reported
    // footprint against the allocation formulas: arenaBytes() is
    // exactly the pinned replay log (slotCount Vec320 slots), and
    // memoryBytes() is the component sum including that arena.
    const std::string text = "@MEM_W0:\n"
                             "    nop 510\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 509\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 517\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 513\n"
                             "    add.sat s16.e, s17.e, s29.w\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error;

    Chip chip(configFor(true));
    chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(30));
    chip.mem(Hemisphere::West, 1).backdoorWrite(0x6, fill(40));
    chip.loadProgram(r.program);
    TraceRecording rec({&chip});
    chip.run();
    const auto trace = rec.finish(/*completed=*/true);
    ASSERT_NE(trace, nullptr);

    // Liveness compaction: one slot entry per produce, but the log
    // itself holds only the peak number of simultaneously-live
    // values — never one slot per produce.
    EXPECT_EQ(trace->produceSlot.size(), trace->produces);
    EXPECT_GE(trace->slotCount, 1u);
    EXPECT_LE(trace->slotCount, trace->produceSlot.size() + 1);

    EXPECT_EQ(trace->arenaBytes(),
              static_cast<std::size_t>(trace->slotCount) *
                  sizeof(Vec320));
    EXPECT_EQ(trace->memoryBytes(),
              sizeof(ExecutionTrace) +
                  trace->events.size() *
                      sizeof(ExecutionTrace::Event) +
                  trace->insts.size() * sizeof(Instruction) +
                  trace->consumeTape.size() * sizeof(std::uint32_t) +
                  trace->produceSlot.size() * sizeof(std::uint32_t) +
                  trace->chips.size() *
                      sizeof(ExecutionTrace::ChipDeltas) +
                  trace->arenaBytes());
}

TEST(Replay, TraceCacheBudgetsArenaStorage)
{
    // Two traces with identical heap contents but different replay
    // arenas: if the cache ignored arenaBytes(), both would fit the
    // budget below. The arena-heavy one must evict its peer.
    auto make_trace = [](std::uint32_t slots) {
        auto t = std::make_shared<ExecutionTrace>();
        t->events.resize(100);
        t->slotCount = slots;
        return std::shared_ptr<const ExecutionTrace>(std::move(t));
    };
    const std::size_t lean = make_trace(1)->memoryBytes();
    const std::size_t heavy = make_trace(4096)->memoryBytes();
    ASSERT_EQ(heavy, lean + 4095 * sizeof(Vec320));

    int keys[2];
    TraceCache cache(lean + heavy - 1); // Both only fit sans arena.
    cache.insert(&keys[0], make_trace(1));
    cache.insert(&keys[1], make_trace(4096));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(&keys[0]), nullptr);
    EXPECT_NE(cache.find(&keys[1]), nullptr);
    EXPECT_EQ(cache.memoryBytes(), heavy);
}

TEST(Replay, TraceCacheKeyFingerprintDefeatsPointerAba)
{
    // Regression: the cache used to key on the program's address
    // alone. A program freed and a *different* one allocated at the
    // same address (ABA) would silently replay the stale trace. The
    // key now pairs the pointer with a content fingerprint, so the
    // recycled address with a different fingerprint misses — and the
    // stale hit is impossible by construction.
    auto make_trace = [](std::size_t events) {
        auto t = std::make_shared<ExecutionTrace>();
        t->events.resize(events);
        return std::shared_ptr<const ExecutionTrace>(std::move(t));
    };
    int slot; // One address, two successive "programs".
    const TraceKey first{&slot, 0x1111111111111111ull};
    const TraceKey recycled{&slot, 0x2222222222222222ull};

    TraceCache cache(1 << 20);
    cache.insert(first, make_trace(100));
    EXPECT_NE(cache.find(first), nullptr);

    // Same pointer, different content: must MISS, not replay stale.
    EXPECT_EQ(cache.find(recycled), nullptr);

    // Both fingerprints may coexist at one address; each resolves to
    // its own trace and invalidation is per-key.
    cache.insert(recycled, make_trace(200));
    EXPECT_EQ(cache.size(), 2u);
    ASSERT_NE(cache.find(first), nullptr);
    ASSERT_NE(cache.find(recycled), nullptr);
    EXPECT_EQ(cache.find(first)->events.size(), 100u);
    EXPECT_EQ(cache.find(recycled)->events.size(), 200u);
    cache.invalidate(first);
    EXPECT_EQ(cache.find(first), nullptr);
    EXPECT_NE(cache.find(recycled), nullptr);
}

} // namespace
} // namespace tsp
