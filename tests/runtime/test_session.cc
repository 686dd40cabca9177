/**
 * @file
 * Host runtime: DMA-time model, latency accounting, tensor readback
 * geometry, back-to-back sessions on fresh chips, the pre-encoded DMA
 * image, programs borrowed by chips with their carried hash, a
 * single-chip session as a pod of one, the typed corrected-error
 * counter, and a lowering sealed by the first session bound to it.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "common/seed.hh"
#include "mem/ecc.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"

namespace tsp {
namespace {

TEST(Session, DmaAndLatencyAccounting)
{
    Graph g = model::buildTinyNet(11, 8, 8, 4);
    Rng rng(2);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    Lowering lw(true);
    const auto tensors = g.lower(lw, input);
    const std::size_t image_bytes = lw.image().totalBytes();
    EXPECT_GT(image_bytes, 0u);

    InferenceSession sess(lw);
    EXPECT_DOUBLE_EQ(sess.dmaSeconds(),
                     static_cast<double>(image_bytes) /
                         kPcieGen4Bps);
    const Cycle cycles = sess.run();
    EXPECT_DOUBLE_EQ(sess.latencySeconds(),
                     static_cast<double>(cycles) * 1e-9);
    EXPECT_EQ(sess.cycles(), cycles);

    // Readback geometry matches the graph's output shape.
    const auto out = sess.readTensor(tensors.at(g.outputNode()));
    EXPECT_EQ(out.h, 1);
    EXPECT_EQ(out.w, 1);
    EXPECT_EQ(out.c, 10);
}

TEST(Session, IndependentSessionsAgree)
{
    Graph g = model::buildTinyNet(5, 8, 8, 4);
    Rng rng(9);
    std::vector<std::int8_t> input(8 * 8 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    std::vector<std::int8_t> first;
    for (int run = 0; run < 2; ++run) {
        Lowering lw(true);
        const auto tensors = g.lower(lw, input);
        InferenceSession sess(lw);
        sess.run();
        const auto out =
            sess.readTensor(tensors.at(g.outputNode()));
        if (run == 0)
            first = out.data;
        else
            EXPECT_EQ(out.data, first);
    }
}

TEST(Session, CustomClockScalesLatencyOnly)
{
    Graph g = model::buildTinyNet(5, 6, 6, 4);
    Rng rng(4);
    std::vector<std::int8_t> input(6 * 6 * 4);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    Lowering lw(true);
    const auto t = g.lower(lw, input);
    (void)t;
    ChipConfig cfg;
    cfg.clockHz = 900e6; // The nominal silicon clock.
    InferenceSession sess(lw, cfg);
    const Cycle cycles = sess.run();
    EXPECT_DOUBLE_EQ(sess.latencySeconds(),
                     static_cast<double>(cycles) / 900e6);
}

/** @return a random dense int8 input of @p n values. */
std::vector<std::int8_t>
randomInput(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> input(n);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));
    return input;
}

/** @return @p chip's full serialized state (SRAM incl. check bits). */
std::vector<std::uint8_t>
chipState(const Chip &chip)
{
    ChipSnapshot snap;
    EXPECT_TRUE(chip.snapshot(snap));
    return snap.payload;
}

TEST(Session, PreEncodedImageMatchesPerWordBackdoorWrites)
{
    // HostImage encodes each word's SECDED codes when the word is
    // added; applying it must leave the SRAM bytes and check bits a
    // per-word backdoorWrite (encoding at write time) leaves.
    Graph g = model::buildTinyNet(7, 8, 8, 4);
    Lowering lw(true);
    g.lower(lw, randomInput(8 * 8 * 4, 3));
    HostImage img = lw.image();
    // Every add form, including a word with set top lanes.
    std::array<std::uint8_t, kLanes> bytes{};
    for (int i = 0; i < kLanes; ++i)
        bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 7 + 1);
    img.add({Hemisphere::West, 3, 17}, bytes);
    const std::int8_t vals[3] = {-128, 5, 127};
    img.addInt8({Hemisphere::East, 40, 4100}, vals, 3);
    const GlobalAddr quad[4] = {{Hemisphere::West, 9, 1},
                                {Hemisphere::West, 9, 2},
                                {Hemisphere::West, 9, 3},
                                {Hemisphere::West, 9, 4}};
    const std::int32_t ints[2] = {-1, 0x12345678};
    img.addInt32Quad(quad, ints, 2);
    const float floats[2] = {-0.0f, 3.5f};
    img.addFp32Quad(quad, floats, 2);

    for (const HostImage::Entry &e : img.entries()) {
        Vec320 v = e.word;
        eccComputeVec(v);
        ASSERT_EQ(v.ecc, e.word.ecc);
    }
    Chip applied;
    Chip written;
    img.applyTo(applied);
    for (const HostImage::Entry &e : img.entries()) {
        Vec320 v;
        v.bytes = e.word.bytes;
        written.mem(e.addr).backdoorWrite(e.addr.addr, v);
    }
    for (const HostImage::Entry &e : img.entries()) {
        const Vec320 a = applied.mem(e.addr).backdoorRead(e.addr.addr);
        const Vec320 w = written.mem(e.addr).backdoorRead(e.addr.addr);
        ASSERT_EQ(a, w);
    }
    EXPECT_EQ(chipState(applied), chipState(written));
}

TEST(Session, ProgramHashTravelsWithTheProgram)
{
    // The chip reports the hash its program was created with — after
    // construction, across resets, and across a bind() to another
    // program and back — and it is hashProgram() of that program.
    Graph g1 = model::buildTinyNet(5, 8, 8, 4);
    Graph g2 = model::buildTinyNet(5, 6, 6, 4);
    Lowering lw1(true);
    Lowering lw2(true);
    g1.lower(lw1, randomInput(8 * 8 * 4, 1));
    const auto t2 = g2.lower(lw2, randomInput(6 * 6 * 4, 2));
    auto p1 = std::make_shared<const AsmProgram>(
        lw1.program().toAsm(/*with_preamble=*/true));
    auto p2 = std::make_shared<const AsmProgram>(
        lw2.program().toAsm(/*with_preamble=*/true));
    const std::uint64_t h1 = hashProgram(*p1);
    const std::uint64_t h2 = hashProgram(*p2);
    ASSERT_NE(h1, h2);
    const SharedProgram sp1(p1);
    const SharedProgram sp2(p2);
    EXPECT_EQ(sp1.hash(), h1);
    EXPECT_EQ(sp2.hash(), h2);

    InferenceSession sess(lw1, p1);
    EXPECT_EQ(sess.chip().programHash(), h1);
    for (int i = 0; i < 3; ++i) {
        sess.run();
        sess.reset();
        EXPECT_EQ(sess.chip().programHash(), h1) << "reset " << i;
    }

    sess.bind(lw2, sp2);
    sess.reset();
    EXPECT_EQ(sess.chip().programHash(), h2);
    EXPECT_EQ(sess.program(), p2.get());
    sess.run();
    InferenceSession fresh(lw2, p2);
    fresh.run();
    EXPECT_EQ(sess.readTensor(t2.at(g2.outputNode())).data,
              fresh.readTensor(t2.at(g2.outputNode())).data);

    sess.bind(lw1, sp1);
    sess.reset();
    EXPECT_EQ(sess.chip().programHash(), h1);
    EXPECT_EQ(sess.program(), p1.get());
}

TEST(Session, ChipKeepsBorrowedProgramAlive)
{
    // The chip's queues point into the program it loaded, so the chip
    // holds it: dropping the creator's handle must not free it, and
    // the run must match a session that keeps its own handle.
    Graph g = model::buildTinyNet(9, 8, 8, 4);
    Lowering lw(true);
    g.lower(lw, randomInput(8 * 8 * 4, 4));
    auto prog = std::make_shared<const AsmProgram>(
        lw.program().toAsm(/*with_preamble=*/true));
    const std::weak_ptr<const AsmProgram> weak = prog;
    const std::uint64_t h = hashProgram(*prog);

    std::vector<std::uint8_t> want;
    {
        InferenceSession ref(lw, prog);
        ref.run();
        want = chipState(ref.chip());
    }

    auto chip = std::make_unique<Chip>();
    chip->loadProgram(SharedProgram(std::move(prog)));
    ASSERT_FALSE(weak.expired()); // Only the chip holds it now.
    lw.image().applyTo(*chip);
    chip->run();
    EXPECT_EQ(chip->programHash(), h);
    EXPECT_EQ(chipState(*chip), want);

    chip.reset();
    EXPECT_TRUE(weak.expired());
}

/** @return a tiny-net config with single-bit upsets live. */
ChipConfig
singleBitFaults()
{
    ChipConfig cfg;
    cfg.fault.seed = 0x0d1eull;
    cfg.fault.memReadRate = 1e-3;
    cfg.fault.memWriteRate = 1e-3;
    cfg.fault.streamRate = 1e-3;
    cfg.fault.doubleBitFraction = 0.0;
    return cfg;
}

TEST(Session, PodOfOneIsABareChip)
{
    // A single-chip session runs on a pod of one. With faults live on
    // a fixed seed it must be the bare chip driven by hand, bit for
    // bit — and so must its first rebuild, against a bare chip seeded
    // as the rebuild derives.
    Graph g = model::buildTinyNet(7, 8, 8, 4);
    Lowering lw(true);
    const auto tensors = g.lower(lw, randomInput(8 * 8 * 4, 21));
    const ActTensor &out = tensors.at(g.outputNode()).t;
    const ChipConfig cfg = singleBitFaults();

    auto outputBytes = [&out](const Chip &chip) {
        std::vector<std::uint8_t> bytes;
        for (int y = 0; y < out.height; ++y) {
            for (int x = 0; x < out.width; ++x) {
                for (int kg = 0; kg < out.kgCount; ++kg) {
                    const GlobalAddr a =
                        out.addrOf(out.ownerOf(y), y, x, kg);
                    const Vec320 v =
                        chip.mem(a.hem, a.slice).backdoorRead(a.addr);
                    bytes.insert(bytes.end(), v.bytes.begin(),
                                 v.bytes.end());
                }
            }
        }
        return bytes;
    };
    auto expectBare = [&](const InferenceSession &sess,
                          ChipConfig bare_cfg, const char *what) {
        Chip bare(bare_cfg);
        // The session sealed lw; its one cached assembly remains.
        bare.loadProgram(lw.assembled());
        lw.image().applyTo(bare);
        ASSERT_TRUE(bare.runBounded(500'000'000)) << what;
        const Chip &chip = sess.chip();
        EXPECT_EQ(sess.cycles(), bare.now()) << what;
        EXPECT_EQ(chip.stats().all(), bare.stats().all()) << what;
        EXPECT_EQ(chip.power().totalEnergyJ(),
                  bare.power().totalEnergyJ())
            << what;
        EXPECT_EQ(outputBytes(chip), outputBytes(bare)) << what;
        // Every other SRAM word (with its check bits) and register too.
        EXPECT_EQ(chipState(chip), chipState(bare)) << what;
    };

    InferenceSession sess(lw, cfg);
    ASSERT_EQ(sess.pod().size(), 1);
    ASSERT_TRUE(sess.runBounded().completed);
    // The upsets struck and were corrected, so the check has teeth.
    EXPECT_GT(sess.chip().stats().get("ecc_corrected"), 0u);
    expectBare(sess, cfg, "first run");

    // Force a timeout: the next reset() rebuilds the pod with the
    // first EngineRebuild seed.
    sess.reset();
    ASSERT_EQ(sess.runBounded(/*max_cycles=*/10).status,
              RunStatus::CycleLimit);
    sess.reset();
    ASSERT_EQ(sess.rebuilds(), 1);
    ASSERT_TRUE(sess.runBounded().completed);
    ChipConfig rebuilt = cfg;
    rebuilt.fault.seed =
        deriveSeed(cfg.fault.seed, SeedDomain::EngineRebuild, 1);
    expectBare(sess, rebuilt, "rebuilt");
}

TEST(Session, CorrectedErrorCountMatchesStats)
{
    // The typed counter is the one definition stats() reports as
    // ecc_corrected; the session sums it over members.
    Graph g = model::buildTinyNet(3, 8, 8, 4);
    Lowering lw(true);
    g.lower(lw, randomInput(8 * 8 * 4, 8));
    InferenceSession sess(lw, singleBitFaults());
    ASSERT_TRUE(sess.runBounded().completed);
    const Chip &chip = sess.chip();
    EXPECT_GT(chip.correctedErrorCount(), 0u);
    EXPECT_EQ(chip.correctedErrorCount(),
              chip.stats().get("ecc_corrected"));
    EXPECT_EQ(sess.correctedErrors(), chip.correctedErrorCount());
}

TEST(Session, BindingSealsTheLowering)
{
    // A bound lowering keeps only its run half: the events are freed,
    // and everything a session or its caller reads keeps its value.
    Graph g = model::buildTinyNet(3, 8, 8, 4);
    Lowering lw(true);
    g.lower(lw, randomInput(8 * 8 * 4, 31));
    ASSERT_FALSE(lw.sealed());
    const std::size_t events = lw.program().size();
    ASSERT_EQ(lw.program().events().size(), events);
    const std::vector<Lowering::LayerSpan> layers = lw.layers();
    const Cycle finish = lw.finishCycle();
    const std::uint64_t placements = lw.weightPlacements();
    const std::size_t image_bytes = lw.image().totalBytes();

    InferenceSession sess(lw);
    EXPECT_TRUE(lw.sealed());
    EXPECT_TRUE(lw.program().events().empty());
    EXPECT_EQ(lw.program().size(), events);
    ASSERT_EQ(lw.layers().size(), layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(lw.layers()[i].name, layers[i].name);
        EXPECT_EQ(lw.layers()[i].begin, layers[i].begin);
        EXPECT_EQ(lw.layers()[i].end, layers[i].end);
    }
    EXPECT_EQ(lw.finishCycle(), finish);
    EXPECT_EQ(lw.weightPlacements(), placements);
    EXPECT_EQ(lw.image().totalBytes(), image_bytes);
    EXPECT_EQ(sess.run(), finish);
}

TEST(SessionDeathTest, SealedLoweringRefusesToBuild)
{
    // Nothing lowers into or assembles from a sealed lowering; it
    // dies loudly instead of returning an empty program.
    Graph g = model::buildTinyNet(3, 8, 8, 4);
    Lowering lw(true);
    const auto tensors = g.lower(lw, randomInput(8 * 8 * 4, 32));
    ConvWeights w;
    w.outC = 4;
    w.inC = 4;
    w.w.assign(16, 1);
    w.bias.assign(4, 0);
    w.scale.assign(4, 1.0f);
    const InferenceSession sess(lw,
                                std::make_shared<const AsmProgram>(
                                    lw.program().toAsm(true)));
    EXPECT_DEATH(lw.conv2d(tensors.at(0), ConvGeom{}, w), "sealed");
    EXPECT_DEATH(lw.program().toAsm(), "sealed");
    // The caller assembled the program itself, so the lowering has no
    // assembly of its own for a program-less session.
    EXPECT_DEATH(InferenceSession{lw}, "sealed");
}

TEST(Session, SessionsOnOneSealedLoweringAgree)
{
    // Two program-less sessions share the lowering's one assembly and
    // run identically; so do two sessions given one caller-assembled
    // program, the second built after the first sealed the lowering.
    Graph g = model::buildTinyNet(5, 12, 12, 8);
    const std::vector<std::int8_t> input = randomInput(12 * 12 * 8, 33);
    Lowering lw(true);
    const LoweredTensor out = g.lower(lw, input).at(g.outputNode());
    Lowering lw2(true);
    const LoweredTensor out2 = g.lower(lw2, input).at(g.outputNode());
    auto prog = std::make_shared<const AsmProgram>(
        lw2.program().toAsm(/*with_preamble=*/true));

    InferenceSession a(lw);
    InferenceSession b(lw);
    EXPECT_EQ(a.program(), b.program());
    InferenceSession c(lw2, prog);
    ASSERT_TRUE(lw2.sealed());
    InferenceSession d(lw2, prog);
    const Cycle cycles = a.run();
    EXPECT_EQ(cycles, lw.finishCycle());
    const auto stats = a.chip().stats().all();
    const auto data = a.readTensor(out).data;
    for (InferenceSession *s : {&b, &c, &d}) {
        EXPECT_EQ(s->run(), cycles);
        EXPECT_EQ(s->chip().stats().all(), stats);
        EXPECT_EQ(s->readTensor(s == &b ? out : out2).data, data);
    }
}

} // namespace
} // namespace tsp
