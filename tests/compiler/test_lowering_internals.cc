/**
 * @file
 * Lowering internals: slice-group rotation with avoidance, the
 * MEM-to-MEM copyTensor kernel, ActTensor halo/ownership geometry,
 * GlobalAddr helpers, and the pinned identity of the programs the
 * serving and fleet workloads compile.
 */

#include <gtest/gtest.h>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "compiler/lowering.hh"
#include "graph/batch_program.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "sim/snapshot.hh"

namespace tsp {
namespace {

std::vector<std::int8_t>
randomData(int h, int w, int c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> d(static_cast<std::size_t>(h) * w * c);
    for (auto &v : d)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return d;
}

TEST(LoweringInternals, GroupRotationAvoidsInputs)
{
    Lowering lw(true);
    const auto d = randomData(4, 4, 8, 1);
    const LoweredTensor a = lw.inputTensor(4, 4, 8, d);
    const int ga = Lowering::groupOf(a);
    ASSERT_GE(ga, 0);
    // A conv consuming `a` must land elsewhere.
    ConvGeom g;
    ConvWeights w;
    w.outC = 8;
    w.inC = 8;
    w.kh = w.kw = 1;
    w.w.assign(64, 1);
    w.bias.assign(8, 0);
    w.scale.assign(8, 0.01f);
    const LoweredTensor out = lw.conv2d(a, g, w);
    EXPECT_NE(Lowering::groupOf(out), ga);
}

TEST(LoweringInternals, CopyTensorRoundTrips)
{
    const int h = 6, w = 5, c = 24;
    const auto data = randomData(h, w, c, 3);
    Lowering lw(true);
    const LoweredTensor src = lw.inputTensor(h, w, c, data);
    const LoweredTensor dst =
        lw.copyTensor(src, 1 << Lowering::groupOf(src));
    EXPECT_NE(Lowering::groupOf(dst), Lowering::groupOf(src));

    const Cycle finish = lw.finishCycle();
    InferenceSession sess(lw);
    EXPECT_EQ(sess.run(), finish);
    const auto got = sess.readTensor(dst);
    EXPECT_EQ(got.data, data);

    // Halo rows were copied too: both parts store the duplicated
    // boundary rows.
    for (int e = 0; e < 2; ++e)
        EXPECT_EQ(dst.t.part[e].rows, src.t.part[e].rows);
}

TEST(ActTensorGeometry, HaloAndOwnership)
{
    ActTensor t;
    t.height = 10;
    t.width = 4;
    t.kgCount = 2;
    t.splitY = 5;
    t.halo = 2;
    EXPECT_EQ(t.storedHiY(), 7);
    EXPECT_EQ(t.storedLoY(), 3);
    EXPECT_TRUE(t.stores(0, 0));
    EXPECT_TRUE(t.stores(0, 6));
    EXPECT_FALSE(t.stores(0, 7));
    EXPECT_TRUE(t.stores(1, 3));
    EXPECT_FALSE(t.stores(1, 2));
    EXPECT_FALSE(t.stores(0, -1));
    EXPECT_FALSE(t.stores(1, 10));
    EXPECT_EQ(t.ownerOf(4), 0);
    EXPECT_EQ(t.ownerOf(5), 1);
    EXPECT_EQ(t.ownedRows(0), 5);
    EXPECT_EQ(t.ownedRows(1), 5);
    // Local rows: east part's y=3 is its row 0.
    EXPECT_EQ(t.localRow(1, 3, 0, 0), 0);
    EXPECT_EQ(t.localRow(1, 4, 1, 1), (1 * 4 + 1) * 2 + 1);
}

TEST(GlobalAddrHelpers, BankPositionLinear)
{
    const GlobalAddr a{Hemisphere::East, 7, 0x1003};
    EXPECT_EQ(a.bank(), 1);
    EXPECT_EQ(a.pos(), Layout::memPos(Hemisphere::East, 7));
    EXPECT_EQ(a.icu(), IcuId::mem(Hemisphere::East, 7));
    const GlobalAddr b{Hemisphere::West, 7, 0x1003};
    EXPECT_NE(a.linear(), b.linear());
    EXPECT_EQ(a.toString(), "E7:0x1003");
}

TEST(LoweringInternals, LayerSpansRecorded)
{
    Lowering lw(true);
    const auto d = randomData(4, 4, 8, 5);
    const LoweredTensor in = lw.inputTensor(4, 4, 8, d);
    lw.setNextLayerName("my_pool");
    lw.maxPool(in, 3, 2, 1);
    ASSERT_EQ(lw.layers().size(), 1u);
    EXPECT_EQ(lw.layers()[0].name, "my_pool");
    EXPECT_GT(lw.layers()[0].end, lw.layers()[0].begin);
}

TEST(LoweringInternals, NonPipelinedWaitsForProducer)
{
    // Sequential mode's first consumer read must come after the
    // producer's last write; pipelined mode starts earlier.
    const int h = 8, w = 8, c = 16;
    const auto data = randomData(h, w, c, 7);
    ConvGeom g;
    g.kh = g.kw = 3;
    g.pad = 1;
    ConvWeights wt;
    wt.outC = 16;
    wt.inC = 16;
    wt.kh = wt.kw = 3;
    wt.w.assign(static_cast<std::size_t>(16) * 16 * 9, 1);
    wt.bias.assign(16, 0);
    wt.scale.assign(16, 0.002f);

    Cycle seq = 0, pipe = 0;
    for (const bool pipelined : {false, true}) {
        Lowering lw(pipelined);
        LoweredTensor t = lw.inputTensor(h, w, c, data);
        t = lw.conv2d(t, g, wt);
        t = lw.conv2d(t, g, wt);
        (pipelined ? pipe : seq) = lw.finishCycle();
    }
    EXPECT_LT(pipe, seq);
}

/** What a bit-identical rebuild of a program keeps. */
struct Pinned
{
    std::uint64_t hash; ///< hashProgram().
    std::size_t instructions;
    Cycle cycles; ///< Lowering::finishCycle() or AllReducePlan::finish.
};

void
expectPinned(const AsmProgram &p, Cycle cycles, const Pinned &want)
{
    EXPECT_EQ(hashProgram(p), want.hash);
    EXPECT_EQ(ScheduledProgram::instructionCount(p), want.instructions);
    EXPECT_EQ(cycles, want.cycles);
}

// A program depends on shapes only: weights and inputs reach SRAM by
// DMA, so any seed compiles the same instructions.

TEST(CompiledPrograms, TinyNetBatchesArePinned)
{
    struct Net
    {
        int h, w, c;
        Pinned batch[4];
    };
    const Net nets[] = {
        {8, 8, 4,
         {{0x96d4b5ddcc682253ull, 3794, 1057},
          {0xb0eb438197b4bfa6ull, 7495, 1838},
          {0xaf9d8c5e1ce1a69bull, 11228, 2603},
          {0xa3093b2e6b549b53ull, 15003, 3374}}},
        {12, 12, 8,
         {{0x13fbf4c8a2ff3113ull, 7434, 1503},
          {0x1fbb6e3cb5b4d91aull, 14860, 2755},
          {0xf06cf5f94b77de34ull, 22268, 3999},
          {0xe921e55ef88fffdeull, 29652, 5251}}},
    };
    for (const Net &n : nets) {
        for (const std::uint64_t seed : {1, 7, 11}) {
            BatchProgramCache cache(
                model::buildTinyNet(seed, n.h, n.w, n.c),
                randomData(n.h, n.w, n.c, seed), 4);
            for (int b = 1; b <= 4; ++b) {
                SCOPED_TRACE(testing::Message()
                             << n.h << "x" << n.w << "x" << n.c
                             << " seed " << seed << " batch " << b);
                const auto bp = cache.acquire(b);
                expectPinned(*bp->prog.get(), bp->cycles,
                             n.batch[b - 1]);
            }
        }
    }
}

TEST(CompiledPrograms, MemoryBytesArePinned)
{
    // ModelRegistry's byte budget evicts by memoryBytes(); a program's
    // count does not depend on what its lowering keeps after compile.
    struct Net
    {
        int h, w, c;
        std::size_t bytes[4];
    };
    const Net nets[] = {
        {8, 8, 4, {359'680, 584'880, 811'616, 1'040'368}},
        {12, 12, 8, {570'240, 1'010'080, 1'449'056, 1'886'880}},
    };
    for (const Net &n : nets) {
        for (const std::uint64_t seed : {1, 7, 11}) {
            BatchProgramCache cache(
                model::buildTinyNet(seed, n.h, n.w, n.c),
                randomData(n.h, n.w, n.c, seed), 4);
            for (int b = 1; b <= 4; ++b) {
                EXPECT_EQ(cache.acquire(b)->memoryBytes(),
                          n.bytes[b - 1])
                    << n.h << "x" << n.w << "x" << n.c << " seed "
                    << seed << " batch " << b;
            }
        }
    }
}

TEST(CompiledPrograms, CompileSealsTheLowering)
{
    // A resident program keeps only what runs; a program-less session
    // on its lowering shares the compiled assembly.
    const std::vector<std::int8_t> warm = randomData(8, 8, 4, 1);
    BatchProgramCache cache(model::buildTinyNet(1, 8, 8, 4), warm, 2);
    const auto bp = cache.acquire(2);
    Lowering unsealed(true); // The same batch-2 schedule.
    for (int s = 0; s < 2; ++s)
        cache.graph().lower(unsealed, warm);
    EXPECT_TRUE(bp->lw->sealed());
    EXPECT_FALSE(unsealed.sealed());
    EXPECT_TRUE(bp->lw->program().events().empty());
    EXPECT_EQ(bp->lw->program().size(), unsealed.program().size());
    EXPECT_EQ(bp->lw->finishCycle(), bp->cycles);
    InferenceSession sess(*bp->lw);
    EXPECT_EQ(sess.program(), bp->prog.get());
    EXPECT_EQ(sess.run(), bp->cycles);
}

TEST(CompiledPrograms, SequentialTinyNetIsPinned)
{
    Lowering lw(/*pipelined=*/false);
    model::buildTinyNet(11, 12, 12, 8).lower(lw, randomData(12, 12, 8, 2));
    expectPinned(lw.program().toAsm(/*with_preamble=*/true),
                 lw.finishCycle(), {0xd24dbe6e8e1bdd5eull, 7536, 1626});
}

TEST(CompiledPrograms, RingAllReduceIsPinned)
{
    struct Ring
    {
        int n, batch;
        Cycle finish;
        std::vector<std::pair<std::uint64_t, std::size_t>> chips;
    };
    const Ring rings[] = {
        {2, 1, 452, {{0x39bfee427b9d05fcull, 11},
                     {0x6747f0006fac9ec4ull, 15}}},
        {2, 4, 2243, {{0x31c67e1aba879a04ull, 27},
                      {0xa4a7460770e5f239ull, 39}}},
        {2, 16, 9407, {{0xe95e30f97a1a3fbcull, 75},
                       {0x8e47df6e2e892389ull, 111}}},
        {3, 1, 850, {{0x18249303481fc489ull, 15},
                     {0xe3bc73529d60bd69ull, 19},
                     {0x658d86562e152834ull, 15}}},
        {3, 4, 3238, {{0xa0728fdcfdff2c4aull, 47},
                      {0xe43bd0b895be74b1ull, 59},
                      {0xd0404e4923841df5ull, 39}}},
        {3, 16, 12790, {{0xc0871e13a2e5bf4eull, 167},
                        {0xf7acef43d6a57fe9ull, 203},
                        {0xb260d6879a712259ull, 111}}},
        {4, 1, 1248, {{0xdb5cc33c7e960253ull, 15},
                      {0x70991b14776e2241ull, 23},
                      {0xdd9331cf24bcf0eeull, 19},
                      {0x731e6c8f62f4d70bull, 15}}},
        {4, 4, 4233, {{0x146091224517140dull, 47},
                      {0x1283a71a745cfc1cull, 79},
                      {0x48fb36fbbc43a7c1ull, 59},
                      {0x897ce353e331580aull, 39}}},
        {4, 16, 16173, {{0x576e5b28da5ce931ull, 167},
                        {0xbdef1c53292cf7e0ull, 295},
                        {0xce026e9044f77211ull, 203},
                        {0x3bce83c3e1f52cd2ull, 111}}},
    };
    for (const Ring &r : rings) {
        Pod pod(r.n, /*wire_latency=*/17);
        std::vector<ScheduledProgram> progs;
        const AllReducePlan plan = buildRingAllReduce(pod, progs, r.batch);
        ASSERT_EQ(progs.size(), r.chips.size());
        for (std::size_t c = 0; c < progs.size(); ++c) {
            SCOPED_TRACE(testing::Message() << r.n << " chips, batch "
                                            << r.batch << ", chip " << c);
            expectPinned(progs[c].toAsm(), plan.finish,
                         {r.chips[c].first, r.chips[c].second, r.finish});
        }
        // The builder's finish is the cycle a run retires at.
        EXPECT_EQ(runAllReduce(pod, progs), plan.finish)
            << r.n << " chips, batch " << r.batch;
    }
}

} // namespace
} // namespace tsp
