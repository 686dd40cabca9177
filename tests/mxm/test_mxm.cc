/**
 * @file
 * MXM plane: LW/IW weight staging, int8 matvec against a host
 * reference, multi-window accumulation, fp16 mode with fp32
 * accumulation, the drain-generation consistency check, the 40-cycle
 * weight-install claim's arithmetic, short installs that replace
 * only the rows they stage (in both dtypes, across a snapshot), and
 * the deferred int8 window: drains and installs that land inside a
 * window, and snapshots cut at every tick of one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "common/fp16.hh"
#include "common/rng.hh"
#include "common/snapshot_io.hh"
#include "mem/ecc.hh"
#include "mxm/mxm_plane.hh"

namespace tsp {
namespace {

/** Drives LW bursts of 16 rows per cycle from prepared row data. */
class MxmHarness
{
  public:
    MxmHarness()
        : fabric_(), plane_(0, cfg_, fabric_)
    {
    }

    void
    putStream(StreamId id, Direction dir, const Vec320 &v)
    {
        Vec320 x = v;
        eccComputeVec(x);
        fabric_.write({id, dir}, plane_.pos(), x);
    }

    /**
     * Stages rows [0, @p rows) of @p w ([320][320], row-major) in
     * 16-row LW bursts and installs them with one IW.
     */
    void
    loadWeights(const std::vector<std::int8_t> &w, int rows = kMxmDim)
    {
        for (int burst = 0; burst < rows / 16; ++burst) {
            for (int j = 0; j < 16; ++j) {
                Vec320 row;
                const int r = burst * 16 + j;
                for (int c = 0; c < kMxmDim; ++c) {
                    row.bytes[static_cast<std::size_t>(c)] =
                        static_cast<std::uint8_t>(
                            w[static_cast<std::size_t>(r) * kMxmDim +
                              c]);
                }
                putStream(static_cast<StreamId>(j), Direction::West,
                          row);
            }
            Instruction lw;
            lw.op = Opcode::Lw;
            lw.srcA = {0, Direction::West};
            lw.groupSize = 16;
            plane_.issue(lw, fabric_.now());
            step();
        }
        Instruction iw;
        iw.op = Opcode::Iw;
        plane_.issue(iw, fabric_.now());
        step();
    }

    /** fp16 form of loadWeights(): 8 rows (16 streams) per burst. */
    void
    loadWeightsF16(const std::vector<std::uint16_t> &w, int rows)
    {
        for (int burst = 0; burst < rows / 8; ++burst) {
            for (int i = 0; i < 8; ++i) {
                Vec320 lo, hi;
                const int r = burst * 8 + i;
                for (int c = 0; c < kMxmDim; ++c) {
                    const std::uint16_t bits =
                        w[static_cast<std::size_t>(r) * kMxmDim + c];
                    lo.bytes[static_cast<std::size_t>(c)] =
                        static_cast<std::uint8_t>(bits & 0xff);
                    hi.bytes[static_cast<std::size_t>(c)] =
                        static_cast<std::uint8_t>(bits >> 8);
                }
                putStream(static_cast<StreamId>(2 * i),
                          Direction::West, lo);
                putStream(static_cast<StreamId>(2 * i + 1),
                          Direction::West, hi);
            }
            Instruction lw;
            lw.op = Opcode::Lw;
            lw.srcA = {0, Direction::West};
            lw.groupSize = 16;
            lw.dtype = DType::Fp16;
            plane_.issue(lw, fabric_.now());
            step();
        }
        Instruction iw;
        iw.op = Opcode::Iw;
        plane_.issue(iw, fabric_.now());
        step();
    }

    /**
     * Streams one one-vector ABC window of @p dt (an int8 vector in
     * act[0], or fp16 low/high byte planes in act[0..1]) and drains
     * it. @return each row's raw 32-bit accumulator.
     */
    std::vector<std::uint32_t>
    matvec(const Vec320 *act, DType dt)
    {
        putStream(16, Direction::West, act[0]);
        if (dt == DType::Fp16)
            putStream(17, Direction::West, act[1]);
        Instruction abc;
        abc.op = Opcode::Abc;
        abc.imm1 = 1;
        abc.srcA = {16, Direction::West};
        abc.dtype = dt;
        plane_.issue(abc, fabric_.now());
        step();
        issueAcc(1);
        finishDrains();
        return drained_.back();
    }

    /**
     * Issues an int8 ABC window of @p count ticks from stream 16 West;
     * each stepWith() then supplies one activation.
     */
    void
    issueAbc(std::uint32_t count, bool accumulate)
    {
        Instruction abc;
        abc.op = Opcode::Abc;
        abc.imm1 = count;
        abc.srcA = {16, Direction::West};
        abc.dtype = DType::Int8;
        if (accumulate)
            abc.flags |= Instruction::kFlagAccumulate;
        plane_.issue(abc, fabric_.now());
    }

    /**
     * Issues an ACC drain of accumulators [0, @p count) onto streams
     * 20..23 East; stepWith() collects each row into drained_ as it
     * passes the plane.
     */
    void
    issueAcc(std::uint32_t count)
    {
        Instruction acc;
        acc.op = Opcode::Acc;
        acc.imm1 = count;
        acc.dst = {20, Direction::East};
        plane_.issue(acc, fabric_.now());
        const Cycle first = fabric_.now() + opTiming(Opcode::Acc).dFunc;
        for (std::uint32_t i = 0; i < count; ++i)
            visible_.push_back(first + i);
    }

    /**
     * Steps one cycle with @p act (if any) on ABC's stream, then
     * collects every drained row that became visible.
     */
    void
    stepWith(const Vec320 *act)
    {
        if (act != nullptr)
            putStream(16, Direction::West, *act);
        step();
        while (!visible_.empty() && visible_.front() < fabric_.now()) {
            const SlicePos p =
                plane_.pos() +
                static_cast<SlicePos>(fabric_.now() - visible_.front());
            visible_.pop_front();
            std::vector<std::uint32_t> row(kMxmDim, 0);
            for (int k = 0; k < 4; ++k) {
                const Vec320 *v = fabric_.peek(
                    {static_cast<StreamId>(20 + k), Direction::East}, p);
                EXPECT_NE(v, nullptr);
                if (v == nullptr)
                    break;
                for (int r = 0; r < kMxmDim; ++r) {
                    row[static_cast<std::size_t>(r)] |=
                        static_cast<std::uint32_t>(
                            v->bytes[static_cast<std::size_t>(r)])
                        << (8 * k);
                }
            }
            drained_.push_back(std::move(row));
        }
    }

    /** Steps until every issued drain row is collected. */
    void
    finishDrains()
    {
        while (!visible_.empty())
            stepWith(nullptr);
    }

    /** @return the plane's serialized state. */
    std::vector<std::uint8_t>
    save() const
    {
        SnapshotWriter w;
        plane_.saveState(w);
        return w.take();
    }

    /** Restores state saved by save() (from another harness). */
    void
    restore(const std::vector<std::uint8_t> &blob)
    {
        SnapshotReader r(blob);
        plane_.loadState(r);
        EXPECT_TRUE(r.atEnd());
    }

    void
    step()
    {
        plane_.tick(fabric_.now());
        fabric_.advance();
    }

    ChipConfig cfg_;
    StreamFabric fabric_;
    MxmPlane plane_;
    /** Visibility cycles of issued drain rows not yet collected. */
    std::deque<Cycle> visible_;
    /** Drained accumulator rows, as raw 32-bit values, in order. */
    std::vector<std::vector<std::uint32_t>> drained_;
};

TEST(Mxm, WeightInstallRoundTrip)
{
    Rng rng(1);
    std::vector<std::int8_t> w(
        static_cast<std::size_t>(kMxmDim) * kMxmDim);
    for (auto &v : w)
        v = static_cast<std::int8_t>(rng.intIn(-127, 127));

    MxmHarness h;
    h.loadWeights(w);
    for (int r = 0; r < kMxmDim; r += 37) {
        for (int c = 0; c < kMxmDim; c += 41) {
            EXPECT_EQ(h.plane_.installedWeight(r, c),
                      w[static_cast<std::size_t>(r) * kMxmDim + c]);
        }
    }
    EXPECT_EQ(h.plane_.weightBytesLoaded(),
              static_cast<std::uint64_t>(kMxmDim) * kMxmDim);
}

TEST(Mxm, MatvecMatchesHostReference)
{
    Rng rng(2);
    std::vector<std::int8_t> w(
        static_cast<std::size_t>(kMxmDim) * kMxmDim);
    for (auto &v : w)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));
    std::vector<std::int8_t> act(kMxmDim);
    for (auto &v : act)
        v = static_cast<std::int8_t>(rng.intIn(-50, 50));

    MxmHarness h;
    h.loadWeights(w);

    // One-activation window, then drain one vector.
    Vec320 a;
    for (int c = 0; c < kMxmDim; ++c) {
        a.bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(act[static_cast<std::size_t>(c)]);
    }
    h.putStream(16, Direction::West, a);
    Instruction abc;
    abc.op = Opcode::Abc;
    abc.imm1 = 1;
    abc.srcA = {16, Direction::West};
    abc.dtype = DType::Int8;
    h.plane_.issue(abc, h.fabric_.now());
    h.step();

    Instruction acc;
    acc.op = Opcode::Acc;
    acc.imm1 = 1;
    acc.dst = {20, Direction::East};
    h.plane_.issue(acc, h.fabric_.now());
    const Cycle emit = h.fabric_.now();
    // Result visible at emit + dFunc(Acc).
    while (h.fabric_.now() <= emit + opTiming(Opcode::Acc).dFunc)
        h.step();

    Vec320 out[4];
    for (int k = 0; k < 4; ++k) {
        // The result flowed (dFunc - hops...) — peek at the MXM
        // position after rewinding: easier to recompute expected
        // location: visible at (pos, emit + 21), now it is at
        // pos + (now - (emit + 21)) eastward.
        const SlicePos p =
            h.plane_.pos() +
            static_cast<SlicePos>(h.fabric_.now() -
                                  (emit + opTiming(Opcode::Acc).dFunc));
        const Vec320 *v = h.fabric_.peek(
            {static_cast<StreamId>(20 + k), Direction::East}, p);
        ASSERT_NE(v, nullptr) << k;
        out[k] = *v;
    }
    for (int r = 0; r < kMxmDim; ++r) {
        std::int32_t want = 0;
        for (int c = 0; c < kMxmDim; ++c) {
            want += static_cast<std::int32_t>(
                        w[static_cast<std::size_t>(r) * kMxmDim + c]) *
                    act[static_cast<std::size_t>(c)];
        }
        std::uint32_t u = 0;
        for (int k = 0; k < 4; ++k) {
            u |= static_cast<std::uint32_t>(
                     out[k].bytes[static_cast<std::size_t>(r)])
                 << (8 * k);
        }
        ASSERT_EQ(static_cast<std::int32_t>(u), want) << "row " << r;
    }
    EXPECT_EQ(h.plane_.maccOps(),
              static_cast<std::uint64_t>(kMxmDim) * kMxmDim);
}

TEST(Mxm, AccumulateAcrossWindows)
{
    // Two accumulating windows double the dot product.
    std::vector<std::int8_t> w(
        static_cast<std::size_t>(kMxmDim) * kMxmDim, 0);
    for (int r = 0; r < kMxmDim; ++r)
        w[static_cast<std::size_t>(r) * kMxmDim + r] = 1; // Identity.

    MxmHarness h;
    h.loadWeights(w);

    Vec320 a;
    for (int c = 0; c < kMxmDim; ++c)
        a.bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(c % 100);

    for (int win = 0; win < 2; ++win) {
        h.putStream(16, Direction::West, a);
        Instruction abc;
        abc.op = Opcode::Abc;
        abc.imm1 = 1;
        abc.srcA = {16, Direction::West};
        abc.dtype = DType::Int8;
        if (win > 0)
            abc.flags |= Instruction::kFlagAccumulate;
        h.plane_.issue(abc, h.fabric_.now());
        h.step();
    }

    Instruction acc;
    acc.op = Opcode::Acc;
    acc.imm1 = 1;
    acc.dst = {20, Direction::East};
    h.plane_.issue(acc, h.fabric_.now());
    const Cycle emit = h.fabric_.now();
    while (h.fabric_.now() <= emit + opTiming(Opcode::Acc).dFunc)
        h.step();
    const SlicePos p =
        h.plane_.pos() +
        static_cast<SlicePos>(h.fabric_.now() -
                              (emit + opTiming(Opcode::Acc).dFunc));
    const Vec320 *lo =
        h.fabric_.peek({20, Direction::East}, p);
    ASSERT_NE(lo, nullptr);
    EXPECT_EQ(lo->bytes[57], static_cast<std::uint8_t>(2 * 57));
}

TEST(Mxm, WeightInstallMeetsPaperBudget)
{
    // Paper V.b: all 409,600 weights install in < 40 cycles. Our
    // model: 20 LW bursts + IW per plane, all four planes in
    // parallel, plus worst-case transit from mid-hemisphere MEM.
    const int bursts = kMxmDim / 16;       // 20 streaming cycles.
    const Cycle iw = 1;                    // Commit.
    const Cycle read_dfunc = opTiming(Opcode::Read).dFunc;
    const Cycle transit = Layout::transitDelay(
        Layout::memPos(Hemisphere::West, 43), Layout::mxmWest);
    const Cycle total = bursts + iw + read_dfunc + transit;
    EXPECT_LT(total, 40u);
    // Total weights across four planes.
    EXPECT_EQ(4 * kMxmDim * kMxmDim, 409'600);
}

TEST(MxmDeath, OverlappingAbcPanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        ChipConfig cfg;
        cfg.strictStreams = false;
        StreamFabric fabric;
        MxmPlane plane(0, cfg, fabric);
        Instruction abc;
        abc.op = Opcode::Abc;
        abc.imm1 = 8;
        abc.srcA = {16, Direction::West};
        plane.issue(abc, 0);
        plane.issue(abc, 1); // Window still active.
    };
    ASSERT_DEATH(body(), "window is active");
}

TEST(MxmDeath, StaleGenerationDrainPanics)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto body = [] {
        ChipConfig cfg;
        cfg.strictStreams = false;
        StreamFabric fabric;
        MxmPlane plane(0, cfg, fabric);

        auto window = [&](std::uint32_t n) {
            Instruction abc;
            abc.op = Opcode::Abc;
            abc.imm1 = n;
            abc.srcA = {16, Direction::West};
            plane.issue(abc, fabric.now());
            for (std::uint32_t i = 0; i < n; ++i) {
                plane.tick(fabric.now());
                fabric.advance();
            }
        };
        window(2); // Generation 1 fills indices 0 and 1.
        window(1); // Generation 2 overwrites index 0 only.
        // Draining two indices now mixes generations: index 1 is
        // stale.
        Instruction acc;
        acc.op = Opcode::Acc;
        acc.imm1 = 2;
        acc.dst = {20, Direction::East};
        plane.issue(acc, fabric.now());
        for (int i = 0; i < 3; ++i) {
            plane.tick(fabric.now());
            fabric.advance();
        }
    };
    ASSERT_DEATH(body(), "generation");
}

TEST(Mxm, Fp16ModeAccumulatesInFp32)
{
    ChipConfig cfg;
    StreamFabric fabric;
    MxmPlane plane(1, cfg, fabric);
    const SlicePos pos = plane.pos();

    auto put = [&](StreamId id, const Vec320 &v) {
        Vec320 x = v;
        eccComputeVec(x);
        fabric.write({id, Direction::West}, pos, x);
    };

    // Install fp16 weights: row r has weight 0.5 at column r.
    for (int burst = 0; burst < 20; ++burst) {
        for (int i = 0; i < 8; ++i) { // 8 rows per burst (2 streams).
            Vec320 lo, hi;
            const int r = burst * 8 + i;
            if (r < kMxmDim) {
                const std::uint16_t bits = Fp16(0.5f).bits();
                lo.bytes[static_cast<std::size_t>(r)] =
                    static_cast<std::uint8_t>(bits & 0xff);
                hi.bytes[static_cast<std::size_t>(r)] =
                    static_cast<std::uint8_t>(bits >> 8);
            }
            put(static_cast<StreamId>(2 * i), lo);
            put(static_cast<StreamId>(2 * i + 1), hi);
        }
        Instruction lw;
        lw.op = Opcode::Lw;
        lw.srcA = {0, Direction::West};
        lw.groupSize = 16;
        lw.dtype = DType::Fp16;
        plane.issue(lw, fabric.now());
        plane.tick(fabric.now());
        fabric.advance();
    }
    // Only 160 rows filled by this pattern — pad the rest.
    while (true) {
        Instruction lw;
        lw.op = Opcode::Lw;
        lw.srcA = {0, Direction::West};
        lw.groupSize = 16;
        lw.dtype = DType::Fp16;
        // Stop once full: 20 bursts x 8 rows = 160; need 320.
        Vec320 zero;
        for (int i = 0; i < 16; ++i)
            put(static_cast<StreamId>(i), zero);
        plane.issue(lw, fabric.now());
        plane.tick(fabric.now());
        fabric.advance();
        static int extra = 0;
        if (++extra >= 20)
            break;
    }
    Instruction iw;
    iw.op = Opcode::Iw;
    plane.issue(iw, fabric.now());
    plane.tick(fabric.now());
    fabric.advance();

    EXPECT_EQ(plane.installedWeightF16(7, 7), Fp16(0.5f).bits());

    // Stream one fp16 activation vector of 2.0s.
    Vec320 alo, ahi;
    const std::uint16_t abits = Fp16(2.0f).bits();
    for (int c = 0; c < kMxmDim; ++c) {
        alo.bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(abits & 0xff);
        ahi.bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(abits >> 8);
    }
    put(16, alo);
    put(17, ahi);
    Instruction abc;
    abc.op = Opcode::Abc;
    abc.imm1 = 1;
    abc.srcA = {16, Direction::West};
    abc.dtype = DType::Fp16;
    plane.issue(abc, fabric.now());
    plane.tick(fabric.now());
    fabric.advance();

    Instruction acc;
    acc.op = Opcode::Acc;
    acc.imm1 = 1;
    acc.dst = {20, Direction::East};
    plane.issue(acc, fabric.now());
    const Cycle emit = fabric.now();
    while (fabric.now() <= emit + opTiming(Opcode::Acc).dFunc) {
        plane.tick(fabric.now());
        fabric.advance();
    }
    const SlicePos p =
        pos + static_cast<SlicePos>(
                  fabric.now() - (emit + opTiming(Opcode::Acc).dFunc));
    Vec320 out[4];
    for (int k = 0; k < 4; ++k) {
        const Vec320 *v = fabric.peek(
            {static_cast<StreamId>(20 + k), Direction::East}, p);
        ASSERT_NE(v, nullptr);
        out[k] = *v;
    }
    // Row 7: 0.5 * 2.0 = 1.0 (fp32).
    std::uint32_t u = 0;
    for (int k = 0; k < 4; ++k) {
        u |= static_cast<std::uint32_t>(out[k].bytes[7]) << (8 * k);
    }
    float f;
    std::memcpy(&f, &u, sizeof(f));
    EXPECT_FLOAT_EQ(f, 1.0f);
}

/** @return int8 row dot products of @p w against @p act, as raw bits. */
std::vector<std::uint32_t>
hostMatvec(const std::vector<std::int8_t> &w, const Vec320 &act)
{
    std::vector<std::uint32_t> out(kMxmDim);
    for (int r = 0; r < kMxmDim; ++r) {
        std::int32_t sum = 0;
        for (int c = 0; c < kMxmDim; ++c) {
            sum += static_cast<std::int32_t>(
                       w[static_cast<std::size_t>(r) * kMxmDim + c]) *
                   static_cast<std::int8_t>(
                       act.bytes[static_cast<std::size_t>(c)]);
        }
        out[static_cast<std::size_t>(r)] =
            static_cast<std::uint32_t>(sum);
    }
    return out;
}

/** @return fp16 row dot products in the MXM's fp32 order, as bits. */
std::vector<std::uint32_t>
hostMatvecF16(const std::vector<std::uint16_t> &w, const Vec320 act[2])
{
    std::vector<std::uint32_t> out(kMxmDim);
    for (int r = 0; r < kMxmDim; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < kMxmDim; ++c) {
            const auto abits = static_cast<std::uint16_t>(
                act[0].bytes[static_cast<std::size_t>(c)] |
                (act[1].bytes[static_cast<std::size_t>(c)] << 8));
            const float wv = Fp16::fromBits(
                w[static_cast<std::size_t>(r) * kMxmDim + c]).toFloat();
            const float prod = wv * Fp16::fromBits(abits).toFloat();
            sum = sum + prod;
        }
        std::memcpy(&out[static_cast<std::size_t>(r)], &sum,
                    sizeof(sum));
    }
    return out;
}

TEST(Mxm, ShortBurstKeepsUntouchedInt8RowsInstalled)
{
    // A 16-row burst after a full install replaces rows 0..15 only;
    // rows 16..319 stay as installed, including across a snapshot
    // round-trip taken between the two installs. ABC over the result
    // must match the host product of the expected plane whichever way
    // the burst moves the nonzero block (dense -> sparse rows and
    // sparse plane -> dense rows).
    Rng rng(31);
    Vec320 act;
    for (auto &b : act.bytes)
        b = static_cast<std::uint8_t>(rng.intIn(-128, 127));

    for (const bool dense_first : {true, false}) {
        std::vector<std::int8_t> w1(
            static_cast<std::size_t>(kMxmDim) * kMxmDim, 0);
        std::vector<std::int8_t> w2(w1.size(), 0);
        for (int r = 0; r < kMxmDim; ++r) {
            for (int c = 0; c < kMxmDim; ++c) {
                const bool in1 = dense_first || (r < 100 && c < 40);
                const bool in2 = r < 16 && (!dense_first || c < 33);
                const std::size_t i =
                    static_cast<std::size_t>(r) * kMxmDim + c;
                if (in1)
                    w1[i] = static_cast<std::int8_t>(
                        rng.intIn(-127, 127));
                if (in2)
                    w2[i] = static_cast<std::int8_t>(
                        rng.intIn(-127, 127));
            }
        }
        if (!dense_first) // A lone weight far out in the old plane.
            w1[250 * kMxmDim + 301] = -5;
        std::vector<std::int8_t> want = w1;
        std::copy_n(w2.begin(), 16 * kMxmDim, want.begin());

        MxmHarness live;
        live.loadWeights(w1);
        const std::vector<std::uint8_t> blob = live.save();
        live.loadWeights(w2, 16);

        MxmHarness restored;
        restored.restore(blob);
        restored.loadWeights(w2, 16);

        for (MxmHarness *h : {&live, &restored}) {
            const char *which = h == &live ? "live" : "restored";
            for (int r = 0; r < kMxmDim; ++r) {
                for (int c = 0; c < kMxmDim; ++c) {
                    ASSERT_EQ(h->plane_.installedWeight(r, c),
                              want[static_cast<std::size_t>(r) *
                                       kMxmDim +
                                   c])
                        << which << " dense_first=" << dense_first
                        << " (" << r << "," << c << ")";
                }
            }
            EXPECT_EQ(h->matvec(&act, DType::Int8),
                      hostMatvec(want, act))
                << which << " dense_first=" << dense_first;
        }
    }
}

TEST(Mxm, ShortBurstKeepsUntouchedFp16RowsInstalled)
{
    // fp16 form of the test above, over an int8 install: the fp16
    // bursts leave every int8 row installed as it was (a burst only
    // touches its own dtype's buffer).
    Rng rng(37);
    auto randomF16 = [&rng] {
        return Fp16(static_cast<float>(rng.intIn(-64, 64)) / 16.0f)
            .bits();
    };
    std::vector<std::int8_t> w8(
        static_cast<std::size_t>(kMxmDim) * kMxmDim);
    for (auto &v : w8)
        v = static_cast<std::int8_t>(rng.intIn(-127, 127));
    std::vector<std::uint16_t> w1(w8.size());
    std::vector<std::uint16_t> w2(w8.size(), 0);
    for (auto &v : w1)
        v = randomF16();
    for (int i = 0; i < 16 * kMxmDim; ++i)
        w2[static_cast<std::size_t>(i)] = randomF16();
    std::vector<std::uint16_t> want = w1;
    std::copy_n(w2.begin(), 16 * kMxmDim, want.begin());
    Vec320 act[2];
    for (int c = 0; c < kMxmDim; ++c) {
        const std::uint16_t bits = randomF16();
        act[0].bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(bits & 0xff);
        act[1].bytes[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(bits >> 8);
    }

    MxmHarness live;
    live.loadWeights(w8);
    live.loadWeightsF16(w1, kMxmDim);
    const std::vector<std::uint8_t> blob = live.save();
    live.loadWeightsF16(w2, 16);

    MxmHarness restored;
    restored.restore(blob);
    restored.loadWeightsF16(w2, 16);

    for (MxmHarness *h : {&live, &restored}) {
        const char *which = h == &live ? "live" : "restored";
        for (int r = 0; r < kMxmDim; ++r) {
            for (int c = 0; c < kMxmDim; ++c) {
                const std::size_t i =
                    static_cast<std::size_t>(r) * kMxmDim + c;
                ASSERT_EQ(h->plane_.installedWeightF16(r, c), want[i])
                    << which << " (" << r << "," << c << ")";
                ASSERT_EQ(h->plane_.installedWeight(r, c), w8[i])
                    << which << " int8 (" << r << "," << c << ")";
            }
        }
        EXPECT_EQ(h->matvec(act, DType::Fp16), hostMatvecF16(want, act))
            << which;
    }
}

/** @return a plane of random int8 weights in [-127, 127]. */
std::vector<std::int8_t>
randomPlane(Rng &rng)
{
    std::vector<std::int8_t> w(static_cast<std::size_t>(kMxmDim) * kMxmDim);
    for (auto &v : w)
        v = static_cast<std::int8_t>(rng.intIn(-127, 127));
    return w;
}

/** @return @p n random int8 activation vectors. */
std::vector<Vec320>
randomActs(Rng &rng, int n)
{
    std::vector<Vec320> acts(static_cast<std::size_t>(n));
    for (auto &a : acts) {
        for (auto &b : a.bytes)
            b = static_cast<std::uint8_t>(rng.intIn(-128, 127));
    }
    return acts;
}

TEST(Mxm, DrainInsideWindowFlushesPendingTicks)
{
    // An ACC issued while its window still streams reads accumulators
    // whose ticks are pending: the plane computes them first. Issued
    // 0, 1 and 2 cycles into an 8-tick window, the drain chases the
    // window at that distance, so pending ticks flush at several
    // points of it; every row must be its own activation's product.
    Rng rng(51);
    const std::vector<std::int8_t> w = randomPlane(rng);
    const std::vector<Vec320> acts = randomActs(rng, 8);
    for (const int lag : {0, 1, 2}) {
        MxmHarness h;
        h.loadWeights(w);
        h.issueAbc(8, /*accumulate=*/false);
        for (int j = 0; j < 8; ++j) {
            if (j == lag)
                h.issueAcc(8);
            h.stepWith(&acts[static_cast<std::size_t>(j)]);
        }
        h.finishDrains();
        ASSERT_EQ(h.drained_.size(), 8u) << "lag " << lag;
        for (int j = 0; j < 8; ++j) {
            EXPECT_EQ(h.drained_[static_cast<std::size_t>(j)],
                      hostMatvec(w, acts[static_cast<std::size_t>(j)]))
                << "lag " << lag << " index " << j;
        }
        EXPECT_EQ(h.plane_.maccOps(),
                  8ull * kMxmDim * kMxmDim);
    }
}

TEST(Mxm, InstallInsideWindowSplitsItsTicks)
{
    // An IW issued mid-window: the ticks before it use the old
    // weights, the ticks from its cycle on use the new ones (a
    // 16-row burst staged while the window streams).
    Rng rng(53);
    const std::vector<std::int8_t> w1 = randomPlane(rng);
    std::vector<std::int8_t> w2 = w1;
    for (int i = 0; i < 16 * kMxmDim; ++i)
        w2[static_cast<std::size_t>(i)] =
            static_cast<std::int8_t>(rng.intIn(-127, 127));
    const std::vector<Vec320> acts = randomActs(rng, 8);

    MxmHarness h;
    h.loadWeights(w1);
    h.issueAbc(8, /*accumulate=*/false);
    for (int j = 0; j < 8; ++j) {
        if (j == 2) {
            for (int r = 0; r < 16; ++r) {
                Vec320 row;
                for (int c = 0; c < kMxmDim; ++c) {
                    row.bytes[static_cast<std::size_t>(c)] =
                        static_cast<std::uint8_t>(
                            w2[static_cast<std::size_t>(r) * kMxmDim + c]);
                }
                h.putStream(static_cast<StreamId>(r), Direction::West, row);
            }
            Instruction lw;
            lw.op = Opcode::Lw;
            lw.srcA = {0, Direction::West};
            lw.groupSize = 16;
            h.plane_.issue(lw, h.fabric_.now());
        }
        if (j == 3) {
            Instruction iw;
            iw.op = Opcode::Iw;
            h.plane_.issue(iw, h.fabric_.now());
        }
        h.stepWith(&acts[static_cast<std::size_t>(j)]);
    }
    h.issueAcc(8);
    h.finishDrains();
    ASSERT_EQ(h.drained_.size(), 8u);
    for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(h.drained_[static_cast<std::size_t>(j)],
                  hostMatvec(j < 3 ? w1 : w2,
                             acts[static_cast<std::size_t>(j)]))
            << "index " << j;
    }
}

TEST(Mxm, SnapshotAtEveryTickOfAWindowIsSettled)
{
    // A 64-tick window after a first window, overwriting its results
    // or accumulating onto them, cut before every tick and after the
    // last. Each cut's saved accumulators are the host's partial sums
    // for the ticks so far (pending ticks written settled), and the
    // cut restored into a fresh plane finishes with the uninterrupted
    // plane's drain.
    Rng rng(57);
    const std::vector<std::int8_t> w = randomPlane(rng);
    const std::vector<Vec320> first = randomActs(rng, 64);
    const std::vector<Vec320> second = randomActs(rng, 64);

    // The int32 accumulator bank's place in a saved plane, counted
    // from the end: it precedes the fp32 bank, the generation words
    // (2 + kMxmAccDepth) and the three counters.
    const std::size_t bank =
        std::size_t{kMxmAccDepth} * kMxmDim * sizeof(std::int32_t);
    const std::size_t tail =
        2 * bank + (2 + std::size_t{kMxmAccDepth} + 3) * sizeof(std::uint64_t);
    const auto savedAcc = [&](const std::vector<std::uint8_t> &blob,
                              int index, int row) {
        const std::size_t at = blob.size() - tail +
                               (static_cast<std::size_t>(index) * kMxmDim +
                                static_cast<std::size_t>(row)) *
                                   sizeof(std::uint32_t);
        std::uint32_t u = 0;
        for (int b = 0; b < 4; ++b)
            u |= static_cast<std::uint32_t>(blob[at + static_cast<std::size_t>(b)])
                 << (8 * b);
        return u;
    };

    for (const bool accumulate : {false, true}) {
        SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
        std::vector<std::vector<std::uint32_t>> before, after;
        for (int j = 0; j < 64; ++j) {
            const std::size_t i = static_cast<std::size_t>(j);
            before.push_back(hostMatvec(w, first[i]));
            after.push_back(hostMatvec(w, second[i]));
            if (accumulate) {
                for (int r = 0; r < kMxmDim; ++r) {
                    after.back()[static_cast<std::size_t>(r)] +=
                        before.back()[static_cast<std::size_t>(r)];
                }
            }
        }

        MxmHarness live;
        live.loadWeights(w);
        live.issueAbc(64, /*accumulate=*/false);
        for (const Vec320 &a : first)
            live.stepWith(&a);
        live.issueAbc(64, accumulate);
        std::vector<std::vector<std::uint8_t>> cuts;
        for (int t = 0; t <= 64; ++t) {
            cuts.push_back(live.save());
            if (t < 64)
                live.stepWith(&second[static_cast<std::size_t>(t)]);
        }
        live.issueAcc(64);
        live.finishDrains();
        ASSERT_EQ(live.drained_, after);

        for (int t = 0; t <= 64; ++t) {
            const std::vector<std::uint8_t> &blob =
                cuts[static_cast<std::size_t>(t)];
            for (int i = 0; i < 64; ++i) {
                const auto &want = i < t ? after : before;
                for (int r = 0; r < kMxmDim; ++r) {
                    ASSERT_EQ(savedAcc(blob, i, r),
                              want[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(r)])
                        << "cut " << t << " index " << i << " row " << r;
                }
            }
            MxmHarness resumed;
            resumed.restore(blob);
            for (int j = t; j < 64; ++j)
                resumed.stepWith(&second[static_cast<std::size_t>(j)]);
            resumed.issueAcc(64);
            resumed.finishDrains();
            ASSERT_EQ(resumed.drained_, after) << "cut " << t;
            EXPECT_EQ(resumed.plane_.maccOps(), live.plane_.maccOps())
                << "cut " << t;
            EXPECT_EQ(resumed.plane_.activeCycles(),
                      live.plane_.activeCycles())
                << "cut " << t;
        }
    }
}

} // namespace
} // namespace tsp
