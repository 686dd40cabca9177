/**
 * @file
 * Differential tests for chip snapshot/restore: serialize the full
 * architectural state mid-run, restore it onto a freshly built chip,
 * run to completion, and require the result to be indistinguishable
 * from an uninterrupted run — same clock, same stats() counters
 * (including ECC corrections), same memory bytes, same energy — with
 * fault injection live, across the per-cycle and fast-forward tiers
 * in every source/destination combination. Also covers the format
 * itself (round trip, corruption rejection), the quiesce/refusal
 * rules, the fault-seed restore policy (same seed resumes the RNG
 * streams; a migration seed keeps fresh ones), pod snapshots with
 * in-flight C2C traffic, and the session-level periodic-snapshot +
 * migrate-and-resume path, and a compiled net cut at every cycle of
 * an MXM window whose int8 ticks are still pending.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "c2c/collective.hh"
#include "common/cpu.hh"
#include "common/rng.hh"
#include "common/snapshot_io.hh"
#include "graph/graph.hh"
#include "isa/assembler.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "icu/queue.hh"
#include "sim/chip.hh"
#include "sim/snapshot.hh"

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

/**
 * A fault environment that is live but survivable: random strikes on
 * MEM ports (all correctable) plus one scheduled single-bit flip on
 * the first input word, latent in memory until its read corrects it.
 */
ChipConfig
faultConfigFor(bool fast_forward)
{
    ChipConfig cfg = configFor(fast_forward);
    cfg.fault.seed = 0xabcdull;
    cfg.fault.memReadRate = 0.25;
    cfg.fault.memWriteRate = 0.25;
    cfg.fault.doubleBitFraction = 0.0;
    cfg.fault.events = {{1, 0, 0x5, 0, 1}};
    return cfg;
}

/**
 * The Table I read->add->write program with ~1000-cycle leading NOP
 * spans (every queue shifted by the same constant, so the stream
 * timing still lines up): long provably idle regions for snapshot
 * cuts inside fast-forwarded spans, and enough runway that cycle
 * 1015 is past the reads but before retirement.
 */
const char *const kProgram = "@MEM_W0:\n"
                             "    nop 1010\n"
                             "    read 0x5, s16.e\n"
                             "@MEM_W1:\n"
                             "    nop 1009\n"
                             "    read 0x6, s17.e\n"
                             "@MEM_W2:\n"
                             "    nop 1017\n"
                             "    write 0x7, s29.w\n"
                             "@VXM0:\n"
                             "    nop 1013\n"
                             "    add.sat s16.e, s17.e, s29.w\n";

AsmProgram
program()
{
    const AsmResult r = assemble(kProgram);
    EXPECT_TRUE(r.ok) << r.error;
    return r.program;
}

void
seedInputs(Chip &chip)
{
    chip.mem(Hemisphere::West, 0).backdoorWrite(0x5, fill(30));
    chip.mem(Hemisphere::West, 1).backdoorWrite(0x6, fill(40));
}

/**
 * Asserts two completed chips are indistinguishable: clock, stats(),
 * energy, the result word and a byte-for-byte diff of both chips'
 * serialized state — the full MEM image (data + check bits), fabric,
 * unit latches, counters and RNG streams. Energy is a function of
 * those counters, so the diff holds across execution tiers too.
 */
void
expectChipsIdentical(const Chip &a, const Chip &b)
{
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.stats().all(), b.stats().all());
    EXPECT_EQ(a.power().cycles(), b.power().cycles());
    EXPECT_EQ(a.power().totalEnergyJ(), b.power().totalEnergyJ());
    const Vec320 ra =
        a.mem(Hemisphere::West, 2).backdoorRead(0x7);
    const Vec320 rb =
        b.mem(Hemisphere::West, 2).backdoorRead(0x7);
    EXPECT_EQ(ra.bytes, rb.bytes);
    ChipSnapshot sa, sb;
    std::string err;
    ASSERT_TRUE(a.snapshot(sa, &err)) << err;
    ASSERT_TRUE(b.snapshot(sb, &err)) << err;
    EXPECT_EQ(sa.payload, sb.payload);
    EXPECT_EQ(sa.serialize(), sb.serialize());
}

/** (source tier, destination tier, cut cycle). */
using MatrixParam = std::tuple<bool, bool, Cycle>;

class SnapshotMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(SnapshotMatrix, MidRunRestoreMatchesUninterruptedRun)
{
    const auto [src_ff, dst_ff, cut] = GetParam();
    const AsmProgram prog = program();

    // Reference: uninterrupted run on the destination tier.
    Chip ref(faultConfigFor(dst_ff));
    seedInputs(ref);
    ref.loadProgram(prog);
    ref.run();

    // Source: run to the cut (inside an idle span for the early cut,
    // past the fault-corrected reads for the late one), snapshot.
    Chip src(faultConfigFor(src_ff));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(cut));
    ASSERT_EQ(src.now(), cut);
    ChipSnapshot snap;
    std::string err;
    ASSERT_TRUE(src.snapshot(snap, &err)) << err;
    EXPECT_EQ(snap.cycle, cut);

    // Wire round trip: the restored snapshot is the deserialized one.
    const std::vector<std::uint8_t> bytes = snap.serialize();
    ChipSnapshot wire;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          wire, &err))
        << err;
    EXPECT_EQ(wire.payload, snap.payload);
    EXPECT_EQ(wire.cycle, snap.cycle);

    // Destination: fresh chip, same program, no seeded inputs —
    // restore() must reproduce every byte of memory on its own.
    Chip dst(faultConfigFor(dst_ff));
    dst.loadProgram(prog);
    ASSERT_TRUE(dst.restore(wire, &err)) << err;
    EXPECT_EQ(dst.now(), cut);
    dst.run();
    expectChipsIdentical(ref, dst);

    // The scheduled single-bit flip (and the random strikes) must
    // have been corrected identically on both paths.
    EXPECT_EQ(ref.stats().get("ecc_corrected"),
              dst.stats().get("ecc_corrected"));
    EXPECT_GE(ref.stats().get("ecc_corrected"), 1u);
    EXPECT_FALSE(dst.machineCheck());
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, SnapshotMatrix,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       // 500: inside the fast-forwardable idle span,
                       // before the latent flip is read. 1015: past
                       // the reads, corrections already recorded.
                       ::testing::Values<Cycle>(500, 1015)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "ff" : "cyc") +
               "_to_" + (std::get<1>(info.param) ? "ff" : "cyc") +
               "_cut" + std::to_string(std::get<2>(info.param));
    });

TEST(Snapshot, SerializeRejectsCorruption)
{
    Chip chip(configFor(false));
    seedInputs(chip);
    chip.loadProgram(program());
    EXPECT_FALSE(chip.runBounded(400));

    ChipSnapshot snap;
    ASSERT_TRUE(chip.snapshot(snap));
    std::vector<std::uint8_t> bytes = snap.serialize();

    ChipSnapshot out;
    std::string err;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          out, &err));

    // A flipped payload byte fails the content hash.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_FALSE(ChipSnapshot::deserialize(
        flipped.data(), flipped.size(), out, &err));
    EXPECT_NE(err.find("hash"), std::string::npos);

    // Truncation and trailing garbage are both rejected.
    EXPECT_FALSE(ChipSnapshot::deserialize(
        bytes.data(), bytes.size() - 5, out, &err));
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(ChipSnapshot::deserialize(
        extended.data(), extended.size(), out, &err));

    // Bad magic.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(ChipSnapshot::deserialize(bad.data(), bad.size(),
                                           out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos);
}

TEST(Snapshot, RestoreRefusesMismatches)
{
    const AsmProgram prog = program();
    Chip src(faultConfigFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(400));
    ChipSnapshot snap;
    ASSERT_TRUE(src.snapshot(snap));
    std::string err;

    {
        // No program loaded: content hash cannot match.
        Chip dst(faultConfigFor(false));
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("program"), std::string::npos);
    }
    {
        // Different chip configuration (lax stream checks).
        ChipConfig cfg = faultConfigFor(false);
        cfg.strictStreams = false;
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("configuration"), std::string::npos);
    }
    {
        // Different fault environment: a changed rate refuses...
        ChipConfig cfg = faultConfigFor(false);
        cfg.fault.memReadRate = 0.5;
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
        EXPECT_NE(err.find("fault environment"), std::string::npos);
    }
    {
        // ...as does an extra scheduled event...
        ChipConfig cfg = faultConfigFor(false);
        cfg.fault.events.push_back({2000, 3, 0x9, 1, 2});
        Chip dst(cfg);
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
    }
    {
        // ...and a chip with injection off entirely.
        Chip dst(configFor(false));
        dst.loadProgram(prog);
        EXPECT_FALSE(dst.restore(snap, &err));
    }
}

TEST(Snapshot, RestoreRefusesCraftedNotifyCount)
{
    // A blob whose barrier notify count is patched to 2^61 still
    // deserializes (serialize() recomputes the content hash), so
    // restore() itself must refuse it rather than size anything by
    // the count.
    const AsmProgram prog = program();
    Chip src(configFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(400));
    ChipSnapshot snap;
    ASSERT_TRUE(src.snapshot(snap));

    // The payload opens with the fabric's state, then the barrier's
    // notify count.
    SnapshotWriter fabric;
    src.fabric().saveState(fabric);
    const std::size_t at = fabric.size();
    ASSERT_LE(at + 8, snap.payload.size());
    const std::uint64_t count = std::uint64_t{1} << 61;
    for (int i = 0; i < 8; ++i) {
        snap.payload[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(count >> (8 * i));
    }
    const std::vector<std::uint8_t> bytes = snap.serialize();
    ChipSnapshot crafted;
    std::string err;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          crafted, &err))
        << err;

    // The target is mid-run, so a partial decode would show. A
    // refused restore must leave every byte of its state as it was.
    Chip dst(configFor(false));
    seedInputs(dst);
    dst.loadProgram(prog);
    EXPECT_FALSE(dst.runBounded(100));
    ChipSnapshot before;
    ASSERT_TRUE(dst.snapshot(before, &err)) << err;
    EXPECT_FALSE(dst.restore(crafted, &err));
    EXPECT_NE(err.find("restore:"), std::string::npos) << err;
    ChipSnapshot after;
    ASSERT_TRUE(dst.snapshot(after, &err)) << err;
    EXPECT_EQ(after.serialize(), before.serialize());

    // And it still runs to the same end as an untouched chip.
    Chip ref(configFor(false));
    seedInputs(ref);
    ref.loadProgram(prog);
    ref.run();
    dst.run();
    expectChipsIdentical(ref, dst);
}

TEST(Snapshot, RestoreRefusesMismatchedHeaderCycle)
{
    // The header's cycle travels outside the payload hash: a blob
    // whose header disagrees with the decoded clock is refused, and
    // the target is left untouched.
    const AsmProgram prog = program();
    Chip src(configFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(400));
    ChipSnapshot snap;
    std::string err;
    ASSERT_TRUE(src.snapshot(snap, &err)) << err;
    snap.cycle = 401;
    const std::vector<std::uint8_t> bytes = snap.serialize();
    ChipSnapshot crafted;
    ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(), bytes.size(),
                                          crafted, &err))
        << err;

    Chip dst(configFor(false));
    dst.loadProgram(prog);
    ChipSnapshot before;
    ASSERT_TRUE(dst.snapshot(before, &err)) << err;
    EXPECT_FALSE(dst.restore(crafted, &err));
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;
    ChipSnapshot after;
    ASSERT_TRUE(dst.snapshot(after, &err)) << err;
    EXPECT_EQ(after.serialize(), before.serialize());
}

TEST(Snapshot, RestoreOntoRetiredChipResumes)
{
    // A chip that already ran the program to the end has no queue
    // left to visit; restoring a mid-run snapshot onto it must bring
    // the restored queues back into every per-cycle scan.
    const AsmProgram prog = program();
    for (const bool ff : {false, true}) {
        SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
        Chip ref(configFor(ff));
        seedInputs(ref);
        ref.loadProgram(prog);
        ref.run();

        Chip src(configFor(ff));
        seedInputs(src);
        src.loadProgram(prog);
        EXPECT_FALSE(src.runBounded(1012));
        ChipSnapshot snap;
        std::string err;
        ASSERT_TRUE(src.snapshot(snap, &err)) << err;

        Chip dst(configFor(ff));
        dst.loadProgram(prog);
        dst.run();
        ASSERT_TRUE(dst.done());
        ASSERT_TRUE(dst.restore(snap, &err)) << err;
        EXPECT_FALSE(dst.done());
        dst.run();
        expectChipsIdentical(ref, dst);
    }
}

TEST(Snapshot, DifferentFaultSeedRestoresWithFreshStreams)
{
    // Migration semantics: a rebuilt chip draws a different fault
    // seed, and restore() must accept it (same environment) while
    // keeping the fresh RNG streams — but still resume the scheduled
    // event cursor. All strikes here are correctable, so the data
    // path must be byte-identical to the same-seed continuation even
    // though the random upset history differs.
    const AsmProgram prog = program();
    Chip src(faultConfigFor(false));
    seedInputs(src);
    src.loadProgram(prog);
    EXPECT_FALSE(src.runBounded(500));
    ChipSnapshot snap;
    ASSERT_TRUE(src.snapshot(snap));

    Chip same(faultConfigFor(false));
    same.loadProgram(prog);
    ChipConfig other_cfg = faultConfigFor(false);
    other_cfg.fault.seed = 0x1234ull;
    Chip other(other_cfg);
    other.loadProgram(prog);

    std::string err;
    ASSERT_TRUE(same.restore(snap, &err)) << err;
    ASSERT_TRUE(other.restore(snap, &err)) << err;
    same.run();
    other.run();

    EXPECT_EQ(same.now(), other.now());
    EXPECT_FALSE(other.machineCheck());
    // The scheduled flip landed before the cut; both continuations
    // correct it on the read.
    EXPECT_GE(other.stats().get("ecc_corrected"), 1u);
    const Vec320 a = same.mem(Hemisphere::West, 2).backdoorRead(0x7);
    const Vec320 b = other.mem(Hemisphere::West, 2).backdoorRead(0x7);
    EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Snapshot, RefusesWhileReplaying)
{
    // A replay routes stream traffic through a tape a snapshot cannot
    // see: the chip refuses to capture or restore until it ends.
    struct Tape final : TapeReplayer
    {
        Vec320 slot;
        Vec320 *onProduce() override { return &slot; }
        void
        onConsumeRun(const Vec320 **outs, std::size_t n) override
        {
            std::fill(outs, outs + n, nullptr);
        }
    } tape;
    Chip chip(configFor(false));
    seedInputs(chip);
    chip.loadProgram(program());
    ChipSnapshot snap;
    std::string err;
    ASSERT_TRUE(chip.snapshot(snap, &err)) << err;
    chip.beginReplay(&tape);
    EXPECT_FALSE(chip.snapshot(snap, &err));
    EXPECT_NE(err.find("replay in progress"), std::string::npos);
    EXPECT_FALSE(chip.restore(snap, &err));
    EXPECT_NE(err.find("replay in progress"), std::string::npos);
}

TEST(PodSnapshot, RestoreWithInFlightC2cTraffic)
{
    // Snapshot a pod mid-collective, at a cut where at least one
    // ring link has vectors in flight, restore onto a fresh pod and
    // require the finished all-reduce to match the uninterrupted
    // pod byte-for-byte.
    constexpr int kChips = 3;
    constexpr Cycle kWire = 17;
    Pod ref(kChips, kWire);
    Pod pod2(kChips, kWire);

    Rng rng(99);
    for (int c = 0; c < kChips; ++c) {
        Vec320 v;
        for (int l = 0; l < kLanes; ++l)
            v.bytes[static_cast<std::size_t>(l)] =
                static_cast<std::uint8_t>(rng.intIn(-90, 90));
        ref.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr, v);
    }

    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(ref, sched);
    std::vector<AsmProgram> progs;
    for (auto &p : sched)
        progs.push_back(p.toAsm());
    for (int c = 0; c < kChips; ++c) {
        ref.chip(c).loadProgram(progs[static_cast<std::size_t>(c)]);
        pod2.chip(c).loadProgram(progs[static_cast<std::size_t>(c)]);
    }

    // Step until some link has undelivered flight.
    bool in_flight = false;
    for (Cycle t = 0; t < 100'000 && !in_flight; ++t) {
        ref.stepAll();
        for (int c = 0; c < kChips && !in_flight; ++c)
            for (int l = 0; l < 2; ++l)
                in_flight |= ref.chip(c).c2c().pendingRx(l) > 0;
    }
    ASSERT_TRUE(in_flight);
    ASSERT_FALSE(ref.allDone());

    PodSnapshot snap;
    std::string err;
    ASSERT_TRUE(ref.snapshot(snap, &err)) << err;
    ASSERT_TRUE(pod2.restore(snap, &err)) << err;

    ref.runAll();
    pod2.runAll();

    for (int c = 0; c < kChips; ++c) {
        const Chip &a = ref.chip(c);
        const Chip &b = pod2.chip(c);
        EXPECT_EQ(a.now(), b.now()) << "chip " << c;
        EXPECT_EQ(a.stats().all(), b.stats().all()) << "chip " << c;
        const Vec320 ra =
            a.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        const Vec320 rb =
            b.mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorRead(AllReducePlan::kResultAddr);
        EXPECT_EQ(ra.bytes, rb.bytes) << "chip " << c;
        ChipSnapshot sa, sb;
        ASSERT_TRUE(a.snapshot(sa, &err)) << err;
        ASSERT_TRUE(b.snapshot(sb, &err)) << err;
        EXPECT_EQ(sa.payload, sb.payload) << "chip " << c;
    }

    // Size mismatch refuses.
    Pod small(2, kWire);
    EXPECT_FALSE(small.restore(snap, &err));
}

constexpr Cycle kRingWire = 17;

/** Correctable faults on every path the all-reduce uses. */
ChipConfig
ringFaultConfig()
{
    ChipConfig cfg;
    cfg.fault.seed = 0x5eedull;
    cfg.fault.memReadRate = 0.05;
    cfg.fault.streamRate = 0.02;
    cfg.fault.c2cRate = 0.5;
    cfg.fault.doubleBitFraction = 0.0;
    return cfg;
}

/** The batch-4 ring all-reduce's per-chip programs. */
std::vector<SharedProgram>
ringPrograms(const Pod &pod)
{
    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(pod, sched, /*batch=*/4);
    std::vector<SharedProgram> progs;
    for (auto &p : sched)
        progs.emplace_back(p.toAsm());
    return progs;
}

TEST(PodSnapshot, RestoreRefusesTruncatedPayloads)
{
    // A 2-chip batch-4 all-reduce with faults live, snapshotted every
    // 40 cycles; its last snapshot is cut short at seeded points, one
    // member at a time. Every cut must be refused (the unit decoders
    // read a short payload as zeros, which must not trip an assert or
    // index anything), and the target must stay restorable.
    InferenceSession sess(2, kRingWire, ringFaultConfig());
    sess.bind(ringPrograms(sess.pod()));
    sess.reset();
    Rng data(3);
    for (int c = 0; c < 2; ++c) {
        for (int s = 0; s < 4; ++s) {
            Vec320 v;
            for (auto &b : v.bytes)
                b = static_cast<std::uint8_t>(data.intIn(-90, 90));
            sess.pod()
                .chip(c)
                .mem(Hemisphere::East, AllReducePlan::kSlice)
                .backdoorWrite(
                    static_cast<MemAddr>(AllReducePlan::kLocalAddr + s), v);
        }
    }
    sess.enableSnapshots(40);
    ASSERT_TRUE(sess.runBounded().completed);
    ASSERT_NE(sess.lastSnapshot(), nullptr);
    const PodSnapshot &snap = *sess.lastSnapshot();

    Pod dst(2, kRingWire, ringFaultConfig());
    const std::vector<SharedProgram> progs = ringPrograms(dst);
    for (int c = 0; c < 2; ++c)
        dst.chip(c).loadProgram(progs[static_cast<std::size_t>(c)]);
    PodSnapshot cut = snap;
    Rng rng(11);
    std::string err;
    for (int i = 0; i < 120; ++i) {
        const std::size_t c = static_cast<std::size_t>(i % 2);
        const std::vector<std::uint8_t> &full = snap.chips[c].payload;
        const std::size_t n = rng.nextBelow(full.size());
        SCOPED_TRACE(testing::Message() << "chip " << c << " cut " << n);
        cut.chips[c].payload.assign(full.begin(),
                                    full.begin() + static_cast<long>(n));
        EXPECT_FALSE(dst.restore(cut, &err));
        EXPECT_NE(err.find("restore:"), std::string::npos) << err;
        cut.chips[c].payload = full;
    }
    ASSERT_TRUE(dst.restore(snap, &err)) << err;
}

/** Overwrites the @p width-byte little-endian field at @p at. */
void
patch(std::vector<std::uint8_t> &buf, std::size_t at, std::uint64_t v,
      int width)
{
    ASSERT_LE(at + static_cast<std::size_t>(width), buf.size());
    for (int i = 0; i < width; ++i)
        buf[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * @return true when @p unit's loadState() reads all of @p buf and
 * leaves the reader good (false: the decoder refused).
 */
template <typename Unit>
bool
loads(Unit &unit, const std::vector<std::uint8_t> &buf)
{
    SnapshotReader r(buf);
    unit.loadState(r);
    return r.atEnd();
}

/** Bytes of a StreamIo's saved counters. */
constexpr std::size_t kIoBytes = 5 * 8;

TEST(Snapshot, FabricDecoderRefusesOutOfRangeFields)
{
    // Two live entries on ring s0.e, then one pending write: the
    // saved fields are at fixed offsets (clock, then per ring a count
    // and its entries, then the pending list and the valid count).
    constexpr std::size_t kVec = kLanes + 2 * kSuperlanes;
    constexpr std::size_t kEntryBytes = 2 + 8 + kVec;
    constexpr std::size_t kSlot = 8 + 4;
    constexpr std::size_t kPending =
        8 + 2 * kStreamsPerDir * 4 + 2 * kEntryBytes;
    constexpr std::size_t kWhen = kPending + 8;
    constexpr std::size_t kValid = kWhen + 8 + 1 + 1 + 4 + kVec;
    StreamFabric src;
    src.write({0, Direction::East}, 3, fill(1));
    src.write({0, Direction::East}, 4, fill(1));
    src.scheduleWrite({5, Direction::West}, 7, fill(2), /*when=*/4);
    SnapshotWriter w;
    src.saveState(w);
    const std::vector<std::uint8_t> good = w.take();
    StreamFabric dst;
    ASSERT_TRUE(loads(dst, good));
    const std::uint64_t first_slot = good[kSlot] | (good[kSlot + 1] << 8);

    const struct
    {
        const char *field;
        std::size_t at;
        std::uint64_t value;
        int width;
    } cases[] = {
        {"ring slot", kSlot, Layout::numPositions, 2},
        {"ring slot twice", kSlot + kEntryBytes, first_slot, 2},
        {"valid count", kValid, 3, 8},
        {"pending when = now", kWhen, 0, 8},
        {"pending when past the calendar", kWhen, 1000, 8},
        {"pending stream id", kWhen + 8, kStreamsPerDir, 1},
        {"pending position", kWhen + 10, Layout::numPositions, 4},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.field);
        std::vector<std::uint8_t> bad = good;
        patch(bad, c.at, c.value, c.width);
        StreamFabric f;
        EXPECT_FALSE(loads(f, bad));
    }
}

TEST(Snapshot, UnitDecodersRefuseOutOfRangeFields)
{
    ChipConfig cfg;
    StreamFabric fabric;
    {
        // Queue: the Repeat target indexes the loaded program.
        const std::vector<Instruction> prog(3);
        BarrierController barrier;
        InstructionQueue q(IcuId{0}, barrier);
        q.loadProgram(prog);
        SnapshotWriter w;
        q.saveState(w);
        std::vector<std::uint8_t> buf = w.take();
        ASSERT_TRUE(loads(q, buf));
        constexpr std::size_t kRepeat = 8 + 8 + 1 + 8;
        std::vector<std::uint8_t> bad = buf;
        patch(bad, kRepeat, prog.size(), 8);
        EXPECT_FALSE(loads(q, bad));
        // Re-issues pending with no Repeat target saved.
        bad = buf;
        patch(bad, kRepeat + 8, 2, 4);
        EXPECT_FALSE(loads(q, bad));
    }
    {
        // Fault injector: link streams for no link or for all.
        ChipConfig fcfg;
        fcfg.fault.c2cRate = 0.5;
        FaultInjector fi(fcfg.fault);
        SnapshotWriter w;
        fi.saveState(w);
        std::vector<std::uint8_t> buf = w.take();
        {
            SnapshotReader r(buf);
            fi.loadState(r, /*restore_rng=*/true);
            ASSERT_TRUE(r.atEnd());
        }
        patch(buf, /*link count=*/Rng::kStateWords * 8, 1, 4);
        SnapshotReader r(buf);
        fi.loadState(r, true);
        EXPECT_FALSE(r.ok());
    }
    {
        // C2C: the link count must match the wiring.
        C2cModule c2c(cfg, fabric);
        SnapshotWriter w;
        c2c.saveState(w);
        std::vector<std::uint8_t> buf = w.take();
        ASSERT_TRUE(loads(c2c, buf));
        patch(buf, kIoBytes, kC2cLinks + 1, 4);
        EXPECT_FALSE(loads(c2c, buf));
    }
    {
        // MEM: a stored word's index within its bank.
        MemSlice m(Hemisphere::West, 0);
        m.backdoorWrite(0x5, fill(3));
        SnapshotWriter w;
        m.saveState(w);
        std::vector<std::uint8_t> buf = w.take();
        ASSERT_TRUE(loads(m, buf));
        patch(buf, /*first word's index=*/4, kMemWordsPerSlice / 2, 4);
        EXPECT_FALSE(loads(m, buf));
    }
    {
        // MXM: the fill row and the sequencer windows, which index
        // the weight rows and the depth-64 accumulator bank.
        MxmPlane plane(0, cfg, fabric);
        SnapshotWriter w;
        plane.saveState(w);
        const std::vector<std::uint8_t> good = w.take();
        ASSERT_TRUE(loads(plane, good));
        constexpr std::size_t kFill =
            kIoBytes + 6 * std::size_t{kMxmDim} * kMxmDim;
        constexpr std::size_t kAbc = kFill + 4 + 2;
        constexpr std::size_t kAcc = kAbc + 1 + 2 + 4 + 4 + 1 + 1;
        const struct
        {
            const char *field;
            std::size_t at;
            std::uint64_t value;
            int width;
        } cases[] = {
            {"fill row", kFill, kMxmDim + 1, 4},
            {"ABC index", kAbc + 7, kMxmAccDepth + 1, 4},
            {"ABC stream", kAbc + 1, kStreamsPerDir, 1},
            {"ACC index", kAcc + 7, kMxmAccDepth + 5, 4},
            {"ACC stream", kAcc + 1, 2, 1},
        };
        for (const auto &c : cases) {
            SCOPED_TRACE(c.field);
            std::vector<std::uint8_t> bad = good;
            patch(bad, c.at, c.value, c.width);
            MxmPlane p(1, cfg, fabric);
            EXPECT_FALSE(loads(p, bad));
        }
    }
}

/** Compiled tiny network for the session-level tests. */
struct Compiled
{
    Graph g;
    Lowering lw{true};
    std::map<int, LoweredTensor> tensors;

    Compiled() : g(model::buildTinyNet(3, 8, 8, 4))
    {
        tensors = g.lower(lw, input());
    }

    static std::vector<std::int8_t>
    input()
    {
        Rng rng(7);
        std::vector<std::int8_t> data(8 * 8 * 4);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        return data;
    }

    const LoweredTensor &in() const { return tensors.at(0); }
    const LoweredTensor &
    out() const
    {
        return tensors.at(g.outputNode());
    }
};

/** @return the bytes of @p t on @p chip, read from its SRAM. */
std::vector<std::uint8_t>
tensorBytes(const Chip &chip, const LoweredTensor &t)
{
    const ActTensor &at = t.t;
    std::vector<std::uint8_t> bytes;
    for (int y = 0; y < at.height; ++y) {
        for (int x = 0; x < at.width; ++x) {
            for (int kg = 0; kg < at.kgCount; ++kg) {
                const GlobalAddr a = at.addrOf(at.ownerOf(y), y, x, kg);
                const Vec320 v = chip.mem(a.hem, a.slice).backdoorRead(a.addr);
                bytes.insert(bytes.end(), v.bytes.begin(), v.bytes.end());
            }
        }
    }
    return bytes;
}

TEST(Snapshot, CutsInsideAnAbcWindowResume)
{
    // The MXM defers an int8 window's arithmetic to its last tick, so
    // a cut inside the window meets pending ticks, which the snapshot
    // writes settled. Cut the tiny net at every cycle of its first
    // ABC window (and one either side), on both stepping tiers:
    // restored on a fresh chip, each cut must finish exactly as the
    // uninterrupted run — and so must the source chip, which the
    // snapshots must not disturb.
    Compiled m;
    const SharedProgram prog = m.lw.assembled();
    const auto start = [&](Chip &chip) {
        chip.loadProgram(prog);
        m.lw.image().applyTo(chip);
    };
    for (const bool ff : {false, true}) {
        SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
        const ChipConfig cfg = configFor(ff);
        Chip ref(cfg);
        start(ref);
        ref.run();
        ChipSnapshot want;
        std::string err;
        ASSERT_TRUE(ref.snapshot(want, &err)) << err;
        const std::vector<std::uint8_t> out = tensorBytes(ref, m.out());

        // The first window: the first cycle a plane ticks, through
        // the cycle its sequencer goes idle again.
        Chip probe(cfg);
        start(probe);
        const auto ticks = [&probe] {
            std::uint64_t n = 0;
            for (int p = 0; p < kMxmPlanes; ++p)
                n += probe.mxm(p).activeCycles();
            return n;
        };
        while (ticks() == 0)
            ASSERT_FALSE(probe.runBounded(probe.now() + 1));
        const Cycle first = probe.now() - 1;
        int plane = 0;
        while (!probe.mxm(plane).abcActive() && plane + 1 < kMxmPlanes)
            ++plane;
        while (probe.mxm(plane).abcActive())
            ASSERT_FALSE(probe.runBounded(probe.now() + 1));
        const Cycle end = probe.now();
        ASSERT_GT(end - first, 4u) << "window too short to cut inside";

        const auto expectFinished = [&](const Chip &c) {
            EXPECT_EQ(c.now(), ref.now());
            EXPECT_EQ(c.stats().all(), ref.stats().all());
            EXPECT_EQ(c.power().totalEnergyJ(), ref.power().totalEnergyJ());
            EXPECT_EQ(tensorBytes(c, m.out()), out);
            ChipSnapshot got;
            ASSERT_TRUE(c.snapshot(got, &err)) << err;
            EXPECT_EQ(got.payload, want.payload);
        };
        Chip src(cfg);
        start(src);
        for (Cycle cut = first - 1; cut <= end + 1; ++cut) {
            SCOPED_TRACE("cut " + std::to_string(cut));
            ASSERT_FALSE(src.runBounded(cut));
            ChipSnapshot snap;
            ASSERT_TRUE(src.snapshot(snap, &err)) << err;
            Chip dst(cfg);
            dst.loadProgram(prog);
            ASSERT_TRUE(dst.restore(snap, &err)) << err;
            dst.run();
            expectFinished(dst);
        }
        src.run();
        expectFinished(src);
    }
}

/** @return the 64-bit FNV-1a hash of @p bytes. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Snapshot, SerializedBytesArePinned)
{
    // The framed snapshot of the tiny net, cut where values are
    // flowing on the fabric and writes are still pending, is pinned
    // byte for byte (version 3: the fabric's entries and pending
    // writes carry no produce tags): the fabric's saved entries and calendar, and
    // what a restore reads back, do not depend on how the fabric
    // stores its values. Both kernel tiers and both stepping tiers
    // must give the same bytes.
    Compiled m;
    const SharedProgram prog = m.lw.assembled();
    const struct
    {
        Cycle cut;
        std::uint64_t hash;
    } pins[] = {
        {150, 0xd674d121c9ed7d65ull},
        {227, 0x928f75e89308e152ull},
        {480, 0x7f3c2931080870a4ull},
        {627, 0xc83e354da4160ceaull},
    };
    for (const int force_scalar : {1, 0}) {
        forceScalarKernels(force_scalar);
        for (const bool ff : {false, true}) {
            SCOPED_TRACE(std::string(force_scalar ? "scalar" : "simd") +
                         (ff ? ", fast-forward" : ", per-cycle"));
            Chip chip(configFor(ff));
            chip.loadProgram(prog);
            m.lw.image().applyTo(chip);
            for (const auto &pin : pins) {
                SCOPED_TRACE("cut " + std::to_string(pin.cut));
                ASSERT_FALSE(chip.runBounded(pin.cut));
                EXPECT_GT(chip.fabric().validEntries(), 0u);
                EXPECT_GT(chip.fabric().pendingWrites(), 0u);
                ChipSnapshot snap;
                std::string err;
                ASSERT_TRUE(chip.snapshot(snap, &err)) << err;
                EXPECT_EQ(fnv1a(snap.serialize()), pin.hash);
                ChipSnapshot back;
                const std::vector<std::uint8_t> bytes = snap.serialize();
                ASSERT_TRUE(ChipSnapshot::deserialize(bytes.data(),
                                                      bytes.size(), back,
                                                      &err))
                    << err;
                Chip dst(configFor(ff));
                dst.loadProgram(prog);
                ASSERT_TRUE(dst.restore(back, &err)) << err;
                ChipSnapshot again;
                ASSERT_TRUE(dst.snapshot(again, &err)) << err;
                EXPECT_EQ(again.payload, snap.payload);
            }
        }
    }
    forceScalarKernels(-1);
}

TEST(SessionSnapshot, PeriodicSnapshotsAreInvisible)
{
    // Chunking a bounded run into snapshot intervals must not perturb
    // the simulation in any observable way.
    Compiled m;
    ChipConfig cfg;
    InferenceSession plain(m.lw, cfg);
    InferenceSession snapped(m.lw, cfg);
    snapped.enableSnapshots(911); // Deliberately unaligned cadence.

    const RunResult a = plain.runBounded();
    const RunResult b = snapped.runBounded();
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(snapped.snapshotCount(), 0u);
    ASSERT_NE(snapped.lastSnapshot(), nullptr);
    EXPECT_EQ(plain.chip().stats().all(),
              snapped.chip().stats().all());
    EXPECT_EQ(plain.readTensor(m.out()).data,
              snapped.readTensor(m.out()).data);

    // reset() drops the stale snapshot: it must never leak into the
    // next batch's migration decisions.
    snapped.reset();
    EXPECT_EQ(snapped.lastSnapshot(), nullptr);
}

TEST(SessionSnapshot, BindDropsTheLastSnapshot)
{
    // A snapshot is of the programs it was taken under. Kept across a
    // bind() to another program, a later migrateAndResume() would
    // restore it onto the wrong one; bind() drops it as reset() does.
    Compiled m;
    Graph g2 = model::buildTinyNet(5, 6, 6, 4);
    Lowering lw2(true);
    g2.lower(lw2, std::vector<std::int8_t>(6 * 6 * 4, 1));
    InferenceSession sess(m.lw, ChipConfig{});
    sess.enableSnapshots(250);
    ASSERT_TRUE(sess.runBounded().completed);
    ASSERT_NE(sess.lastSnapshot(), nullptr);

    sess.bind(lw2, SharedProgram(lw2.program().toAsm(
                       /*with_preamble=*/true)));
    EXPECT_EQ(sess.lastSnapshot(), nullptr);
}

TEST(SessionSnapshot, MigrateAndResumeRecoversMachineCheck)
{
    // Golden output from a fault-free run.
    Compiled m;
    InferenceSession golden(m.lw, ChipConfig{});
    ASSERT_TRUE(golden.runBounded().completed);
    const ref::QTensor want = golden.readTensor(m.out());

    // Random uncorrectable strikes, seed chosen so the first run is
    // condemned; migration restores the last pre-fault snapshot onto
    // a rebuilt chip (fresh seed) and resumes.
    ChipConfig cfg;
    cfg.fault.seed = 0x5151ull;
    cfg.fault.streamRate = 5e-4;
    cfg.fault.doubleBitFraction = 1.0;
    InferenceSession sess(m.lw, cfg);
    sess.enableSnapshots(250);

    RunResult r = sess.runBounded();
    ASSERT_EQ(r.status, RunStatus::MachineCheck)
        << "seed expected to condemn the first run";
    ASSERT_NE(sess.lastSnapshot(), nullptr)
        << "a snapshot must precede the first uncorrectable error";

    int hops = 0;
    while (r.status == RunStatus::MachineCheck &&
           sess.lastSnapshot() != nullptr && hops < 16) {
        r = sess.migrateAndResume();
        ++hops;
    }
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sess.migrations(), 1);
    EXPECT_EQ(sess.rebuilds(), sess.migrations());
    // The resumed computation must finish with the correct bytes.
    EXPECT_EQ(sess.readTensor(m.out()).data, want.data);
}

TEST(SessionSnapshot, MachineCheckReportsWhereAMigrationResumes)
{
    // RunResult::resumeAt is the program cycle a migration continues
    // from — the last clean snapshot's — so a caller can book the
    // cycles still to run before it migrates.
    Compiled m;
    InferenceSession golden(m.lw, ChipConfig{});
    const RunResult clean = golden.runBounded();
    ASSERT_TRUE(clean.completed);

    ChipConfig cfg;
    cfg.fault.seed = 0x5151ull;
    cfg.fault.streamRate = 5e-4;
    cfg.fault.doubleBitFraction = 1.0;

    // No snapshots, nowhere to resume.
    InferenceSession bare(m.lw, cfg);
    const RunResult cold = bare.runBounded();
    ASSERT_EQ(cold.status, RunStatus::MachineCheck);
    EXPECT_EQ(cold.resumeAt, 0u);

    InferenceSession sess(m.lw, cfg);
    sess.enableSnapshots(250);
    RunResult r = sess.runBounded();
    ASSERT_EQ(r.status, RunStatus::MachineCheck);
    ASSERT_NE(sess.lastSnapshot(), nullptr);
    EXPECT_GT(r.resumeAt, 0u);
    EXPECT_EQ(r.resumeAt % 250, 0u);
    EXPECT_EQ(r.resumeAt, sess.lastSnapshot()->chips[0].cycle);
    EXPECT_LT(r.resumeAt, r.cycles);

    // Each migration resumes at the reported cycle and counts its own
    // cycles from there; resume points never move backwards.
    Cycle from = 0;
    int hops = 0;
    while (r.status == RunStatus::MachineCheck && hops < 16) {
        ASSERT_GT(r.resumeAt, 0u);
        EXPECT_GE(r.resumeAt, from);
        EXPECT_EQ(r.resumeAt % 250, 0u);
        EXPECT_EQ(r.resumeAt, sess.lastSnapshot()->chips[0].cycle);
        from = r.resumeAt;
        r = sess.migrateAndResume();
        ++hops;
    }
    ASSERT_TRUE(r.completed);
    EXPECT_GE(hops, 1);
    EXPECT_EQ(from + r.cycles, clean.cycles);
}

} // namespace
} // namespace tsp
