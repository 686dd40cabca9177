/**
 * @file
 * The stepped core against generated ICU microprograms.
 *
 * A seeded generator builds legal programs for 1- and 2-chip pods. A
 * few MEM and VXM queues run read -> VXM op -> write pipelines under
 * exact stream timing (Eq. 4). The gaps between a queue's dispatches
 * are filled with NOP runs, Repeats of spare reads and Syncs released
 * by a notifier queue's Notifies; writes may co-issue with a spare
 * read; some queues end on a trailing NOP, and a few queues run
 * fillers only. On 2-chip pods, vectors also cross the ring by C2C
 * Send/Receive. Each program runs three ways: per-cycle lock-step,
 * fast-forward, and cut by a snapshot at a random cycle, then restored
 * on a fresh pod and run to the end. The three must agree on every
 * chip's stats, clock, energy and written words, and the words must
 * equal the host's arithmetic. Odd seeds run with correctable faults
 * live on every path, so the fault RNG draws are compared too.
 *
 * Every tier steps through Chip::step(), so a queue the chip stopped
 * visiting while it could still act (a trailing NOP still counting,
 * say) would move all three alike. The pinned tests catch that: they
 * hold the exact counters of fixed workloads, recorded before the
 * chip kept a list of live queues.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "c2c/collective.hh"
#include "c2c/pod.hh"
#include "common/rng.hh"
#include "graph/graph.hh"
#include "mem/addr.hh"
#include "model/resnet.hh"
#include "runtime/session.hh"
#include "sim/snapshot.hh"
#include "vxm/alu_ops.hh"

namespace tsp {
namespace {

/** Bank-0 addresses hold sources and spare-read words; results go to
 *  bank 1, so a read and a write may share a cycle on one slice. */
constexpr MemAddr kResultBase = 0x1000;

/** Streams that carry spare reads nobody consumes. */
constexpr StreamId kSpareStreams[] = {30, 31};

/** A word the generator expects to find after the run. */
struct Expect
{
    int chip;
    GlobalAddr at;
    Vec320 want;
};

/** One generated program for every chip of a pod. */
struct PodProgram
{
    int chips = 1;
    Cycle wire = 0;
    ChipConfig cfg;
    std::vector<AsmProgram> programs;
    std::vector<std::vector<std::pair<GlobalAddr, Vec320>>> seeds;
    std::vector<Expect> expects;
};

/** Builds one pod's programs: timed events first, then per-queue
 *  lowering with fillers in the gaps. */
class Generator
{
  public:
    Generator(std::uint64_t seed, int chips) : rng_(seed)
    {
        out_.chips = chips;
        out_.wire = static_cast<Cycle>(rng_.intIn(5, 20));
        if (seed % 2 == 1) {
            out_.cfg.fault.seed = seed;
            out_.cfg.fault.memReadRate = 0.002;
            out_.cfg.fault.memWriteRate = 0.002;
            out_.cfg.fault.streamRate = 0.0005;
            out_.cfg.fault.c2cRate = 0.05;
            out_.cfg.fault.doubleBitFraction = 0.0;
        }
        chips_.resize(static_cast<std::size_t>(chips));
        out_.seeds.resize(static_cast<std::size_t>(chips));
    }

    PodProgram
    build()
    {
        for (int c = 0; c < out_.chips; ++c)
            planChip(c);
        if (out_.chips == 2) {
            for (int c = 0; c < 2; ++c) {
                Instruction deskew;
                deskew.op = Opcode::Deskew;
                commit(c, {{IcuId::c2c(Pod::kRightLink), 0, deskew},
                           {IcuId::c2c(Pod::kLeftLink), 1, deskew}});
            }
        }
        const int rounds = rng_.intIn(1, 6);
        Cycle t = static_cast<Cycle>(rng_.intIn(60, 160));
        for (int r = 0; r < rounds; ++r) {
            pipeline(static_cast<int>(rng_.nextBelow(
                         static_cast<std::uint64_t>(out_.chips))),
                     t);
            t += static_cast<Cycle>(rng_.intIn(3, 90));
        }
        if (out_.chips == 2) {
            const int transfers = rng_.intIn(1, 4);
            // Late enough for a read from any slice to reach the link.
            Cycle next_send[2] = {
                static_cast<Cycle>(rng_.intIn(100, 220)),
                static_cast<Cycle>(rng_.intIn(100, 220))};
            for (int k = 0; k < transfers; ++k) {
                const int from = static_cast<int>(rng_.nextBelow(2));
                auto &s = next_send[static_cast<std::size_t>(from)];
                transfer(from, s);
                s += kC2cSerializationCycles +
                     static_cast<Cycle>(rng_.intIn(0, 60));
            }
        }
        for (int c = 0; c < out_.chips; ++c)
            out_.programs.push_back(lower(c));
        return std::move(out_);
    }

  private:
    struct Event
    {
        IcuId icu;
        Cycle cycle;
        Instruction inst;
    };

    struct ChipState
    {
        std::vector<GlobalAddr> sources; ///< Seeded bank-0 words.
        std::vector<int> slices;         ///< MEM pool (rel. ICU ids).
        IcuId notifier{};
        std::vector<Cycle> notifies;     ///< Sorted Notify cycles.
        std::vector<IcuId> idlers;       ///< Filler-only queues.
        std::map<int, std::map<Cycle, std::vector<Instruction>>> queues;
        MemAddr nextResult = kResultBase;
    };

    ChipState &chip(int c) { return chips_[static_cast<std::size_t>(c)]; }

    GlobalAddr
    poolWord(int c, MemAddr addr)
    {
        const auto &pool = chip(c).slices;
        const int rel = pool[rng_.nextBelow(pool.size())];
        const Hemisphere hem =
            rel < kMemSlicesPerHem ? Hemisphere::West : Hemisphere::East;
        return GlobalAddr{hem, rel % kMemSlicesPerHem, addr};
    }

    /** Picks the chip's MEM pool, source words, notifier and idlers. */
    void
    planChip(int c)
    {
        ChipState &cs = chip(c);
        std::set<int> pool;
        const int n = rng_.intIn(2, 4);
        while (static_cast<int>(pool.size()) < n)
            pool.insert(rng_.intIn(0, kMemSlices - 1));
        cs.slices.assign(pool.begin(), pool.end());

        for (int i = 0; i < 2 * n; ++i) {
            const GlobalAddr a = poolWord(
                c, static_cast<MemAddr>(rng_.nextBelow(kResultBase)));
            Vec320 v;
            for (auto &b : v.bytes)
                b = static_cast<std::uint8_t>(rng_.intIn(-120, 120));
            out_.seeds[static_cast<std::size_t>(c)].emplace_back(a, v);
            cs.sources.push_back(a);
            sourceData_[{c, a.linear()}] = v;
        }

        // The notifier and the filler-only queues sit outside the
        // pipelines' MEM pool and VXM ALUs 0..14.
        cs.notifier = IcuId{IcuId::sxmBase + rng_.intIn(0, 15)};
        const int notifies = rng_.intIn(0, 4);
        std::set<Cycle> times;
        while (static_cast<int>(times.size()) < notifies)
            times.insert(static_cast<Cycle>(rng_.intIn(0, 600)));
        cs.notifies.assign(times.begin(), times.end());
        for (const Cycle at : cs.notifies) {
            Instruction notify;
            notify.op = Opcode::Notify;
            commit(c, {{cs.notifier, at, notify}});
        }
        const int idlers = rng_.intIn(0, 2);
        for (int i = 0; i < idlers; ++i) {
            cs.idlers.push_back(rng_.nextBelow(2)
                                    ? IcuId::vxmAlu(15)
                                    : IcuId{IcuId::mxmBase +
                                            rng_.intIn(0, 7)});
        }
    }

    /** Adds @p events if every queue stays legally booked: one
     *  dispatch per cycle, or a MEM read + write pair. */
    bool
    commit(int c, const std::vector<Event> &events)
    {
        auto &queues = chip(c).queues;
        std::map<std::pair<int, Cycle>, std::vector<Opcode>> added;
        for (const Event &e : events) {
            std::vector<Opcode> ops = added[{e.icu.id, e.cycle}];
            const auto q = queues.find(e.icu.id);
            if (q != queues.end()) {
                const auto at = q->second.find(e.cycle);
                if (at != q->second.end()) {
                    for (const Instruction &i : at->second)
                        ops.push_back(i.op);
                }
            }
            ops.push_back(e.inst.op);
            if (ops.size() > 2)
                return false;
            if (ops.size() == 2 &&
                (e.icu.kind() != SliceKind::MEM || ops[0] == ops[1] ||
                 (ops[0] != Opcode::Read && ops[0] != Opcode::Write) ||
                 (ops[1] != Opcode::Read && ops[1] != Opcode::Write))) {
                return false;
            }
            added[{e.icu.id, e.cycle}].push_back(e.inst.op);
        }
        for (const Event &e : events)
            queues[e.icu.id][e.cycle].push_back(e.inst);
        return true;
    }

    std::optional<StreamId>
    takeStream()
    {
        if (nextStream_ >= kSpareStreams[0])
            return std::nullopt;
        return nextStream_++;
    }

    Event
    readEvent(const GlobalAddr &a, StreamRef s, SlicePos to, Cycle at)
    {
        Instruction rd;
        rd.op = Opcode::Read;
        rd.addr = a.addr;
        rd.dst = s;
        const Cycle lead = opTiming(Opcode::Read).dFunc +
                           Layout::transitDelay(a.pos(), to);
        return {a.icu(), at - lead, rd};
    }

    Event
    writeEvent(const GlobalAddr &a, StreamRef s, Cycle at)
    {
        Instruction wr;
        wr.op = Opcode::Write;
        wr.addr = a.addr;
        wr.srcA = s;
        return {a.icu(), at, wr};
    }

    /** read A, read B -> VXM op at @p t -> write, all on chip @p c. */
    void
    pipeline(int c, Cycle t)
    {
        ChipState &cs = chip(c);
        const GlobalAddr &a = cs.sources[rng_.nextBelow(cs.sources.size())];
        const GlobalAddr &b = cs.sources[rng_.nextBelow(cs.sources.size())];
        if (a.icu().id == b.icu().id)
            return; // One slice cannot read twice in a cycle.
        const auto sa = takeStream(), sb = takeStream(),
                   sd = takeStream();
        if (!sa || !sb || !sd)
            return;
        const Opcode kOps[] = {Opcode::Add, Opcode::AddSat, Opcode::Sub,
                               Opcode::SubSat, Opcode::Mul,
                               Opcode::MulSat, Opcode::Max, Opcode::Min};
        const Opcode op = kOps[rng_.nextBelow(std::size(kOps))];
        const StreamRef ra{*sa, Layout::flowDirection(a.pos(), Layout::vxm)};
        const StreamRef rb{*sb, Layout::flowDirection(b.pos(), Layout::vxm)};
        const GlobalAddr dst = poolWord(c, cs.nextResult);
        const StreamRef rd{*sd,
                           Layout::flowDirection(Layout::vxm, dst.pos())};

        Instruction alu;
        alu.op = op;
        alu.dtype = DType::Int8;
        alu.srcA = ra;
        alu.srcB = rb;
        alu.dst = rd;
        const Cycle vis = t + opTiming(op).dFunc;
        const Cycle w_at = vis + Layout::transitDelay(Layout::vxm,
                                                      dst.pos());
        if (!commit(c, {readEvent(a, ra, Layout::vxm, t),
                        readEvent(b, rb, Layout::vxm, t),
                        {IcuId::vxmAlu(rng_.intIn(0, 14)), t, alu},
                        writeEvent(dst, rd, w_at)})) {
            return;
        }
        ++cs.nextResult;

        const Vec320 &x = sourceData_.at({c, a.linear()});
        const Vec320 &y = sourceData_.at({c, b.linear()});
        Vec320 want;
        for (std::size_t l = 0; l < want.bytes.size(); ++l) {
            LaneValue lx, ly;
            lx.i = static_cast<std::int8_t>(x.bytes[l]);
            ly.i = static_cast<std::int8_t>(y.bytes[l]);
            want.bytes[l] = static_cast<std::uint8_t>(
                aluBinary(op, DType::Int8, lx, ly).i);
        }
        out_.expects.push_back({c, dst, want});
    }

    /** Sends a source word of chip @p from at @p send to the other
     *  chip, which receives and stores it. */
    void
    transfer(int from, Cycle send)
    {
        const int to = 1 - from;
        ChipState &src = chip(from);
        const GlobalAddr &a =
            src.sources[rng_.nextBelow(src.sources.size())];
        const auto so = takeStream(), si = takeStream();
        if (!so || !si)
            return;
        const StreamRef out_s{*so, Direction::East};
        const StreamRef in_s{*si, Direction::East};
        Instruction tx;
        tx.op = Opcode::Send;
        tx.imm0 = Pod::kRightLink;
        tx.srcA = out_s;
        if (!commit(from, {readEvent(a, out_s, Layout::c2cEast, send),
                           {IcuId::c2c(Pod::kRightLink), send, tx}})) {
            return;
        }
        // Committed on the sender: the receiver must take the vector
        // or the program would drop it, so its side must fit too.
        const Cycle arrive = send + kC2cSerializationCycles + out_.wire;
        const Cycle vis = arrive + opTiming(Opcode::Receive).dFunc;
        Instruction rx;
        rx.op = Opcode::Receive;
        rx.imm0 = Pod::kLeftLink;
        rx.dst = in_s;
        ChipState &dst_chip = chip(to);
        for (int attempt = 0; attempt < 16; ++attempt) {
            const GlobalAddr dst = poolWord(to, dst_chip.nextResult);
            const Cycle w_at =
                vis + Layout::transitDelay(Layout::c2cWest, dst.pos());
            if (commit(to, {{IcuId::c2c(Pod::kLeftLink), arrive, rx},
                            writeEvent(dst, in_s, w_at)})) {
                ++dst_chip.nextResult;
                out_.expects.push_back(
                    {to, dst, sourceData_.at({from, a.linear()})});
                return;
            }
        }
        FAIL() << "no free slice for a received vector";
    }

    /** @return the cycle a Sync parked at @p at releases, if any
     *  Notify on chip @p c reaches it. */
    std::optional<Cycle>
    release(int c, Cycle at) const
    {
        for (const Cycle n : chips_[static_cast<std::size_t>(c)].notifies) {
            if (n + kBarrierLatency >= at)
                return n + kBarrierLatency;
        }
        return std::nullopt;
    }

    /** Appends fillers over [t, end) and NOP-pads to exactly @p end. */
    void
    fillGap(int c, IcuId icu, std::vector<Instruction> &q, Cycle &t,
            Cycle end)
    {
        while (t < end && rng_.nextBelow(3) != 0) {
            const Cycle room = end - t;
            const Cycle lead =
                static_cast<Cycle>(rng_.nextBelow(room));
            switch (rng_.nextBelow(3)) {
              case 0: // A NOP run split in two.
                if (lead > 0) {
                    q.push_back(nop(lead));
                    t += lead;
                }
                break;
              case 1: { // Sync, released by a Notify.
                const Cycle s = t + lead;
                const auto r = release(c, s);
                if (!r || std::max(*r, s + 1) > end)
                    break;
                if (lead > 0)
                    q.push_back(nop(lead));
                Instruction sync;
                sync.op = Opcode::Sync;
                q.push_back(sync);
                t = std::max(*r, s + 1);
                break;
              }
              default: { // A spare read, then Repeat n d of it.
                if (icu.kind() != SliceKind::MEM)
                    break;
                const Cycle s = t + lead;
                const Cycle space = rng_.nextBelow(2)
                                        ? static_cast<Cycle>(
                                              rng_.intIn(1, 3))
                                        : 0;
                const int n = rng_.intIn(0, 4);
                const int d = rng_.intIn(1, 5);
                const Cycle r0 = s + 1 + space;
                const Cycle free =
                    r0 + (n > 0 ? static_cast<Cycle>((n - 1) * d) : 0) +
                    1;
                if (free > end)
                    break;
                if (lead > 0)
                    q.push_back(nop(lead));
                Instruction rd;
                rd.op = Opcode::Read;
                rd.addr = static_cast<MemAddr>(rng_.nextBelow(kResultBase));
                rd.dst = {kSpareStreams[rng_.nextBelow(2)],
                          rng_.nextBelow(2) ? Direction::West
                                            : Direction::East};
                q.push_back(rd);
                if (space > 0)
                    q.push_back(nop(space));
                Instruction rep;
                rep.op = Opcode::Repeat;
                rep.imm0 = static_cast<std::uint32_t>(n);
                rep.imm1 = static_cast<std::uint32_t>(d);
                q.push_back(rep);
                t = free;
                break;
              }
            }
        }
        if (end > t)
            q.push_back(nop(end - t));
        t = end;
    }

    static Instruction
    nop(Cycle n)
    {
        Instruction i;
        i.op = Opcode::Nop;
        i.imm0 = static_cast<std::uint32_t>(n);
        return i;
    }

    /** Lowers chip @p c's timed events to queue programs. */
    AsmProgram
    lower(int c)
    {
        ChipState &cs = chip(c);
        for (const IcuId &icu : cs.idlers)
            cs.queues[icu.id]; // Fillers only.
        AsmProgram out;
        for (auto &[id, groups] : cs.queues) {
            const IcuId icu{id};
            std::vector<Instruction> &q = out.queues[id];
            Cycle t = 0;
            for (auto &[at, insts] : groups) {
                fillGap(c, icu, q, t, at);
                // A pair is read then co-issued write; a lone write
                // may gain a spare read to co-issue with.
                if (insts.size() == 1 && insts[0].op == Opcode::Write &&
                    rng_.nextBelow(3) == 0) {
                    Instruction rd;
                    rd.op = Opcode::Read;
                    rd.addr = static_cast<MemAddr>(
                        rng_.nextBelow(kResultBase));
                    rd.dst = {kSpareStreams[0], Direction::West};
                    insts.insert(insts.begin(), rd);
                }
                if (insts.size() == 2 && insts[0].op == Opcode::Write)
                    std::swap(insts[0], insts[1]);
                q.push_back(insts[0]);
                if (insts.size() == 2) {
                    insts[1].flags |= Instruction::kFlagCoIssue;
                    q.push_back(insts[1]);
                }
                t = at + 1;
            }
            // Tails: more fillers (always on a filler-only queue), then
            // sometimes a trailing NOP that keeps a retired queue
            // counting.
            if (groups.empty() || rng_.nextBelow(2) == 0) {
                fillGap(c, icu, q, t,
                        t + static_cast<Cycle>(rng_.intIn(1, 80)));
            }
            if (rng_.nextBelow(3) == 0)
                q.push_back(nop(static_cast<Cycle>(rng_.intIn(1, 40))));
            if (q.empty())
                out.queues.erase(id);
        }
        return out;
    }

    Rng rng_;
    PodProgram out_;
    std::vector<ChipState> chips_;
    std::map<std::pair<int, std::uint64_t>, Vec320> sourceData_;
    StreamId nextStream_ = 0;
};

/** What one execution left behind on each chip. */
struct Outcome
{
    std::vector<std::map<std::string, std::uint64_t>> stats;
    std::vector<Cycle> clocks;
    std::vector<double> energy;
    std::vector<Vec320> words; ///< In PodProgram::expects order.
};

std::unique_ptr<Pod>
makePod(const PodProgram &p, bool fast_forward, bool seed_memory)
{
    ChipConfig cfg = p.cfg;
    cfg.fastForwardEnabled = fast_forward;
    auto pod = std::make_unique<Pod>(p.chips, p.wire, cfg);
    for (int c = 0; c < p.chips; ++c) {
        Chip &chip = pod->chip(c);
        if (seed_memory) {
            for (const auto &[a, v] : p.seeds[static_cast<std::size_t>(c)])
                chip.mem(a).backdoorWrite(a.addr, v);
        }
        chip.loadProgram(p.programs[static_cast<std::size_t>(c)]);
    }
    return pod;
}

Outcome
outcomeOf(const Pod &pod, const PodProgram &p)
{
    Outcome o;
    for (int c = 0; c < pod.size(); ++c) {
        const Chip &chip = pod.chip(c);
        o.stats.push_back(chip.stats().all());
        o.clocks.push_back(chip.now());
        o.energy.push_back(chip.power().totalEnergyJ());
    }
    for (const Expect &e : p.expects) {
        o.words.push_back(
            pod.chip(e.chip).mem(e.at.hem, e.at.slice).backdoorRead(
                e.at.addr));
    }
    return o;
}

void
expectSameOutcome(const Outcome &ref, const Outcome &got,
                  const char *path)
{
    ASSERT_EQ(ref.clocks.size(), got.clocks.size()) << path;
    for (std::size_t c = 0; c < ref.clocks.size(); ++c) {
        EXPECT_EQ(ref.clocks[c], got.clocks[c]) << path << " chip " << c;
        EXPECT_EQ(ref.stats[c], got.stats[c]) << path << " chip " << c;
        EXPECT_EQ(ref.energy[c], got.energy[c]) << path << " chip " << c;
    }
    for (std::size_t i = 0; i < ref.words.size(); ++i)
        EXPECT_EQ(ref.words[i].bytes, got.words[i].bytes)
            << path << " word " << i;
}

constexpr Cycle kLimit = 100'000;

/** Runs @p seed's program per-cycle, fast-forward and snapshot-cut. */
void
checkSeed(std::uint64_t seed, int chips)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PodProgram p = Generator(seed, chips).build();
    Rng rng(seed ^ 0x5eed);

    // Per-cycle lock-step: the reference.
    auto lock = makePod(p, /*fast_forward=*/false, /*seed_memory=*/true);
    while (!lock->allDone()) {
        ASSERT_LT(lock->now(), kLimit) << "program never retires";
        lock->stepAll();
    }
    const Outcome ref = outcomeOf(*lock, p);
    for (std::size_t i = 0; i < p.expects.size(); ++i) {
        ASSERT_EQ(ref.words[i].bytes, p.expects[i].want.bytes)
            << "word " << i << " on chip " << p.expects[i].chip;
    }
    for (const auto &s : ref.stats) {
        EXPECT_EQ(s.at("ecc_uncorrectable"), 0u);
        EXPECT_EQ(s.at("c2c_dropped_receives"), 0u);
    }

    // Fast-forward with the pod's lookahead scheduler.
    auto fast = makePod(p, /*fast_forward=*/true, /*seed_memory=*/true);
    ASSERT_TRUE(fast->runAllBounded(kLimit));
    expectSameOutcome(ref, outcomeOf(*fast, p), "fast-forward");

    // Cut at a random cycle, snapshot, restore on a fresh pod.
    const Cycle end = ref.clocks[0];
    if (end < 2)
        return; // Nothing was generated: no cycle to cut at.
    const Cycle cut = 1 + rng.nextBelow(end - 1);
    auto src = makePod(p, rng.nextBelow(2) == 0, /*seed_memory=*/true);
    if (chips == 1) {
        // A lone chip stops anywhere, fast-forward spans included.
        ASSERT_FALSE(src->chip(0).runBounded(cut));
    } else {
        // Pod members snapshot at equalized clocks.
        while (src->now() < cut)
            src->stepAll();
    }
    ASSERT_EQ(src->now(), cut);
    PodSnapshot snap;
    std::string err;
    ASSERT_TRUE(src->snapshot(snap, &err)) << err;
    auto dst = makePod(p, rng.nextBelow(2) == 0, /*seed_memory=*/false);
    ASSERT_TRUE(dst->restore(snap, &err)) << err;
    ASSERT_TRUE(dst->runAllBounded(kLimit));
    expectSameOutcome(ref, outcomeOf(*dst, p), "snapshot cut");
}

// 200 generated programs in all: seeds 1-100 on one chip, 101-200 on
// a 2-chip ring. Over those seeds the programs hold about 330 VXM
// pipelines, 240 C2C transfers, 220 Syncs, 760 Repeats and 180
// co-issued pairs. A chip snapshot is about 3 MB, mostly MXM state,
// which sets the cost of each seed.
TEST(SteppedCore, GeneratedOneChipProgramsAgreeAcrossTiers)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        checkSeed(seed, 1);
        if (HasFailure())
            return;
    }
}

TEST(SteppedCore, GeneratedTwoChipProgramsAgreeAcrossTiers)
{
    for (std::uint64_t seed = 101; seed <= 200; ++seed) {
        checkSeed(seed, 2);
        if (HasFailure())
            return;
    }
}

/** @return @p stats as "name=value" pairs, one space apart. */
std::string
flatten(const std::map<std::string, std::uint64_t> &stats)
{
    std::string out;
    for (const auto &[name, value] : stats) {
        if (!out.empty())
            out += ' ';
        out += name + '=' + std::to_string(value);
    }
    return out;
}

/** Correctable upsets on SRAM, stream hops and C2C links. */
ChipConfig
faultLive(bool fast_forward)
{
    ChipConfig cfg;
    cfg.fastForwardEnabled = fast_forward;
    cfg.fault.seed = 0x51ed;
    cfg.fault.memReadRate = 0.01;
    cfg.fault.memWriteRate = 0.01;
    cfg.fault.streamRate = 0.002;
    cfg.fault.c2cRate = 0.3;
    cfg.fault.doubleBitFraction = 0.0;
    return cfg;
}

// The stats() of each chip after each pinned workload, as flatten()
// prints them.
const char *const kAllReduceB1[2] = {
    "c2c_dropped_receives=0 c2c_received=1 c2c_sent=1 cycles=452 "
    "dispatched=6 ecc_corrected=1 ecc_corrected_mem_port=1 "
    "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
    "ecc_corrected_sxm=0 ecc_corrected_vxm=0 ecc_uncorrectable=0 "
    "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
    "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
    "ecc_uncorrectable_vxm=0 faults_injected_c2c=1 "
    "faults_injected_mem=0 faults_injected_scheduled=0 "
    "faults_injected_stream=0 ifetches=0 macc_ops=0 "
    "machine_checks=0 mem_reads=1 mem_writes=1 nop_cycles=926 "
    "notifies=0 parked_cycles=0 stream_hops=96 stream_writes=2 "
    "sxm_bytes=0 vxm_lane_ops=0",
    "c2c_dropped_receives=0 c2c_received=1 c2c_sent=1 cycles=452 "
    "dispatched=8 ecc_corrected=1 ecc_corrected_mem_port=0 "
    "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
    "ecc_corrected_sxm=0 ecc_corrected_vxm=1 ecc_uncorrectable=0 "
    "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
    "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
    "ecc_uncorrectable_vxm=0 faults_injected_c2c=1 "
    "faults_injected_mem=0 faults_injected_scheduled=0 "
    "faults_injected_stream=0 ifetches=0 macc_ops=0 "
    "machine_checks=0 mem_reads=2 mem_writes=1 nop_cycles=996 "
    "notifies=0 parked_cycles=0 stream_hops=239 stream_writes=4 "
    "sxm_bytes=0 vxm_lane_ops=320",
};
const char *const kAllReduceB4[2] = {
    "c2c_dropped_receives=0 c2c_received=4 c2c_sent=4 cycles=2243 "
    "dispatched=18 ecc_corrected=4 ecc_corrected_mem_port=4 "
    "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
    "ecc_corrected_sxm=0 ecc_corrected_vxm=0 ecc_uncorrectable=0 "
    "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
    "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
    "ecc_uncorrectable_vxm=0 faults_injected_c2c=4 "
    "faults_injected_mem=0 faults_injected_scheduled=0 "
    "faults_injected_stream=0 ifetches=0 macc_ops=0 "
    "machine_checks=0 mem_reads=4 mem_writes=4 nop_cycles=3903 "
    "notifies=0 parked_cycles=0 stream_hops=393 stream_writes=8 "
    "sxm_bytes=0 vxm_lane_ops=0",
    "c2c_dropped_receives=0 c2c_received=4 c2c_sent=4 cycles=2243 "
    "dispatched=26 ecc_corrected=4 ecc_corrected_mem_port=0 "
    "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
    "ecc_corrected_sxm=0 ecc_corrected_vxm=4 ecc_uncorrectable=0 "
    "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
    "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
    "ecc_uncorrectable_vxm=0 faults_injected_c2c=4 "
    "faults_injected_mem=0 faults_injected_scheduled=0 "
    "faults_injected_stream=1 ifetches=0 macc_ops=0 "
    "machine_checks=0 mem_reads=8 mem_writes=4 nop_cycles=4566 "
    "notifies=0 parked_cycles=0 stream_hops=956 stream_writes=16 "
    "sxm_bytes=0 vxm_lane_ops=1280",
};
const char *const kTinyNet = "c2c_dropped_receives=0 c2c_received=0 c2c_sent=0 cycles=1503 "
                             "dispatched=10378 ecc_corrected=92 ecc_corrected_mem_port=2 "
                             "ecc_corrected_mem_sram=7 ecc_corrected_mxm=21 "
                             "ecc_corrected_sxm=0 ecc_corrected_vxm=62 ecc_uncorrectable=0 "
                             "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
                             "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
                             "ecc_uncorrectable_vxm=0 faults_injected_c2c=0 "
                             "faults_injected_mem=61 faults_injected_scheduled=0 "
                             "faults_injected_stream=32 ifetches=0 macc_ops=147558400 "
                             "machine_checks=0 mem_reads=6229 mem_writes=802 "
                             "nop_cycles=102628 notifies=1 parked_cycles=5005 "
                             "stream_hops=859310 stream_writes=15585 sxm_bytes=0 "
                             "vxm_lane_ops=1028480";
/** One chip's pinned stats after a generated program. */
struct GeneratedPin
{
    std::uint64_t seed;
    int chip;
    const char *stats;
};
const GeneratedPin kGenerated[] = {
    {7, 0,
     "c2c_dropped_receives=0 c2c_received=0 c2c_sent=0 cycles=496 "
     "dispatched=10 ecc_corrected=0 ecc_corrected_mem_port=0 "
     "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
     "ecc_corrected_sxm=0 ecc_corrected_vxm=0 ecc_uncorrectable=0 "
     "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
     "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
     "ecc_uncorrectable_vxm=0 faults_injected_c2c=0 "
     "faults_injected_mem=0 faults_injected_scheduled=0 "
     "faults_injected_stream=0 ifetches=0 macc_ops=0 "
     "machine_checks=0 mem_reads=6 mem_writes=1 nop_cycles=975 "
     "notifies=2 parked_cycles=0 stream_hops=331 stream_writes=7 "
     "sxm_bytes=0 vxm_lane_ops=320"},
    {104, 0,
     "c2c_dropped_receives=0 c2c_received=1 c2c_sent=0 cycles=477 "
     "dispatched=9 ecc_corrected=0 ecc_corrected_mem_port=0 "
     "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
     "ecc_corrected_sxm=0 ecc_corrected_vxm=0 ecc_uncorrectable=0 "
     "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
     "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
     "ecc_uncorrectable_vxm=0 ifetches=0 macc_ops=0 machine_checks=0 "
     "mem_reads=4 mem_writes=1 nop_cycles=1109 notifies=1 "
     "parked_cycles=0 stream_hops=463 stream_writes=5 sxm_bytes=0 "
     "vxm_lane_ops=0"},
    {104, 1,
     "c2c_dropped_receives=0 c2c_received=0 c2c_sent=1 cycles=477 "
     "dispatched=6 ecc_corrected=0 ecc_corrected_mem_port=0 "
     "ecc_corrected_mem_sram=0 ecc_corrected_mxm=0 "
     "ecc_corrected_sxm=0 ecc_corrected_vxm=0 ecc_uncorrectable=0 "
     "ecc_uncorrectable_mem_port=0 ecc_uncorrectable_mem_sram=0 "
     "ecc_uncorrectable_mxm=0 ecc_uncorrectable_sxm=0 "
     "ecc_uncorrectable_vxm=0 ifetches=0 macc_ops=0 machine_checks=0 "
     "mem_reads=1 mem_writes=0 nop_cycles=420 notifies=2 "
     "parked_cycles=0 stream_hops=55 stream_writes=1 sxm_bytes=0 "
     "vxm_lane_ops=0"},
};

TEST(SteppedCore, FaultLiveAllReduceCountersArePinned)
{
    for (const int batch : {1, 4}) {
        for (const bool ff : {false, true}) {
            SCOPED_TRACE("batch " + std::to_string(batch) +
                         (ff ? " fast-forward" : " per-cycle"));
            // A short program: denser strikes so that some land.
            ChipConfig cfg = faultLive(ff);
            cfg.fault.streamRate = 0.02;
            cfg.fault.c2cRate = 0.9;
            Pod pod(2, /*wire_latency=*/17, cfg);
            Rng rng(static_cast<std::uint64_t>(batch) * 31);
            for (int c = 0; c < 2; ++c) {
                for (int s = 0; s < batch; ++s) {
                    Vec320 v;
                    for (auto &b : v.bytes)
                        b = static_cast<std::uint8_t>(rng.intIn(-90, 90));
                    pod.chip(c)
                        .mem(Hemisphere::East, AllReducePlan::kSlice)
                        .backdoorWrite(static_cast<MemAddr>(
                                           AllReducePlan::kLocalAddr + s),
                                       v);
                }
            }
            std::vector<ScheduledProgram> programs;
            buildRingAllReduce(pod, programs, batch);
            for (int c = 0; c < 2; ++c) {
                pod.chip(c).loadProgram(
                    programs[static_cast<std::size_t>(c)].toAsm());
            }
            ASSERT_TRUE(pod.runAllBounded());
            const auto &pinned = batch == 1 ? kAllReduceB1 : kAllReduceB4;
            for (int c = 0; c < 2; ++c) {
                EXPECT_EQ(flatten(pod.chip(c).stats().all()), pinned[c])
                    << "chip " << c;
            }
        }
    }
}

TEST(SteppedCore, FaultLiveTinyNetCountersArePinned)
{
    const int h = 12, w = 12, c = 8;
    Graph g = model::buildTinyNet(/*seed=*/42, h, w, c);
    Rng rng(7);
    std::vector<std::int8_t> input(static_cast<std::size_t>(h) * w * c);
    for (auto &v : input)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    Lowering lw(/*pipelined=*/true);
    g.lower(lw, input);
    for (const bool ff : {false, true}) {
        SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
        InferenceSession session(lw, faultLive(ff));
        session.run();
        EXPECT_EQ(flatten(session.chip().stats().all()), kTinyNet);
    }
}

TEST(SteppedCore, GeneratedProgramCountersArePinned)
{
    // Generated programs end queues on trailing NOPs, park them on
    // Syncs and Repeat spare reads: the states an early drop would
    // cut short.
    for (const GeneratedPin &pin : kGenerated) {
        const int chips = pin.seed <= 100 ? 1 : 2;
        const PodProgram p = Generator(pin.seed, chips).build();
        for (const bool ff : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(pin.seed) + " chip " +
                         std::to_string(pin.chip) +
                         (ff ? " fast-forward" : " per-cycle"));
            auto pod = makePod(p, ff, /*seed_memory=*/true);
            ASSERT_TRUE(pod->runAllBounded(kLimit));
            EXPECT_EQ(flatten(pod->chip(pin.chip).stats().all()),
                      pin.stats);
        }
    }
}

} // namespace
} // namespace tsp
