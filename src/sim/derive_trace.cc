/**
 * @file
 * deriveTrace(): a pod's replay trace from its member programs' text.
 *
 * On this machine the queue text fixes every dispatch cycle (paper
 * section III: the compiler tracks all 144 queues' logical time), a
 * stream value moves one register a cycle, and each C2C Send is
 * scheduled for the cycle its peer's Receive expects it (II item 6),
 * so the trace of a fault-free run is a function of the text. The
 * derivation computes it in four parts:
 *
 *  - *Dispatches.* Each member's real InstructionQueues and
 *    BarrierController advance from event to event on a bucket
 *    calendar: a queue ticks only at its nextEventCycle(), and
 *    skipIdle() credits the idle span before it, exactly as the
 *    fast-forward core does. The members advance cycle by cycle in
 *    ring order, as Pod::stepAll() steps them; within a member, live
 *    queues tick in id order, then the MXM planes, as Chip::step()
 *    runs them.
 *  - *Stream effects.* Each dispatch, and each tick of an open ABC or
 *    ACC window, takes its reads and writes from its kOpTable row:
 *    consumes first, in the unit's order (scatter reads its map
 *    stream first), then produces, visible d_func cycles later. A
 *    windowed row's streams belong to its ticks.
 *  - *The ring links.* Pod's wiring (link 1 of member i to link 0 of
 *    member i + 1), modeled from the text as C2cModule runs it: a Send
 *    at cycle t lands in the peer link's buffer at t + serialization +
 *    wire, and a Receive produces only when an arrival is due.
 *  - *The index-only fabric.* A value written at position p in cycle
 *    t sits at p + (now - t) on an eastward stream (p - (now - t)
 *    westward) until it passes the chip edge or a later write to its
 *    register replaces it. So a consume samples the last write on its
 *    own diagonal: the ring entry the fabric would use, holding the
 *    latest write whose exact diagonal matches. Hops and writes follow
 *    from each value's life on that diagonal.
 *
 * It ends with a slot-allocation pass over the tape (assignSlots()).
 * The stepped tier is the reference: ctest replays each derived trace
 * against a stepped run of the same program.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <functional>
#include <queue>
#include <utility>

#include "arch/layout.hh"
#include "c2c/pod.hh"
#include "common/logging.hh"
#include "icu/barrier.hh"
#include "icu/queue.hh"
#include "sim/exec_trace.hh"
#include "stream/fabric.hh"

namespace tsp {

namespace {

constexpr int kPositions = Layout::numPositions;

/**
 * Seals @p t's slot map (produceSlot, slotCount) from its consume
 * tape and, per produce, the tape length at the start of the event
 * that ran it (@p produce_at, whose buffer becomes produceSlot).
 */
void
assignSlots(ExecutionTrace &t, std::vector<std::uint32_t> produce_at)
{
    // Walk produces and consumes in trace order, freeing a value's
    // slot when the event holding its last consume ends (a produce
    // sits at its event's start). Replay re-executes the exact same
    // interleaving, so a reused slot is only ever overwritten after
    // its previous value's final read, and a unit may build its
    // results in place while it still reads its operands' slots.
    constexpr std::uint32_t kNever = 0xffffffffu;
    const auto produces32 = static_cast<std::uint32_t>(t.produces);
    TSP_ASSERT(produce_at.size() == produces32);
    std::vector<std::uint32_t> lastUse(produces32, kNever);
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(t.consumeTape.size()); ++c) {
        const std::uint32_t tag = t.consumeTape[c];
        if (tag != kTapeMiss)
            lastUse[tag] = c;
    }
    // Each produce's slot overwrites its produce_at entry, which the
    // walk has just read for the last time.
    std::vector<std::uint32_t> &slot = produce_at;
    std::vector<std::uint32_t> freeSlots;
    std::uint32_t slots = 1; // Slot 0: scratch for unconsumed values.
    std::size_t c = 0;
    for (std::uint32_t tag = 0; tag < produces32; ++tag) {
        while (c < produce_at[tag]) {
            const std::uint32_t done = t.consumeTape[c];
            if (done != kTapeMiss && lastUse[done] == c)
                freeSlots.push_back(slot[done]);
            ++c;
        }
        if (lastUse[tag] == kNever) {
            slot[tag] = 0;
        } else if (freeSlots.empty()) {
            slot[tag] = slots++;
        } else {
            slot[tag] = freeSlots.back();
            freeSlots.pop_back();
        }
    }
    t.produceSlot = std::move(slot);
    t.slotCount = slots;
}

/**
 * The stream register file as produce indices: what each consume
 * samples, without a vector, a pool slot or a per-cycle advance.
 */
class IndexFabric
{
  public:
    IndexFabric()
        : entries_(std::size_t{2} * kStreamsPerDir * kPositions),
          pending_(kHorizon)
    {
    }

    /** Schedules produce @p produce on @p s at @p pos, visible at
     *  @p when. */
    void
    schedule(StreamRef s, SlicePos pos, Cycle when, std::uint32_t produce)
    {
        // Producer delays are architectural constants well inside the
        // calendar, and every one is at least a cycle.
        TSP_ASSERT(when > applied_ && when - applied_ < kHorizon);
        Batch &b = pending_[when % kHorizon];
        if (b.writes.empty())
            b.when = when;
        TSP_ASSERT(b.when == when);
        b.writes.push_back({s, pos, produce});
        ++pendingCount_;
    }

    /**
     * Applies every write visible at or before @p now, in scheduling
     * order within a cycle. @return false when two land on one
     * register in one cycle (the stepped fabric's scheduler panic).
     */
    bool
    applyUntil(Cycle now)
    {
        for (Cycle c = applied_ + 1; pendingCount_ > 0 && c <= now; ++c) {
            Batch &b = pending_[c % kHorizon];
            if (b.writes.empty() || b.when != c)
                continue;
            const int phase = static_cast<int>(c % kPositions);
            for (const Pending &w : b.writes) {
                if (!apply(w, c, phase))
                    return false;
            }
            pendingCount_ -= b.writes.size();
            b.writes.clear();
        }
        applied_ = now;
        phase_ = static_cast<int>(now % kPositions);
        return true;
    }

    /**
     * @return the produce a consume of @p s at @p pos in cycle @p now,
     * the cycle applied last, samples, or kTapeMiss when nothing flows
     * there.
     */
    std::uint32_t
    sample(StreamRef s, SlicePos pos, Cycle now) const
    {
        TSP_ASSERT(now == applied_);
        const Entry &e = entries_[index(s, pos, phase_)];
        // The entry's value is this register's when it is on the same
        // diagonal: it has flowed from its position to this one since
        // it was written.
        const std::int64_t flowed = s.dir == Direction::East
                                        ? pos - e.pos
                                        : e.pos - pos;
        return e.valid && flowed == static_cast<std::int64_t>(now - e.at)
                   ? e.produce
                   : kTapeMiss;
    }

    /** @return hops of a run that ends at @p end (after applyUntil()). */
    std::uint64_t
    hops(Cycle end) const
    {
        std::uint64_t h = hops_;
        for (const Entry &e : entries_) {
            const Cycle until =
                e.at + StreamFabric::hopsToEdge(e.dir(), e.pos);
            if (e.valid && until > end)
                h -= until - end;
        }
        return h;
    }

    /** @return writes applied so far. */
    std::uint64_t writes() const { return writes_; }

  private:
    /** The last write to one stream register entry. */
    struct Entry
    {
        std::uint32_t at = 0;      ///< The cycle it was written.
        std::uint32_t produce = 0; ///< The produce it holds.
        std::uint8_t pos = 0;  ///< The position it was written at.
        bool west = false;
        bool valid = false;

        Direction dir() const
        {
            return west ? Direction::West : Direction::East;
        }
    };

    struct Pending
    {
        StreamRef s;
        SlicePos pos;
        std::uint32_t produce;
    };

    struct Batch
    {
        Cycle when = 0;
        std::vector<Pending> writes; ///< Capacity is reused.
    };

    /** Calendar depth; the largest producer delay (ACC's) is 21. */
    static constexpr Cycle kHorizon = 128;

    /** @return the entry holding register @p pos of @p s in a cycle
     *  whose phase is @p phase: the fabric's own ring entry. */
    static std::size_t
    index(StreamRef s, SlicePos pos, int phase)
    {
        return static_cast<std::size_t>(StreamFabric::ringIndex(s)) *
                   kPositions +
               static_cast<std::size_t>(
                   StreamFabric::entryOf(s.dir, pos, phase));
    }

    bool
    apply(const Pending &w, Cycle t, int phase)
    {
        Entry &e = entries_[index(w.s, w.pos, phase)];
        if (e.valid) {
            const Cycle until =
                e.at + StreamFabric::hopsToEdge(e.dir(), e.pos);
            if (until > t) {
                // The register still holds a value, and this write
                // replaces it: while a value is on the chip, only
                // writes on its own diagonal share its entry.
                if (e.at == t)
                    return false;
                hops_ -= until - t;
            }
        }
        e = {static_cast<std::uint32_t>(t), w.produce,
             static_cast<std::uint8_t>(w.pos), w.s.dir == Direction::West,
             true};
        hops_ += StreamFabric::hopsToEdge(w.s.dir, w.pos);
        ++writes_;
        return true;
    }

    std::vector<Entry> entries_;
    std::vector<Batch> pending_;
    std::size_t pendingCount_ = 0;
    /** Writes visible at or before this cycle are applied. */
    Cycle applied_ = 0;
    int phase_ = 0; ///< applied_ % N.
    std::uint64_t hops_ = 0;
    std::uint64_t writes_ = 0;
};

constexpr int kMaskWords = (kNumIcus + 63) / 64;
using QueueMask = std::array<std::uint64_t, kMaskWords>;

/** One member's queue events: a bucket calendar of queue id masks. */
class Calendar
{
  public:
    Calendar() : buckets_(kBuckets) { due_.fill(kNoEventCycle); }

    /** @return queue @p id's filed event cycle (kNoEventCycle: none). */
    Cycle due(int id) const { return due_[static_cast<std::size_t>(id)]; }

    /** Files queue @p id's next event at cycle @p at. */
    void
    schedule(int id, Cycle at)
    {
        due_[static_cast<std::size_t>(id)] = at;
        if (at == kNoEventCycle)
            return;
        if (at < base_ + kBuckets)
            put(id, at);
        else
            far_.push({at, id});
    }

    /** @return the earliest queue event at or after @p from. */
    Cycle
    earliest(Cycle from)
    {
        rebase(from);
        if (inBuckets_ == 0)
            return far_.empty() ? kNoEventCycle : far_.top().first;
        for (Cycle c = from;; ++c) {
            const Bucket &b = buckets_[c & (kBuckets - 1)];
            if (b.when == c && b.ids != QueueMask{})
                return c;
        }
    }

    /** @return (and unfiles) the queues due at @p c. */
    QueueMask
    take(Cycle c)
    {
        rebase(c);
        Bucket &b = buckets_[c & (kBuckets - 1)];
        if (b.when != c)
            return {};
        const QueueMask ids = b.ids;
        b.ids = {};
        for (const std::uint64_t m : ids)
            inBuckets_ -= static_cast<std::size_t>(std::popcount(m));
        return ids;
    }

  private:
    /** Buckets (a power of two): NOP gaps past them wait in far_. */
    static constexpr Cycle kBuckets = 1024;

    /** One calendar cycle: the queues due then, as an id mask. */
    struct Bucket
    {
        Cycle when = 0;
        QueueMask ids{};
    };

    void
    put(int id, Cycle at)
    {
        Bucket &b = buckets_[at & (kBuckets - 1)];
        if (b.ids == QueueMask{})
            b.when = at;
        TSP_ASSERT(b.when == at);
        b.ids[static_cast<std::size_t>(id / 64)] |= std::uint64_t{1}
                                                    << (id % 64);
        ++inBuckets_;
    }

    /** Moves the buckets' window to start at @p base. */
    void
    rebase(Cycle base)
    {
        base_ = base;
        while (!far_.empty() && far_.top().first < base_ + kBuckets) {
            put(far_.top().second, far_.top().first);
            far_.pop();
        }
    }

    /**
     * Per queue, its filed event cycle, or kNoEventCycle when it has
     * none (retired, or parked with no release yet).
     */
    std::array<Cycle, kNumIcus> due_{};
    std::vector<Bucket> buckets_;
    std::size_t inBuckets_ = 0;
    /** Buckets hold the events of [base_, base_ + kBuckets). */
    Cycle base_ = 0;
    std::priority_queue<std::pair<Cycle, int>,
                        std::vector<std::pair<Cycle, int>>,
                        std::greater<>>
        far_;
};

/** An MXM plane's open windows. */
struct Plane
{
    std::uint32_t abcLeft = 0; ///< ABC ticks to go.
    StreamRef abcSrc{};
    int abcStreams = 1;        ///< 2 for an fp16 activation pair.
    std::uint32_t accLeft = 0; ///< ACC ticks to go.
    StreamRef accDst{};
};

/** One C2C link's flight state, as C2cModule keeps it. */
struct Link
{
    Link *peer = nullptr; ///< The wired peer link; null when unwired.
    bool deskewed = false;
    Cycle txBusyUntil = 0;
    /** Arrival cycles of the vectors in the elastic buffer. */
    std::deque<Cycle> rx;
};

/** One pod member: the state a stepped run of its program keeps. */
struct Member
{
    Member()
    {
        queues.reserve(kNumIcus);
        for (int i = 0; i < kNumIcus; ++i)
            queues.emplace_back(IcuId{i}, barrier);
        done.fill(true);
    }

    // The queues point at the barrier, and the links at each other.
    Member(const Member &) = delete;
    Member &operator=(const Member &) = delete;

    bool
    planesBusy() const
    {
        return std::any_of(planes.begin(), planes.end(),
                           [](const Plane &p) {
                               return p.abcLeft > 0 || p.accLeft > 0;
                           });
    }

    /** @return true while the member would still step. */
    bool running() const { return notDone > 0 || planesBusy(); }

    BarrierController barrier;
    std::vector<InstructionQueue> queues;
    Calendar calendar;
    /** Per queue, the cycle its idle counters are credited up to. */
    std::array<Cycle, kNumIcus> at{};
    /** Per queue, whether it is done(); notDone counts the rest. */
    std::array<bool, kNumIcus> done{};
    int notDone = 0;
    std::array<Plane, kMxmPlanes> planes{};
    std::array<Link, kC2cLinks> links{};
    IndexFabric fabric;
};

/** One derivation: the members' programs run from their text. */
class Derivation
{
  public:
    Derivation(const std::vector<const AsmProgram *> &programs,
               Cycle wire_latency, bool listing)
        : programs_(programs), wire_(wire_latency), listing_(listing),
          trace_(std::make_unique<ExecutionTrace>())
    {
        TSP_ASSERT(!programs_.empty() && programs_.size() <= 256);
        const std::size_t n = programs_.size();
        members_.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            members_.push_back(std::make_unique<Member>());
        // Pod's ring; a pod of one wires no link.
        for (std::size_t i = 0; n > 1 && i < n; ++i) {
            Link &a = members_[i]->links[Pod::kRightLink];
            Link &b = members_[(i + 1) % n]->links[Pod::kLeftLink];
            a.peer = &b;
            b.peer = &a;
        }
        for (int i = 0; i < kNumIcus; ++i)
            pos_[static_cast<std::size_t>(i)] = IcuId{i}.pos();
    }

    /**
     * Loads each member's program into its queues, as
     * Chip::loadProgram() does, and reserves the trace unless this is
     * a listing. @return false for a program the derivation does not
     * cover or a stepped run would refuse (see deriveTrace()), and,
     * unless this is a listing, before reserving anything, for a queue
     * that cannot retire within @p limit cycles (retireBound()) and
     * for a trace too long for its 32-bit tape positions.
     */
    bool
    load(Cycle limit)
    {
        // What a run that retires adds to the trace: exactly its
        // consumes, at most its produces (a Receive with no arrival
        // produces nothing) and at most its events (ticks of one
        // plane's ABC and ACC windows may share one). Reserved up
        // front, so the trace never moves while it grows.
        std::size_t events = 0, tape = 0, produced = 0;
        for (std::size_t c = 0; c < members_.size(); ++c) {
            Member &m = *members_[c];
            for (const auto &[icu, insts] : programs_[c]->queues) {
                if (icu < 0 || icu >= kNumIcus)
                    return false;
                const auto i = static_cast<std::size_t>(icu);
                for (std::size_t pc = 0; pc < insts.size(); ++pc) {
                    if (!covered(IcuId{icu}, insts, pc))
                        return false;
                    const Instruction *inst = &insts[pc];
                    if (inst->op == Opcode::Nop || inst->op == Opcode::Sync)
                        continue;
                    std::size_t issues = 1;
                    if (inst->op == Opcode::Repeat) {
                        issues = inst->imm0;
                        inst = &insts[InstructionQueue::repeatTarget(
                                          insts, pc) -
                                      1];
                    }
                    const Roles &r =
                        roles_[static_cast<std::size_t>(inst->op)];
                    std::size_t ticks = 0, consumes = 0, produces = 0;
                    if (inst->op == Opcode::Abc) {
                        ticks = inst->imm1;
                        consumes = ticks * dtypeBytes(inst->dtype);
                    } else if (inst->op == Opcode::Acc) {
                        ticks = inst->imm1;
                        produces = ticks * 4;
                    }
                    events += issues * (1 + ticks);
                    tape += issues * (consumes + streams(*inst, r.src[0]) +
                                      streams(*inst, r.src[1]));
                    produced += issues * (produces + streams(*inst, r.dst));
                }
                if (!listing_ && retireBound(insts, limit) > limit)
                    return false;
                InstructionQueue &q = m.queues[i];
                q.loadProgram(insts);
                m.done[i] = q.done();
                m.notDone += m.done[i] ? 0 : 1;
                m.calendar.schedule(icu, q.nextEventCycle(0));
            }
        }
        // A listing stops at its cycle, whatever the text would run.
        if (listing_)
            return true;
        // Produce indices and tape positions are 32-bit, kTapeMiss
        // excluded; a trace with as many events is not reserved.
        if (events >= kTapeMiss || tape >= kTapeMiss ||
            produced >= kTapeMiss) {
            return false;
        }
        trace_->events.reserve(events);
        trace_->consumeTape.reserve(tape);
        produceAt_.reserve(produced);
        return true;
    }

    /**
     * Advances the members cycle by cycle until they all retire, the
     * next cycle to run reaches @p limit, or a step a stepped run
     * refuses. @return true when they retired.
     */
    bool
    advance(Cycle limit)
    {
        Cycle from = 0;
        for (;;) {
            Cycle c = kNoEventCycle;
            bool running = false;
            for (const auto &m : members_) {
                running = running || m->running();
                c = std::min(c, m->planesBusy() ? from
                                                : m->calendar.earliest(from));
            }
            if (!running)
                break;
            // Nothing left to happen while a queue still waits: the
            // program never retires.
            if (c == kNoEventCycle || c >= limit)
                return false;
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (!step(*members_[i], static_cast<int>(i), c))
                    return false;
            }
            from = c + 1;
            end_ = from;
        }
        for (const auto &m : members_) {
            if (!m->fabric.applyUntil(end_))
                return false;
        }
        return true;
    }

    /** @return the events derived so far. */
    std::vector<ExecutionTrace::Event> &events() { return trace_->events; }

    /** @return the trace of the run advance() retired. */
    std::shared_ptr<const ExecutionTrace>
    seal()
    {
        ExecutionTrace &t = *trace_;
        for (const auto &m : members_) {
            ExecutionTrace::ChipDeltas d;
            for (std::size_t i = 0; i < m->queues.size(); ++i) {
                InstructionQueue &q = m->queues[i];
                q.skipIdle(m->at[i], end_);
                d.dispatched += q.dispatched();
                d.nopCycles += q.nopCycles();
                d.parkedCycles += q.parkedCycles();
            }
            d.fabricHops = m->fabric.hops(end_);
            d.fabricWrites = m->fabric.writes();
            t.chips.push_back(d);
        }
        t.span = end_;
        t.produces = produces_;
        // The reserve fits the tape exactly; the events and produces
        // keep what shared ticks and dropped Receives left of theirs,
        // since shrinking would copy them all.
        assignSlots(t, std::move(produceAt_));
        return std::shared_ptr<const ExecutionTrace>(std::move(trace_));
    }

  private:
    /**
     * An opcode's stream operands, from its kOpTable row: the ones its
     * unit reads, in read order, and the one it writes d_func cycles
     * after dispatch. A windowed row (ABC, ACC) has none here: its
     * streams belong to its window's ticks.
     */
    struct Roles
    {
        std::array<const OpOperand *, 2> src{};
        const OpOperand *dst = nullptr;
    };

    static const std::array<Roles, kNumOpcodes> &
    rolesTable()
    {
        static const std::array<Roles, kNumOpcodes> table = [] {
            std::array<Roles, kNumOpcodes> t{};
            for (const OpRow &row : kOpTable) {
                Roles &r = t[static_cast<std::size_t>(row.op)];
                if (row.windowed)
                    continue;
                int n = 0;
                for (const OpOperand &o : row.operands) {
                    if (o.field == OpField::SrcA || o.field == OpField::SrcB)
                        r.src[static_cast<std::size_t>(n++)] = &o;
                    else if (o.field == OpField::Dst)
                        r.dst = &o;
                }
                // Scatter reads its map stream (srcB) before the
                // stored one.
                if (row.op == Opcode::Scatter)
                    std::swap(r.src[0], r.src[1]);
            }
            return t;
        }();
        return table;
    }

    /** @return the streams @p o of @p inst spans (0 when null). */
    static int
    streams(const Instruction &inst, const OpOperand *o)
    {
        if (!o)
            return 0;
        return o->span == Span::One ? 1 : streamSpan(inst, *o).count;
    }

    /**
     * @return a lower bound on the span of a run that retires queue
     * @p insts, or a value past @p limit once the bound passes it. A
     * queue fetches its first instruction at cycle 0 and each next
     * one no sooner than its predecessor allows, as
     * InstructionQueue::tick() runs them: a NOP's count later, a
     * Repeat's (count - 1) x gap + 1 later, in the same cycle for the
     * second of a co-issued pair and one cycle later for anything
     * else (a Sync at least that). It is done as it fetches its last
     * instruction, or its last re-issue, so a trailing NOP counts one.
     */
    static Cycle
    retireBound(const std::vector<Instruction> &insts, Cycle limit)
    {
        Cycle bound = 0;
        for (std::size_t pc = 0; pc < insts.size() && bound <= limit;
             ++pc) {
            const Instruction &inst = insts[pc];
            const bool last = pc + 1 == insts.size();
            Cycle cycles = 1;
            switch (inst.op) {
              case Opcode::Nop:
                if (!last)
                    cycles = std::max<Cycle>(inst.imm0, 1);
                break;
              case Opcode::Repeat:
                if (inst.imm0 > 0) {
                    cycles = Cycle{inst.imm0 - 1} *
                                 std::max<Cycle>(inst.imm1, 1) +
                             1;
                }
                break;
              case Opcode::Sync:
                break;
              default:
                if (!last && (insts[pc + 1].flags & Instruction::kFlagCoIssue))
                    ++pc;
                break;
            }
            bound += cycles;
        }
        return bound;
    }

    /** @return true when instruction @p pc of queue @p icu is one
     *  the derivation models and the units accept. */
    static bool
    covered(IcuId icu, const std::vector<Instruction> &insts,
            std::size_t pc)
    {
        const Instruction &inst = insts[pc];
        if (static_cast<int>(inst.op) >= kNumOpcodes)
            return false;
        const SliceKind slice = opcodeSlice(inst.op);
        if ((slice != SliceKind::ICU && slice != icu.kind()) ||
            !operandError(inst).empty()) {
            return false;
        }
        if (inst.op == Opcode::Abc)
            return inst.dtype == DType::Int8 || inst.dtype == DType::Fp16;
        if (inst.op == Opcode::Repeat) {
            // What it re-issues must be neither a Repeat nor a Sync.
            const std::size_t prev =
                InstructionQueue::repeatTarget(insts, pc);
            return prev > 0 && insts[prev - 1].op != Opcode::Repeat &&
                   insts[prev - 1].op != Opcode::Sync;
        }
        return true;
    }

    /** Runs cycle @p c on member @p chip: its queues, then planes. */
    bool
    step(Member &m, int chip, Cycle c)
    {
        if (!m.fabric.applyUntil(c))
            return false;
        const QueueMask ids = m.calendar.take(c);
        for (int w = 0; w < kMaskWords; ++w) {
            for (std::uint64_t bits = ids[static_cast<std::size_t>(w)];
                 bits != 0; bits &= bits - 1) {
                const int id = w * 64 + std::countr_zero(bits);
                if (!tickQueue(m, chip, id, c))
                    return false;
            }
        }
        tickPlanes(m, chip, c);
        return true;
    }

    /** Ticks queue @p id of member @p m at its event cycle @p now. */
    bool
    tickQueue(Member &m, int chip, int id, Cycle now)
    {
        const auto i = static_cast<std::size_t>(id);
        InstructionQueue &q = m.queues[i];
        if (m.at[i] < now)
            q.skipIdle(m.at[i], now);
        const Instruction *out[2] = {nullptr, nullptr};
        const int n = q.tick(now, out);
        m.at[i] = now + 1;
        for (int k = 0; k < n; ++k) {
            const auto index =
                static_cast<std::uint32_t>(out[k] - q.program().data());
            if (!dispatch(m, chip, id, *out[k], index, now))
                return false;
        }
        if (!m.done[i] && q.done()) {
            // Done is for good: a retired queue never parks again.
            m.done[i] = true;
            --m.notDone;
        }
        m.calendar.schedule(id, q.nextEventCycle(now + 1));
        return true;
    }

    /** A Notify at @p now: parked queues now know their release. */
    static void
    notify(Member &m, Cycle now)
    {
        m.barrier.notify(now);
        Cycle floor = now;
        for (const InstructionQueue &q : m.queues) {
            if (q.parked() && q.parkedSince() < floor)
                floor = q.parkedSince();
        }
        m.barrier.prune(floor);
        for (int id = 0; id < kNumIcus; ++id) {
            const InstructionQueue &q =
                m.queues[static_cast<std::size_t>(id)];
            if (q.parked() && m.calendar.due(id) == kNoEventCycle)
                m.calendar.schedule(id, q.nextEventCycle(now));
        }
    }

    /** Opens the plane's ABC or ACC window; false over an open one. */
    static bool
    openWindow(Plane &p, const Instruction &inst)
    {
        if (inst.op == Opcode::Abc) {
            if (p.abcLeft > 0)
                return false;
            p.abcLeft = inst.imm1;
            p.abcSrc = inst.srcA;
            p.abcStreams = dtypeBytes(inst.dtype);
        } else {
            if (p.accLeft > 0)
                return false;
            p.accLeft = inst.imm1;
            p.accDst = inst.dst;
        }
        return true;
    }

    /**
     * Runs C2C @p inst on link @p link at @p now, as C2cModule does.
     * @return false where the stepped link refuses it: a Send on an
     * unwired link, before its Deskew or while its serializer is busy,
     * and a Receive before Deskew.
     */
    bool
    c2c(Member &m, int link, const Instruction &inst, SlicePos pos,
        Cycle now)
    {
        Link &l = m.links[static_cast<std::size_t>(link)];
        switch (inst.op) {
          case Opcode::Deskew:
            l.deskewed = true;
            return true;
          case Opcode::Send:
            if (!l.peer || !l.deskewed || now < l.txBusyUntil)
                return false;
            consume(m.fabric, inst.srcA, 1, pos, now);
            l.txBusyUntil = now + kC2cSerializationCycles;
            l.peer->rx.push_back(now + kC2cSerializationCycles + wire_);
            return true;
          default: // Receive.
            if (!l.deskewed)
                return false;
            // No arrival due: the Receive produces nothing.
            if (l.rx.empty() || l.rx.front() > now)
                return true;
            l.rx.pop_front();
            produce(m.fabric, inst.dst, 1, pos,
                    now + opRow(Opcode::Receive).dFunc);
            return true;
        }
    }

    bool
    dispatch(Member &m, int chip, int id, const Instruction &inst,
             std::uint32_t index, Cycle now)
    {
        beginEvent(now, index, id, chip,
                   ExecutionTrace::EventKind::Dispatch);
        if (inst.op == Opcode::Notify) {
            notify(m, now);
            return true;
        }
        const OpRow &row = opRow(inst.op);
        if (row.windowed) {
            return openWindow(
                m.planes[static_cast<std::size_t>((id - IcuId::mxmBase) / 2)],
                inst);
        }
        const SlicePos pos = pos_[static_cast<std::size_t>(id)];
        if (row.slice == SliceKind::C2C)
            return c2c(m, id - IcuId::c2cBase, inst, pos, now);
        const Roles &r = roles_[static_cast<std::size_t>(inst.op)];
        for (const OpOperand *o : r.src) {
            if (o) {
                consume(m.fabric, inst.stream(o->field), streams(inst, o),
                        pos, now);
            }
        }
        if (r.dst)
            produce(m.fabric, inst.dst, streams(inst, r.dst), pos,
                    now + row.dFunc);
        return true;
    }

    /** Member @p m's MXM sequencer ticks at @p now, after its
     *  dispatches. */
    void
    tickPlanes(Member &m, int chip, Cycle now)
    {
        for (int p = 0; p < kMxmPlanes; ++p) {
            Plane &plane = m.planes[static_cast<std::size_t>(p)];
            if (plane.abcLeft == 0 && plane.accLeft == 0)
                continue;
            beginEvent(now, 0, p, chip, ExecutionTrace::EventKind::MxmTick);
            const SlicePos pos = Layout::mxmPos(p < 2 ? Hemisphere::West
                                                      : Hemisphere::East);
            if (plane.abcLeft > 0) {
                consume(m.fabric, plane.abcSrc, plane.abcStreams, pos, now);
                --plane.abcLeft;
            }
            if (plane.accLeft > 0) {
                produce(m.fabric, plane.accDst, 4, pos,
                        now + opTiming(Opcode::Acc).dFunc);
                --plane.accLeft;
            }
        }
    }

    void
    beginEvent(Cycle now, std::uint32_t index, int unit, int chip,
               ExecutionTrace::EventKind kind)
    {
        eventStart_ =
            static_cast<std::uint32_t>(trace_->consumeTape.size());
        ExecutionTrace::Event e;
        e.cycleOffset = static_cast<std::uint32_t>(now);
        e.instIndex = index;
        e.unit = static_cast<std::uint16_t>(unit);
        e.chip = static_cast<std::uint8_t>(chip);
        e.kind = kind;
        trace_->events.push_back(e);
    }

    void
    consume(const IndexFabric &fabric, StreamRef base, int count,
            SlicePos pos, Cycle now)
    {
        if (listing_)
            return;
        for (int k = 0; k < count; ++k) {
            const StreamRef s{static_cast<StreamId>(base.id + k), base.dir};
            trace_->consumeTape.push_back(fabric.sample(s, pos, now));
        }
    }

    void
    produce(IndexFabric &fabric, StreamRef base, int count, SlicePos pos,
            Cycle when)
    {
        for (int k = 0; k < count; ++k) {
            const StreamRef s{static_cast<StreamId>(base.id + k), base.dir};
            if (!listing_)
                produceAt_.push_back(eventStart_);
            fabric.schedule(s, pos, when,
                            static_cast<std::uint32_t>(produces_++));
        }
    }

    const std::vector<const AsmProgram *> &programs_;
    const Cycle wire_;
    /** A listing keeps only the events: no tape, no produce
     *  positions, nothing reserved. */
    const bool listing_;
    const std::array<Roles, kNumOpcodes> &roles_ = rolesTable();
    std::unique_ptr<ExecutionTrace> trace_;
    std::vector<std::unique_ptr<Member>> members_;
    /** Per queue, its slice's position: where its unit's streams
     *  meet the fabric. */
    std::array<SlicePos, kNumIcus> pos_{};
    /** One past the last cycle advance() ran. */
    Cycle end_ = 0;

    /** Per produce, the tape length at the start of its event. */
    std::vector<std::uint32_t> produceAt_;
    std::uint32_t eventStart_ = 0;
    std::uint64_t produces_ = 0;
};

/** The trace's cycle offsets are 32-bit. */
constexpr Cycle kMaxSpan = 0xffffffffull;

} // namespace

std::shared_ptr<const ExecutionTrace>
deriveTrace(const std::vector<const AsmProgram *> &members,
            Cycle wire_latency, Cycle max_span)
{
    const Cycle limit = std::min(max_span, kMaxSpan);
    Derivation d(members, wire_latency, /*listing=*/false);
    if (!d.load(limit) || !d.advance(limit))
        return nullptr;
    return d.seal();
}

std::shared_ptr<const ExecutionTrace>
deriveTrace(const AsmProgram &program, Cycle max_span)
{
    return deriveTrace({&program}, 0, max_span);
}

std::vector<ExecutionTrace::Event>
deriveSchedule(const AsmProgram &program, Cycle until)
{
    const std::vector<const AsmProgram *> members = {&program};
    const Cycle limit = std::min(until, kMaxSpan);
    Derivation d(members, 0, /*listing=*/true);
    if (d.load(limit))
        d.advance(limit);
    return std::move(d.events());
}

} // namespace tsp
