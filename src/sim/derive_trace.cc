/**
 * @file
 * deriveTrace(): a one-chip program's replay trace from its text.
 *
 * On this machine the queue text fixes every dispatch cycle (paper
 * section III: the compiler tracks all 144 queues' logical time), and
 * a stream value moves one register a cycle, so the trace a recording
 * of the program's run would seal is a function of the text. The
 * derivation computes it in three parts:
 *
 *  - *Dispatches.* The real InstructionQueues and BarrierController
 *    advance from event to event on a bucket calendar: a queue ticks
 *    only at its nextEventCycle(), and skipIdle() credits the idle
 *    span before it, exactly as the fast-forward core does. Live
 *    queues tick in id order within a cycle, then the MXM planes,
 *    which is the order Chip::step() records.
 *  - *Stream effects.* Each dispatch, and each tick of an open ABC or
 *    ACC window, takes its reads and writes from its kOpTable row:
 *    consumes first, in the unit's order (scatter reads its map
 *    stream first), then produces, visible d_func cycles later. A
 *    windowed row's streams belong to its ticks.
 *  - *The index-only fabric.* A value written at position p in cycle
 *    t sits at p + (now - t) on an eastward stream (p - (now - t)
 *    westward) until it passes the chip edge or a later write to its
 *    register replaces it. So a consume samples the last write on its
 *    own diagonal: the ring entry the fabric would use, holding the
 *    latest write whose exact diagonal matches. Hops and writes follow
 *    from each value's life on that diagonal.
 *
 * It ends with TraceRecording's own slot-allocation pass
 * (assignTraceSlots()), so the trace equals the recording field by
 * field; ctest holds the recording as its oracle.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <queue>
#include <utility>

#include "arch/layout.hh"
#include "common/logging.hh"
#include "icu/barrier.hh"
#include "icu/queue.hh"
#include "sim/exec_trace.hh"

namespace tsp {

namespace {

constexpr int kPositions = Layout::numPositions;

/**
 * The stream register file as produce indices: what a recording's
 * tags say, without a vector, a pool slot or a per-cycle advance.
 */
class IndexFabric
{
  public:
    IndexFabric()
        : entries_(std::size_t{2} * kStreamsPerDir * kPositions),
          pending_(kHorizon)
    {
    }

    /** Schedules produce @p tag on @p s at @p pos, visible at @p when. */
    void
    schedule(StreamRef s, SlicePos pos, Cycle when, std::uint32_t tag)
    {
        // Producer delays are architectural constants well inside the
        // calendar, and every one is at least a cycle.
        TSP_ASSERT(when > applied_ && when - applied_ < kHorizon);
        Batch &b = pending_[when % kHorizon];
        if (b.writes.empty())
            b.when = when;
        TSP_ASSERT(b.when == when);
        b.writes.push_back({s, pos, tag});
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
                   ? e.tag
                   : kTapeMiss;
    }

    /** @return hops of a run that ends at @p end (after applyUntil()). */
    std::uint64_t
    hops(Cycle end) const
    {
        std::uint64_t h = hops_;
        for (const Entry &e : entries_) {
            const Cycle until = e.at + life(e.dir(), e.pos);
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
        std::uint32_t at = 0;  ///< The cycle it was written.
        std::uint32_t tag = 0; ///< The produce it holds.
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
        std::uint32_t tag;
    };

    struct Batch
    {
        Cycle when = 0;
        std::vector<Pending> writes; ///< Capacity is reused.
    };

    /** Calendar depth; the largest producer delay (ACC's) is 21. */
    static constexpr Cycle kHorizon = 128;

    /** @return the hops a value written at @p pos makes before it
     *  passes the chip edge: to past position N - 1 eastward, past 0
     *  westward. */
    static Cycle
    life(Direction dir, int pos)
    {
        return dir == Direction::East ? static_cast<Cycle>(kPositions - pos)
                                      : static_cast<Cycle>(pos + 1);
    }

    /**
     * @return the ring entry holding register @p pos of @p s in a cycle
     * whose phase (cycle % N) is @p phase: the fabric's entryOf(). A
     * value keeps its entry while it flows, so an entry holds one
     * diagonal, position minus (eastward) or plus (westward) time,
     * modulo N.
     */
    static std::size_t
    index(StreamRef s, SlicePos pos, int phase)
    {
        int e = s.dir == Direction::East ? pos - phase : pos + phase;
        if (e < 0)
            e += kPositions;
        else if (e >= kPositions)
            e -= kPositions;
        const std::size_t ring =
            (s.dir == Direction::West ? kStreamsPerDir : 0) + s.id;
        return ring * kPositions + static_cast<std::size_t>(e);
    }

    bool
    apply(const Pending &w, Cycle t, int phase)
    {
        Entry &e = entries_[index(w.s, w.pos, phase)];
        if (e.valid) {
            const Cycle until = e.at + life(e.dir(), e.pos);
            if (until > t) {
                // The register still holds a value, and this write
                // replaces it: while a value is on the chip, only
                // writes on its own diagonal share its entry.
                if (e.at == t)
                    return false;
                hops_ -= until - t;
            }
        }
        e = {static_cast<std::uint32_t>(t), w.tag,
             static_cast<std::uint8_t>(w.pos), w.s.dir == Direction::West,
             true};
        hops_ += life(w.s.dir, w.pos);
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

/** One derivation: the state a stepped run of the program keeps. */
class Derivation
{
  public:
    Derivation(const AsmProgram &program, Cycle max_span)
        : program_(program), maxSpan_(max_span),
          trace_(std::make_unique<ExecutionTrace>()),
          buckets_(kBuckets)
    {
        queues_.reserve(kNumIcus);
        for (int i = 0; i < kNumIcus; ++i) {
            queues_.emplace_back(IcuId{i}, barrier_);
            pos_[static_cast<std::size_t>(i)] = IcuId{i}.pos();
        }
        due_.fill(kNoEventCycle);
        done_.fill(true);
    }

    std::shared_ptr<const ExecutionTrace>
    run()
    {
        if (!load())
            return nullptr;
        Cycle from = 0;
        Cycle end = 0;
        while (notDone_ > 0 || planesBusy()) {
            const Cycle c = planesBusy() ? from : earliestDue(from);
            // Nothing left to happen while a queue still waits: the
            // program never retires.
            if (c == kNoEventCycle || c >= maxSpan_ ||
                !fabric_.applyUntil(c)) {
                return nullptr;
            }
            const std::array<std::uint64_t, kMaskWords> ids = take(c);
            for (int w = 0; w < kMaskWords; ++w) {
                for (std::uint64_t m = ids[w]; m != 0; m &= m - 1) {
                    const int id = w * 64 + std::countr_zero(m);
                    if (!tickQueue(id, c))
                        return nullptr;
                }
            }
            tickPlanes(c);
            from = c + 1;
            end = from;
        }
        if (!fabric_.applyUntil(end))
            return nullptr;
        return seal(end);
    }

  private:
    static constexpr int kMaskWords = (kNumIcus + 63) / 64;
    /** Calendar buckets (a power of two): NOP gaps past them wait in
     *  far_. */
    static constexpr Cycle kBuckets = 1024;

    /** An MXM plane's open windows. */
    struct Plane
    {
        std::uint32_t abcLeft = 0; ///< ABC ticks to go.
        StreamRef abcSrc{};
        int abcStreams = 1;        ///< 2 for an fp16 activation pair.
        std::uint32_t accLeft = 0; ///< ACC ticks to go.
        StreamRef accDst{};
    };

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

    /** One calendar cycle: the queues due then, as an id mask. */
    struct Bucket
    {
        Cycle when = 0;
        std::array<std::uint64_t, kMaskWords> ids{};
    };

    /**
     * Loads the program into the queues, as Chip::loadProgram() does.
     * @return false for a program the derivation does not cover or a
     * stepped run would refuse (see deriveTrace()).
     */
    bool
    load()
    {
        // What a run that retires adds to the trace: exactly its
        // consumes and produces, and at most its events (ticks of one
        // plane's ABC and ACC windows may share one). Reserved up
        // front, so the trace never moves while it grows.
        std::size_t events = 0, tape = 0, produced = 0;
        for (const auto &[icu, insts] : program_.queues) {
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
                    inst = &insts[repeated(insts, pc) - 1];
                }
                const Roles &r = roles_[static_cast<std::size_t>(inst->op)];
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
            InstructionQueue &q = queues_[i];
            q.loadProgram(insts);
            done_[i] = q.done();
            notDone_ += done_[i] ? 0 : 1;
            schedule(icu, q.nextEventCycle(0));
        }
        // Past the tape's 32-bit produce tags (the recorder poisons on
        // them too); a trace with as many events is not reserved.
        if (events >= kTapeUntagged || tape >= kTapeUntagged ||
            produced >= kTapeUntagged) {
            return false;
        }
        trace_->events.reserve(events);
        trace_->consumeTape.reserve(tape);
        produceAt_.reserve(produced);
        return true;
    }

    /**
     * @return one past the index of the instruction the Repeat at @p pc
     * re-issues: the last one before it that is not a NOP (0 when there
     * is none).
     */
    static std::size_t
    repeated(const std::vector<Instruction> &insts, std::size_t pc)
    {
        while (pc > 0 && insts[pc - 1].op == Opcode::Nop)
            --pc;
        return pc;
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
        if (slice == SliceKind::C2C ||
            (slice != SliceKind::ICU && slice != icu.kind()) ||
            !operandError(inst).empty()) {
            return false;
        }
        if (inst.op == Opcode::Abc)
            return inst.dtype == DType::Int8 || inst.dtype == DType::Fp16;
        if (inst.op == Opcode::Repeat) {
            // What it re-issues must be neither a Repeat nor a Sync.
            const std::size_t prev = repeated(insts, pc);
            return prev > 0 && insts[prev - 1].op != Opcode::Repeat &&
                   insts[prev - 1].op != Opcode::Sync;
        }
        return true;
    }

    bool
    planesBusy() const
    {
        return std::any_of(planes_.begin(), planes_.end(),
                           [](const Plane &p) {
                               return p.abcLeft > 0 || p.accLeft > 0;
                           });
    }

    // --- The calendar. ---

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

    void
    put(int id, Cycle at)
    {
        Bucket &b = buckets_[at & (kBuckets - 1)];
        if (b.ids == std::array<std::uint64_t, kMaskWords>{})
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

    /** @return the earliest queue event at or after @p from. */
    Cycle
    earliestDue(Cycle from)
    {
        rebase(from);
        if (inBuckets_ == 0)
            return far_.empty() ? kNoEventCycle : far_.top().first;
        for (Cycle c = from;; ++c) {
            const Bucket &b = buckets_[c & (kBuckets - 1)];
            if (b.when == c &&
                b.ids != std::array<std::uint64_t, kMaskWords>{}) {
                return c;
            }
        }
    }

    /** @return (and unfiles) the queues due at @p c. */
    std::array<std::uint64_t, kMaskWords>
    take(Cycle c)
    {
        rebase(c);
        Bucket &b = buckets_[c & (kBuckets - 1)];
        if (b.when != c)
            return {};
        const std::array<std::uint64_t, kMaskWords> ids = b.ids;
        b.ids = {};
        for (const std::uint64_t m : ids)
            inBuckets_ -= static_cast<std::size_t>(std::popcount(m));
        return ids;
    }

    // --- Queues and units. ---

    /** Ticks queue @p id at its event cycle @p now. */
    bool
    tickQueue(int id, Cycle now)
    {
        const auto i = static_cast<std::size_t>(id);
        InstructionQueue &q = queues_[i];
        if (at_[i] < now)
            q.skipIdle(at_[i], now);
        const Instruction *out[2] = {nullptr, nullptr};
        const int n = q.tick(now, out);
        at_[i] = now + 1;
        for (int k = 0; k < n; ++k) {
            const auto index =
                static_cast<std::uint32_t>(out[k] - q.program().data());
            if (!dispatch(id, *out[k], index, now))
                return false;
        }
        if (!done_[i] && q.done()) {
            // Done is for good: a retired queue never parks again.
            done_[i] = true;
            --notDone_;
        }
        schedule(id, q.nextEventCycle(now + 1));
        return true;
    }

    /** A Notify at @p now: parked queues now know their release. */
    void
    notify(Cycle now)
    {
        barrier_.notify(now);
        Cycle floor = now;
        for (const InstructionQueue &q : queues_) {
            if (q.parked() && q.parkedSince() < floor)
                floor = q.parkedSince();
        }
        barrier_.prune(floor);
        for (int id = 0; id < kNumIcus; ++id) {
            const InstructionQueue &q =
                queues_[static_cast<std::size_t>(id)];
            if (q.parked() &&
                due_[static_cast<std::size_t>(id)] == kNoEventCycle)
                schedule(id, q.nextEventCycle(now));
        }
    }

    /** Opens the plane's ABC or ACC window; false over an open one. */
    bool
    openWindow(int plane, const Instruction &inst)
    {
        Plane &p = planes_[static_cast<std::size_t>(plane)];
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

    bool
    dispatch(int id, const Instruction &inst, std::uint32_t index,
             Cycle now)
    {
        beginEvent(now, index, id, ExecutionTrace::EventKind::Dispatch);
        if (inst.op == Opcode::Notify) {
            notify(now);
            return true;
        }
        if (opRow(inst.op).windowed)
            return openWindow((id - IcuId::mxmBase) / 2, inst);
        const SlicePos pos = pos_[static_cast<std::size_t>(id)];
        const Roles &r = roles_[static_cast<std::size_t>(inst.op)];
        for (const OpOperand *o : r.src) {
            if (o)
                consume(inst.stream(o->field), streams(inst, o), pos, now);
        }
        if (r.dst) {
            produce(inst.dst, streams(inst, r.dst), pos,
                    now + opRow(inst.op).dFunc);
        }
        return true;
    }

    /** The MXM sequencers' ticks at @p now, after the dispatches. */
    void
    tickPlanes(Cycle now)
    {
        for (int p = 0; p < kMxmPlanes; ++p) {
            Plane &plane = planes_[static_cast<std::size_t>(p)];
            if (plane.abcLeft == 0 && plane.accLeft == 0)
                continue;
            beginEvent(now, 0, p, ExecutionTrace::EventKind::MxmTick);
            const SlicePos pos = Layout::mxmPos(p < 2 ? Hemisphere::West
                                                      : Hemisphere::East);
            if (plane.abcLeft > 0) {
                consume(plane.abcSrc, plane.abcStreams, pos, now);
                --plane.abcLeft;
            }
            if (plane.accLeft > 0) {
                produce(plane.accDst, 4, pos,
                        now + opTiming(Opcode::Acc).dFunc);
                --plane.accLeft;
            }
        }
    }

    void
    beginEvent(Cycle now, std::uint32_t index, int unit,
               ExecutionTrace::EventKind kind)
    {
        eventStart_ =
            static_cast<std::uint32_t>(trace_->consumeTape.size());
        ExecutionTrace::Event e;
        e.cycleOffset = static_cast<std::uint32_t>(now);
        e.instIndex = index;
        e.unit = static_cast<std::uint16_t>(unit);
        e.kind = kind;
        trace_->events.push_back(e);
    }

    void
    consume(StreamRef base, int count, SlicePos pos, Cycle now)
    {
        for (int k = 0; k < count; ++k) {
            const StreamRef s{static_cast<StreamId>(base.id + k), base.dir};
            trace_->consumeTape.push_back(fabric_.sample(s, pos, now));
        }
    }

    void
    produce(StreamRef base, int count, SlicePos pos, Cycle when)
    {
        for (int k = 0; k < count; ++k) {
            const StreamRef s{static_cast<StreamId>(base.id + k), base.dir};
            produceAt_.push_back(eventStart_);
            fabric_.schedule(s, pos, when,
                             static_cast<std::uint32_t>(produces_++));
        }
    }

    /** @return the trace of a run that ends at @p end. */
    std::shared_ptr<const ExecutionTrace>
    seal(Cycle end)
    {
        ExecutionTrace &t = *trace_;
        ExecutionTrace::ChipDeltas d;
        for (std::size_t i = 0; i < queues_.size(); ++i) {
            InstructionQueue &q = queues_[i];
            q.skipIdle(at_[i], end);
            d.dispatched += q.dispatched();
            d.nopCycles += q.nopCycles();
            d.parkedCycles += q.parkedCycles();
        }
        d.fabricHops = fabric_.hops(end);
        d.fabricWrites = fabric_.writes();
        t.chips.push_back(d);
        t.span = end;
        t.produces = produces_;
        // The reserve fits the tape and the produces exactly; the
        // events keep what shared ticks left of theirs, since
        // shrinking would copy them all.
        assignTraceSlots(t, std::move(produceAt_));
        return std::shared_ptr<const ExecutionTrace>(std::move(trace_));
    }

    const AsmProgram &program_;
    const Cycle maxSpan_;
    const std::array<Roles, kNumOpcodes> &roles_ = rolesTable();
    std::unique_ptr<ExecutionTrace> trace_;

    BarrierController barrier_;
    std::vector<InstructionQueue> queues_;
    /** Per queue, its slice's position: where its unit's streams
     *  meet the fabric. */
    std::array<SlicePos, kNumIcus> pos_{};

    /** Per queue, the cycle its idle counters are credited up to. */
    std::array<Cycle, kNumIcus> at_{};
    /**
     * Per queue, its filed event cycle, or kNoEventCycle when it has
     * none (retired, or parked with no release yet).
     */
    std::array<Cycle, kNumIcus> due_{};
    /** Per queue, whether it is done(); notDone_ counts the rest. */
    std::array<bool, kNumIcus> done_{};
    int notDone_ = 0;
    std::array<Plane, kMxmPlanes> planes_{};
    IndexFabric fabric_;

    std::vector<Bucket> buckets_;
    std::size_t inBuckets_ = 0;
    /** Buckets hold the events of [base_, base_ + kBuckets). */
    Cycle base_ = 0;
    std::priority_queue<std::pair<Cycle, int>,
                        std::vector<std::pair<Cycle, int>>,
                        std::greater<>>
        far_;

    std::vector<std::uint32_t> produceAt_;
    std::uint32_t eventStart_ = 0;
    std::uint64_t produces_ = 0;
};

} // namespace

std::shared_ptr<const ExecutionTrace>
deriveTrace(const AsmProgram &program, Cycle max_span)
{
    return Derivation(program, std::min<Cycle>(max_span, 0xffffffffull))
        .run();
}

} // namespace tsp
