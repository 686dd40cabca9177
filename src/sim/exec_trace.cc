#include "sim/exec_trace.hh"

#include <functional>

#include "arch/layout.hh"
#include "common/logging.hh"
#include "sim/chip.hh"

namespace tsp {

namespace {

/** instIndex_ entry of an instruction that has not dispatched yet. */
constexpr std::uint32_t kUnseen = 0xffffffffu;

} // namespace

std::size_t
ExecutionTrace::arenaBytes() const
{
    return static_cast<std::size_t>(slotCount) * sizeof(Vec320);
}

std::size_t
ExecutionTrace::memoryBytes() const
{
    // arenaBytes() is transient TapePlayer storage, not trace heap —
    // but every replay of this trace pins exactly that much, so the
    // cache budget must carry it or eviction under-counts what a
    // cached-and-replaying trace really holds resident.
    return sizeof(ExecutionTrace) + events.size() * sizeof(Event) +
           insts.size() * sizeof(Instruction) +
           consumeTape.size() * sizeof(std::uint32_t) +
           produceSlot.size() * sizeof(std::uint32_t) +
           chips.size() * sizeof(ChipDeltas) + arenaBytes();
}

TraceRecording::TraceRecording(std::vector<Chip *> chips)
    : chips_(std::move(chips)),
      trace_(std::make_unique<ExecutionTrace>())
{
    TSP_ASSERT(!chips_.empty() && chips_.size() <= 256);
    start_ = chips_[0]->now();
    snaps_.reserve(chips_.size());
    // Programs stay loaded for the whole run, so each program vector
    // gets its index table up front, and a dispatch finds its
    // instruction by its offset in the queue's program. instIndex_
    // may reallocate, but a moved table keeps its buffer, so the
    // queues' pointers into it stay valid.
    std::unordered_map<const Instruction *, std::uint32_t *> tableOf;
    queueInsts_.resize(chips_.size() * kNumIcus);
    for (std::size_t i = 0; i < chips_.size(); ++i) {
        Chip *c = chips_[i];
        TSP_ASSERT(c->now() == start_);
        snaps_.push_back(snapshot(*c));
        if (const SharedProgram &prog = c->program()) {
            for (const auto &[icu, insts] : prog->queues) {
                if (insts.empty())
                    continue;
                auto [it, fresh] = tableOf.try_emplace(insts.data());
                if (fresh) {
                    it->second =
                        instIndex_.emplace_back(insts.size(), kUnseen)
                            .data();
                }
                queueInsts_[i * kNumIcus +
                            static_cast<std::size_t>(icu)] = {
                    insts.data(), insts.size(), it->second};
            }
        }
        c->armTraceRecorder(this, static_cast<int>(i));
    }
    armed_ = true;
}

TraceRecording::~TraceRecording() { disarm(); }

void
TraceRecording::disarm()
{
    if (!armed_)
        return;
    for (Chip *c : chips_)
        c->disarmTraceRecorder();
    armed_ = false;
}

ExecutionTrace::ChipDeltas
TraceRecording::snapshot(const Chip &chip)
{
    ExecutionTrace::ChipDeltas s;
    s.dispatched = chip.totalDispatched();
    s.nopCycles = chip.totalNopCycles();
    s.parkedCycles = chip.totalParkedCycles();
    s.fabricHops = chip.fabric().totalHops();
    s.fabricWrites = chip.fabric().totalWrites();
    return s;
}

std::uint32_t
TraceRecording::offsetOf(Cycle now)
{
    const Cycle off = now - start_;
    if (off > 0xffffffffull) {
        poisoned_ = true;
        return 0;
    }
    return static_cast<std::uint32_t>(off);
}

std::uint32_t
TraceRecording::onProduce()
{
    if (produceCount_ >= kTapeUntagged ||
        trace_->consumeTape.size() >= kTapeUntagged) {
        poisoned_ = true;
        return 0;
    }
    // Interleaving position against the consume tape: finish() walks
    // both in recorded order to compute value liveness. A produce
    // counts as running at its event's start, so no slot its own
    // event consumed is free for it yet.
    produceAt_.push_back(eventStart_);
    return static_cast<std::uint32_t>(produceCount_++);
}

void
TraceRecording::onConsume(std::uint32_t tag)
{
    if (tag == kTapeUntagged)
        poisoned_ = true;
    trace_->consumeTape.push_back(tag);
}

void
TraceRecording::onDispatch(int chip, int queue_id,
                           const Instruction &inst, Cycle now)
{
    eventStart_ = static_cast<std::uint32_t>(trace_->consumeTape.size());
    // The instruction's place in its program identifies it — Repeat
    // re-issues and the steady state of a loop dedup to one stored
    // copy.
    const QueueInsts &q = queueInsts_[static_cast<std::size_t>(chip) *
                                          kNumIcus +
                                      static_cast<std::size_t>(queue_id)];
    TSP_ASSERT(std::less_equal<>{}(q.base, &inst) &&
               std::less<>{}(&inst, q.base + q.size));
    std::uint32_t &index = q.index[&inst - q.base];
    if (index == kUnseen) {
        index = static_cast<std::uint32_t>(trace_->insts.size());
        trace_->insts.push_back(inst);
    }
    ExecutionTrace::Event e;
    e.cycleOffset = offsetOf(now);
    e.instIndex = index;
    e.unit = static_cast<std::uint16_t>(queue_id);
    e.chip = static_cast<std::uint8_t>(chip);
    e.kind = ExecutionTrace::EventKind::Dispatch;
    trace_->events.push_back(e);
}

void
TraceRecording::onMxmTick(int chip, int plane, Cycle now)
{
    eventStart_ = static_cast<std::uint32_t>(trace_->consumeTape.size());
    ExecutionTrace::Event e;
    e.cycleOffset = offsetOf(now);
    e.unit = static_cast<std::uint16_t>(plane);
    e.chip = static_cast<std::uint8_t>(chip);
    e.kind = ExecutionTrace::EventKind::MxmTick;
    trace_->events.push_back(e);
}

std::shared_ptr<const ExecutionTrace>
TraceRecording::finish(bool completed)
{
    disarm();
    if (!completed || poisoned_ || !trace_)
        return nullptr;

    ExecutionTrace &t = *trace_;
    const Cycle end = chips_[0]->now();
    t.span = end - start_;
    t.produces = produceCount_;
    t.chips.reserve(chips_.size());
    for (std::size_t i = 0; i < chips_.size(); ++i) {
        const Chip &c = *chips_[i];
        TSP_ASSERT(c.now() == end);
        const ExecutionTrace::ChipDeltas &s0 = snaps_[i];
        ExecutionTrace::ChipDeltas d = snapshot(c);
        d.dispatched -= s0.dispatched;
        d.nopCycles -= s0.nopCycles;
        d.parkedCycles -= s0.parkedCycles;
        d.fabricHops -= s0.fabricHops;
        d.fabricWrites -= s0.fabricWrites;
        t.chips.push_back(d);
    }
    // Slot allocation: walk produces and consumes in recorded order,
    // freeing a value's slot when the event holding its last consume
    // ends (a produce sits at its event's start). Replay re-executes
    // the exact same interleaving, so a reused slot is only ever
    // overwritten after its previous value's final read, and a unit
    // may build its results in place while it still reads its
    // operands' slots.
    constexpr std::uint32_t kNever = 0xffffffffu;
    const auto produces32 = static_cast<std::uint32_t>(produceCount_);
    std::vector<std::uint32_t> lastUse(produces32, kNever);
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(t.consumeTape.size()); ++c) {
        const std::uint32_t tag = t.consumeTape[c];
        if (tag != kTapeMiss)
            lastUse[tag] = c;
    }
    t.produceSlot.resize(produces32);
    std::vector<std::uint32_t> freeSlots;
    std::uint32_t slots = 1; // Slot 0: scratch for unconsumed values.
    std::size_t c = 0;
    for (std::uint32_t tag = 0; tag < produces32; ++tag) {
        while (c < produceAt_[tag]) {
            const std::uint32_t done = t.consumeTape[c];
            if (done != kTapeMiss && lastUse[done] == c)
                freeSlots.push_back(t.produceSlot[done]);
            ++c;
        }
        if (lastUse[tag] == kNever) {
            t.produceSlot[tag] = 0;
        } else if (freeSlots.empty()) {
            t.produceSlot[tag] = slots++;
        } else {
            t.produceSlot[tag] = freeSlots.back();
            freeSlots.pop_back();
        }
    }
    t.slotCount = slots;

    t.events.shrink_to_fit();
    t.insts.shrink_to_fit();
    t.consumeTape.shrink_to_fit();
    return std::shared_ptr<const ExecutionTrace>(std::move(trace_));
}

namespace {

/**
 * The replay-side tape: produces write into the arena, consumes read
 * arena pointers. The arena holds one pinned slot per trace *slot*
 * (peak concurrently-live values), not per produce — the whole
 * exchange history stays cache-resident instead of growing to
 * gigabytes on dense models, and it never reallocates, so the
 * pointers handed out stay valid for a value's recorded lifetime.
 */
class TapePlayer final : public TapeReplayer
{
  public:
    explicit TapePlayer(const ExecutionTrace &trace)
        : trace_(trace),
          arena_(static_cast<std::size_t>(trace.slotCount))
    {
    }

    Vec320 *
    onProduce() override
    {
        TSP_ASSERT(produced_ < trace_.produceSlot.size());
        return &arena_[trace_.produceSlot[produced_++]];
    }

    void
    onConsumeRun(const Vec320 **outs, std::size_t n) override
    {
        TSP_ASSERT(next_ + n <= trace_.consumeTape.size());
        const std::uint32_t *tape = trace_.consumeTape.data() + next_;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t t = tape[i];
            if (t == kTapeMiss) {
                outs[i] = nullptr;
                continue;
            }
            // A consume can only cite a produce that already ran: the
            // recorded host order is the replay order.
            TSP_ASSERT(t < produced_);
            outs[i] = &arena_[trace_.produceSlot[t]];
        }
        next_ += n;
    }

    /** @return true once every recorded exchange re-executed. */
    bool
    drained() const
    {
        return next_ == trace_.consumeTape.size() &&
               produced_ == trace_.produces;
    }

  private:
    const ExecutionTrace &trace_;
    std::vector<Vec320> arena_;
    std::size_t produced_ = 0;
    std::size_t next_ = 0;
};

} // namespace

void
replayTrace(const ExecutionTrace &trace,
            const std::vector<Chip *> &chips)
{
    TSP_ASSERT(!chips.empty() && chips.size() == trace.chips.size());
    const Cycle start = chips[0]->now();
    TapePlayer player(trace);
    for (Chip *c : chips) {
        TSP_ASSERT(c->now() == start);
        c->beginReplay(&player);
    }
    // Events re-execute one at a time in recorded host order, which
    // is the order the tape resolves exchanges in.
    for (const ExecutionTrace::Event &e : trace.events) {
        Chip &c = *chips[e.chip];
        const Cycle cyc = start + e.cycleOffset;
        if (e.kind == ExecutionTrace::EventKind::Dispatch)
            c.replayDispatch(e.unit, trace.insts[e.instIndex], cyc);
        else
            c.replayMxmTick(e.unit, cyc);
    }
    for (std::size_t i = 0; i < chips.size(); ++i) {
        chips[i]->finishReplay(trace.chips[i], start + trace.span);
    }
    // The replayed run exchanged exactly what the recording did.
    TSP_ASSERT(player.drained());
}

TraceKey
traceKeyOf(const std::vector<SharedProgram> &programs)
{
    TSP_ASSERT(!programs.empty());
    std::uint64_t fingerprint = 0;
    for (const SharedProgram &p : programs) {
        fingerprint ^= p.hash() + 0x9e3779b97f4a7c15ull +
                       (fingerprint << 6) + (fingerprint >> 2);
    }
    return {programs.front().get(), fingerprint};
}

std::shared_ptr<const ExecutionTrace>
TraceCache::find(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
TraceCache::insert(const TraceKey &key,
                   std::shared_ptr<const ExecutionTrace> trace)
{
    if (!trace)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
        bytes_ -= it->second->second->memoryBytes();
        lru_.erase(it->second);
        map_.erase(it);
    }
    bytes_ += trace->memoryBytes();
    lru_.emplace_front(key, std::move(trace));
    map_[key] = lru_.begin();
    evictOverBudgetLocked();
}

void
TraceCache::invalidate(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return;
    bytes_ -= it->second->second->memoryBytes();
    lru_.erase(it->second);
    map_.erase(it);
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::size_t
TraceCache::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

void
TraceCache::evictOverBudgetLocked()
{
    // Keep at least the most recent entry: one oversized trace must
    // stay usable rather than thrash in and out.
    while (bytes_ > budget_ && lru_.size() > 1) {
        const auto &victim = lru_.back();
        bytes_ -= victim.second->memoryBytes();
        map_.erase(victim.first);
        lru_.pop_back();
    }
}

} // namespace tsp
