#include "sim/exec_trace.hh"

#include <algorithm>
#include <array>
#include <functional>

#include "arch/layout.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "sim/chip.hh"

namespace tsp {

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
    // Programs stay loaded for the whole run, so a dispatch's
    // instIndex is its instruction's offset in its queue's program.
    queueInsts_.resize(chips_.size() * kNumIcus);
    for (std::size_t i = 0; i < chips_.size(); ++i) {
        Chip *c = chips_[i];
        TSP_ASSERT(c->now() == start_);
        snaps_.push_back(snapshot(*c));
        if (const SharedProgram &prog = c->program()) {
            for (const auto &[icu, insts] : prog->queues) {
                queueInsts_[i * kNumIcus + static_cast<std::size_t>(icu)] =
                    {insts.data(), insts.size()};
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
    // The instruction's place in its program identifies it: Repeat
    // re-issues cite the instruction they repeat.
    const QueueInsts &q = queueInsts_[static_cast<std::size_t>(chip) *
                                          kNumIcus +
                                      static_cast<std::size_t>(queue_id)];
    TSP_ASSERT(std::less_equal<>{}(q.base, &inst) &&
               std::less<>{}(&inst, q.base + q.size));
    const auto index = static_cast<std::uint32_t>(&inst - q.base);
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
    assignTraceSlots(t, std::move(produceAt_));
    t.events.shrink_to_fit();
    t.consumeTape.shrink_to_fit();
    return std::shared_ptr<const ExecutionTrace>(std::move(trace_));
}

void
assignTraceSlots(ExecutionTrace &t, std::vector<std::uint32_t> produce_at)
{
    // Walk produces and consumes in recorded order, freeing a value's
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

std::string
traceMismatch(const ExecutionTrace &a, const ExecutionTrace &b)
{
    if (a.span != b.span)
        return strformat("span %llu vs %llu",
                         static_cast<unsigned long long>(a.span),
                         static_cast<unsigned long long>(b.span));
    if (a.produces != b.produces)
        return strformat("produces %llu vs %llu",
                         static_cast<unsigned long long>(a.produces),
                         static_cast<unsigned long long>(b.produces));
    const std::size_t events = std::min(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < events; ++i) {
        const ExecutionTrace::Event &x = a.events[i];
        const ExecutionTrace::Event &y = b.events[i];
        if (x.cycleOffset != y.cycleOffset || x.instIndex != y.instIndex ||
            x.unit != y.unit || x.chip != y.chip || x.kind != y.kind) {
            return strformat(
                "event %zu: %s unit %u chip %u inst %u at +%u vs %s unit "
                "%u chip %u inst %u at +%u",
                i,
                x.kind == ExecutionTrace::EventKind::Dispatch ? "dispatch"
                                                              : "tick",
                x.unit, x.chip, x.instIndex, x.cycleOffset,
                y.kind == ExecutionTrace::EventKind::Dispatch ? "dispatch"
                                                              : "tick",
                y.unit, y.chip, y.instIndex, y.cycleOffset);
        }
    }
    if (a.events.size() != b.events.size())
        return strformat("%zu vs %zu events", a.events.size(),
                         b.events.size());
    const std::size_t tape =
        std::min(a.consumeTape.size(), b.consumeTape.size());
    for (std::size_t i = 0; i < tape; ++i) {
        if (a.consumeTape[i] != b.consumeTape[i])
            return strformat("consume %zu samples produce %u vs %u", i,
                             a.consumeTape[i], b.consumeTape[i]);
    }
    if (a.consumeTape.size() != b.consumeTape.size())
        return strformat("%zu vs %zu consumes", a.consumeTape.size(),
                         b.consumeTape.size());
    if (a.produceSlot != b.produceSlot)
        return "produce slots differ";
    if (a.slotCount != b.slotCount)
        return strformat("%u vs %u slots", a.slotCount, b.slotCount);
    if (a.chips.size() != b.chips.size())
        return strformat("%zu vs %zu chips", a.chips.size(),
                         b.chips.size());
    for (std::size_t c = 0; c < a.chips.size(); ++c) {
        const ExecutionTrace::ChipDeltas &x = a.chips[c];
        const ExecutionTrace::ChipDeltas &y = b.chips[c];
        const struct
        {
            const char *name;
            std::uint64_t x, y;
        } fields[] = {{"dispatched", x.dispatched, y.dispatched},
                      {"nop cycles", x.nopCycles, y.nopCycles},
                      {"parked cycles", x.parkedCycles, y.parkedCycles},
                      {"fabric hops", x.fabricHops, y.fabricHops},
                      {"fabric writes", x.fabricWrites, y.fabricWrites}};
        for (const auto &f : fields) {
            if (f.x != f.y)
                return strformat("chip %zu %s %llu vs %llu", c, f.name,
                                 static_cast<unsigned long long>(f.x),
                                 static_cast<unsigned long long>(f.y));
        }
    }
    return "";
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
    // Each queue's loaded program, where its dispatches' instIndex
    // points.
    std::vector<std::array<std::span<const Instruction>, kNumIcus>> progs(
        chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i) {
        Chip *c = chips[i];
        TSP_ASSERT(c->now() == start);
        for (int q = 0; q < kNumIcus; ++q)
            progs[i][static_cast<std::size_t>(q)] = c->queueProgram(q);
        c->beginReplay(&player);
    }
    const auto instOf = [&](const ExecutionTrace::Event &e) {
        const std::span<const Instruction> p = progs[e.chip][e.unit];
        TSP_ASSERT(e.instIndex < p.size());
        return &p[e.instIndex];
    };
    // Events re-execute one at a time in recorded host order, which
    // is the order the tape resolves exchanges in. The instructions
    // lie in about a hundred queues' programs, read in step: fetch
    // each a few events ahead of its dispatch.
    constexpr std::size_t kAhead = 8;
    const std::size_t n = trace.events.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kAhead < n) {
            const ExecutionTrace::Event &next = trace.events[i + kAhead];
            if (next.kind == ExecutionTrace::EventKind::Dispatch) {
                const auto *p =
                    reinterpret_cast<const char *>(instOf(next));
                __builtin_prefetch(p);
                __builtin_prefetch(p + sizeof(Instruction) - 1);
            }
        }
        const ExecutionTrace::Event &e = trace.events[i];
        Chip &c = *chips[e.chip];
        const Cycle cyc = start + e.cycleOffset;
        if (e.kind == ExecutionTrace::EventKind::Dispatch)
            c.replayDispatch(e.unit, *instOf(e), cyc);
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
