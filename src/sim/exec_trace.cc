#include "sim/exec_trace.hh"

#include <array>

#include "common/logging.hh"
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

namespace {

/**
 * The replay-side tape: produces write into the arena, consumes read
 * arena pointers. The arena holds one pinned slot per trace *slot*
 * (peak concurrently-live values), not per produce — the whole
 * exchange history stays cache-resident instead of growing to
 * gigabytes on dense models, and it never reallocates, so the
 * pointers handed out stay valid for a value's traced lifetime.
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
            // trace's order is the replay order.
            TSP_ASSERT(t < produced_);
            outs[i] = &arena_[trace_.produceSlot[t]];
        }
        next_ += n;
    }

    /** @return true once every traced exchange re-executed. */
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
    // Events re-execute one at a time in trace order, which is the
    // order the tape resolves exchanges in. The instructions
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
    // The replayed run exchanged exactly what the trace holds.
    TSP_ASSERT(player.drained());
}

std::uint64_t
traceKeyOf(const std::vector<SharedProgram> &programs, Cycle wire_latency)
{
    TSP_ASSERT(!programs.empty());
    std::uint64_t key = 0;
    const auto fold = [&key](std::uint64_t v) {
        key ^= v + 0x9e3779b97f4a7c15ull + (key << 6) + (key >> 2);
    };
    fold(programs.size());
    for (const SharedProgram &p : programs)
        fold(p.hash());
    fold(wire_latency);
    return key;
}

std::shared_ptr<const ExecutionTrace>
TraceCache::find(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
TraceCache::insert(std::uint64_t key,
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
