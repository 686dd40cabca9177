/**
 * @file
 * Trace record/replay: the third execution tier.
 *
 * The first run of a program (per-cycle or fast-forward — they are
 * bit-identical) can *record* the resolved micro-op sequence: every
 * queue dispatch and every active-MXM tick, with cycle offsets from
 * run start, plus a consume tape citing which produce each stream
 * consume sampled. *Replay* then re-executes exactly those events
 * against the real functional units — the numerics run for real, so
 * fresh inputs staged in SRAM flow through — while skipping
 * everything input-independent: the 144-queue scan, NOP/Sync/Repeat
 * bookkeeping, fabric flow and barrier scans. Counters the skipped
 * machinery would have bumped are credited from recorded per-chip
 * deltas, leaving cycles, stats and energy (a function of those
 * counters) bit-identical to a normal run.
 *
 * A trace holds no data values (produces are re-computed at replay),
 * so it is valid for any identically configured chip running the
 * same program — including a freshly rebuilt one — which is what
 * lets a serving pool share traces across workers via TraceCache.
 *
 * Recording *poisons* itself (finish() returns null) when it sees
 * anything replay could not reproduce: a consume of a fabric entry
 * written outside any StreamIo (kTapeUntagged), or a cycle offset
 * overflowing 32 bits. A recording also lists every dispatch in order
 * (recorded()), which is what the dispatch listing and Chrome trace
 * export read. Recording with fault injection armed is fine; replaying
 * such a recording is not — an injector mutates consumed values in
 * ways the tape does not capture (InferenceSession gates on this).
 */

#ifndef TSP_SIM_EXEC_TRACE_HH
#define TSP_SIM_EXEC_TRACE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hh"
#include "sim/program.hh"
#include "stream/trace_tape.hh"

namespace tsp {

class Chip;

/** One recorded run: the replay tier's input. Immutable once built. */
struct ExecutionTrace
{
    enum class EventKind : std::uint8_t
    {
        Dispatch, ///< One instruction issued by queue `unit`.
        MxmTick,  ///< One active-cycle tick of MXM plane `unit`.
    };

    /** One re-executable event, in recorded (host) order. */
    struct Event
    {
        std::uint32_t cycleOffset = 0; ///< Cycles after run start.
        std::uint32_t instIndex = 0;   ///< Into insts (Dispatch only).
        std::uint16_t unit = 0;        ///< Queue id / plane number.
        std::uint8_t chip = 0;         ///< Pod member index.
        EventKind kind = EventKind::Dispatch;
    };

    /**
     * Per-chip counter deltas of the recorded run for everything
     * replay skips (queue/idle counters, fabric flow). Counters that
     * re-execution bumps naturally (MACCs, SRAM accesses, ECC, C2C,
     * notifies) are *not* here — crediting them too would
     * double-count.
     */
    struct ChipDeltas
    {
        std::uint64_t dispatched = 0;
        std::uint64_t nopCycles = 0;
        std::uint64_t parkedCycles = 0;
        std::uint64_t fabricHops = 0;
        std::uint64_t fabricWrites = 0;
    };

    std::vector<Event> events;
    /** Deduplicated dispatch payloads (Repeat re-issues share one). */
    std::vector<Instruction> insts;
    /** Per consume, the produce index sampled (or kTapeMiss). */
    std::vector<std::uint32_t> consumeTape;
    /**
     * Per produce, the replay-log slot holding its value. A produced
     * vector is dead after its last recorded consume, so slots are
     * reused: the replay log needs only the peak number of live
     * values (a few hundred) instead of one slot per produce
     * (gigabytes for a dense model). Slot 0 is a shared scratch for
     * values no consume ever samples.
     */
    std::vector<std::uint32_t> produceSlot;
    std::uint32_t slotCount = 1; ///< Replay-log size (>= 1).
    std::vector<ChipDeltas> chips;
    Cycle span = 0; ///< Cycles the recorded run consumed.
    std::uint64_t produces = 0;

    /**
     * @return bytes of the pinned Vec320 arena one replay of this
     * trace allocates (slotCount slots; see trace_tape.hh).
     */
    std::size_t arenaBytes() const;

    /**
     * @return approximate resident footprint for cache accounting:
     * the trace's own heap plus arenaBytes(), since a cached trace
     * is held precisely to be replayed and each replay pins one
     * arena of that size.
     */
    std::size_t memoryBytes() const;
};

/**
 * Arms recording on a set of chips (one, or every pod member) for
 * the duration of one run. Usage:
 *
 *   TraceRecording rec({&chip});
 *   ... run the program normally ...
 *   auto trace = rec.finish(completed);  // null if not replayable
 *
 * All chips must share one clock value at construction (pod members
 * are equalized between collectives). The destructor disarms if
 * finish() was never called.
 */
class TraceRecording final : public TapeRecorder
{
  public:
    explicit TraceRecording(std::vector<Chip *> chips);
    ~TraceRecording() override;

    TraceRecording(const TraceRecording &) = delete;
    TraceRecording &operator=(const TraceRecording &) = delete;

    // TapeRecorder (called by StreamIo through the fabric hooks).
    std::uint32_t onProduce() override;
    void onConsume(std::uint32_t tag) override;

    // Called by Chip::step() at each dispatch / active-plane tick.
    void onDispatch(int chip, int queue_id, const Instruction &inst,
                    Cycle now);
    void onMxmTick(int chip, int plane, Cycle now);

    /** @return true when the run is known unreplayable. */
    bool poisoned() const { return poisoned_; }

    /**
     * @return what has been recorded so far (events with cycle
     * offsets from the recording's start, and their instructions).
     * Valid until finish() seals a replayable trace, so a run that
     * was cut off or machine-checked still lists what dispatched.
     */
    const ExecutionTrace &recorded() const { return *trace_; }

    /**
     * Disarms and seals the recording.
     *
     * @param completed whether the recorded run retired cleanly.
     * @return the immutable trace, or null when it must not be
     * replayed (run failed, or recording poisoned itself).
     */
    std::shared_ptr<const ExecutionTrace> finish(bool completed);

  private:
    /** @return @p chip's lifetime totals of the ChipDeltas counters. */
    static ExecutionTrace::ChipDeltas snapshot(const Chip &chip);
    std::uint32_t offsetOf(Cycle now);
    void disarm();

    std::vector<Chip *> chips_;
    /** Per chip, the totals at record start. */
    std::vector<ExecutionTrace::ChipDeltas> snaps_;
    Cycle start_ = 0;
    std::unique_ptr<ExecutionTrace> trace_;
    std::unordered_map<const Instruction *, std::uint32_t> instIndex_;
    /** Per produce, the consume-tape length when it ran (liveness). */
    std::vector<std::uint32_t> produceAt_;
    std::uint64_t produceCount_ = 0;
    bool poisoned_ = false;
    bool armed_ = false;
};

/**
 * Replays @p trace on @p chips (identically configured to — not
 * necessarily the same objects as — the recorded set, with the same
 * programs loaded and clocks equal across members). On return the
 * chips are in the exact end-of-run state of a normal run: done(),
 * clocks advanced by trace.span, stats credited.
 */
void replayTrace(const ExecutionTrace &trace,
                 const std::vector<Chip *> &chips);

/**
 * TraceCache key: an identity pointer *plus* a content fingerprint
 * (e.g. hashProgram() of the compiled program). The pointer alone is
 * an ABA hazard: retire a program, allocate a different one at the
 * same address, and a pointer-keyed cache would serve the stale tape
 * — replayed wholesale as the wrong program's results. A lookup whose
 * fingerprint differs from the cached entry's simply misses, and the
 * stale entry ages out of the LRU.
 */
struct TraceKey
{
    const void *ptr = nullptr;
    std::uint64_t fingerprint = 0;

    TraceKey(const void *p, std::uint64_t fp = 0)
        : ptr(p), fingerprint(fp)
    {
    }

    bool
    operator==(const TraceKey &o) const
    {
        return ptr == o.ptr && fingerprint == o.fingerprint;
    }
};

struct TraceKeyHash
{
    std::size_t
    operator()(const TraceKey &k) const
    {
        // Multiplicative mix; the pointer and the fingerprint both
        // perturb every output bit.
        std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.ptr);
        h ^= k.fingerprint + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
        return static_cast<std::size_t>(h);
    }
};

/**
 * @return the key of a bound program set, one program per pod member
 * in ring order: the first program's identity plus a fold of every
 * member's carried hash. The one definition shared by the session's
 * lookups and the model registry's eager invalidation.
 */
TraceKey traceKeyOf(const std::vector<SharedProgram> &programs);

/**
 * A byte-bounded LRU cache of execution traces shared by a serving
 * pool's workers, keyed by compiled-program identity. Thread-safe.
 */
class TraceCache
{
  public:
    /** Default byte budget (a dense-model trace is tens of MB). */
    static constexpr std::size_t kDefaultBudget =
        std::size_t{256} << 20;

    explicit TraceCache(std::size_t budget_bytes = kDefaultBudget)
        : budget_(budget_bytes)
    {
    }

    /** @return the cached trace for @p key, or null; refreshes LRU. */
    std::shared_ptr<const ExecutionTrace> find(const TraceKey &key);

    /** Inserts (or replaces) @p key's trace; evicts LRU over budget. */
    void insert(const TraceKey &key,
                std::shared_ptr<const ExecutionTrace> trace);

    /** Drops @p key's trace (weight reinstall, program retire). */
    void invalidate(const TraceKey &key);

    /** @return cached trace count. */
    std::size_t size() const;

    /** @return bytes held across all cached traces. */
    std::size_t memoryBytes() const;

  private:
    using LruList = std::list<
        std::pair<TraceKey, std::shared_ptr<const ExecutionTrace>>>;

    void evictOverBudgetLocked();

    mutable std::mutex mu_;
    LruList lru_; ///< Front = most recent.
    std::unordered_map<TraceKey, LruList::iterator, TraceKeyHash>
        map_;
    std::size_t bytes_ = 0;
    std::size_t budget_;
};

} // namespace tsp

#endif // TSP_SIM_EXEC_TRACE_HH
