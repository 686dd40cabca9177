/**
 * @file
 * Trace replay: the third execution tier.
 *
 * A trace is the resolved micro-op sequence of one run: every queue
 * dispatch and every active-MXM tick, with cycle offsets from run
 * start, plus a consume tape citing which produce each stream consume
 * sampled. *Replay* re-executes exactly those events against the real
 * functional units — the numerics run for real, so fresh inputs
 * staged in SRAM flow through — while skipping everything
 * input-independent: the 144-queue scan, NOP/Sync/Repeat bookkeeping,
 * fabric flow and barrier scans. Counters the skipped machinery would
 * have bumped are credited from per-chip deltas, leaving cycles,
 * stats and energy (a function of those counters) bit-identical to a
 * normal run.
 *
 * A trace is derived from the program text (deriveTrace()): the
 * queues' schedule fixes every dispatch, the C2C links' timing fixes
 * when a Receive has a vector to drive, and an index-only pass over
 * stream flow resolves every consume. It covers one chip or a pod's
 * ring of members. The stepped tiers (per-cycle and fast-forward,
 * which are bit-identical) are the reference: ctest replays each
 * derived trace against a stepped run of the same program.
 *
 * A trace holds no data values (produces are re-computed at replay)
 * and no instructions (an event cites its instruction's index in its
 * queue's loaded program), so it is valid for any identically
 * configured chip running the same program text (another program
 * object, a freshly rebuilt chip, other weights), which is what lets
 * a serving pool share traces across workers and families via
 * TraceCache. Replaying with fault injection armed is not: an
 * injector mutates consumed values in ways the tape does not capture
 * (InferenceSession gates on this).
 */

#ifndef TSP_SIM_EXEC_TRACE_HH
#define TSP_SIM_EXEC_TRACE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/assembler.hh"
#include "sim/program.hh"
#include "stream/trace_tape.hh"

namespace tsp {

class Chip;

/** One run's trace: the replay tier's input. Immutable once built. */
struct ExecutionTrace
{
    enum class EventKind : std::uint8_t
    {
        Dispatch, ///< One instruction issued by queue `unit`.
        MxmTick,  ///< One active-cycle tick of MXM plane `unit`.
    };

    /** One re-executable event, in replay order. */
    struct Event
    {
        std::uint32_t cycleOffset = 0; ///< Cycles after run start.
        /**
         * Dispatch only: the instruction's index in queue `unit`'s
         * loaded program. A Repeat re-issue cites the instruction it
         * repeats.
         */
        std::uint32_t instIndex = 0;
        std::uint16_t unit = 0;        ///< Queue id / plane number.
        std::uint8_t chip = 0;         ///< Pod member index.
        EventKind kind = EventKind::Dispatch;
    };

    /**
     * Per-chip counter deltas of the traced run for everything
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
    /** Per consume, the produce index sampled (or kTapeMiss). */
    std::vector<std::uint32_t> consumeTape;
    /**
     * Per produce, the replay-log slot holding its value. A produced
     * vector is dead once the event (dispatch or MXM tick) holding
     * its last consume ends, so slots are reused: the replay
     * log needs only the peak number of live values (a few hundred)
     * instead of one slot per produce (gigabytes for a dense model).
     * No produce takes a slot its own event consumed, so a unit can
     * write results into their slots while it reads its operands
     * from theirs. Slot 0 is a shared scratch for values no consume
     * ever samples.
     */
    std::vector<std::uint32_t> produceSlot;
    std::uint32_t slotCount = 1; ///< Replay-log size (>= 1).
    std::vector<ChipDeltas> chips;
    Cycle span = 0; ///< Cycles the traced run consumes.
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
 * Derives, from the text of a pod's member programs alone (@p members,
 * one per member in ring order), the trace of their run on freshly
 * loaded members with empty fabrics and idle links, wired as Pod
 * wires them (link 1 of member i to link 0 of member i + 1, @p
 * wire_latency cycles of flight; a pod of one wires no link). The
 * real InstructionQueues and BarrierController advance from event to
 * event on a calendar, the members cycle by cycle in ring order as
 * Pod::stepAll() steps them; each dispatch and each tick of an ABC or
 * ACC window takes its stream reads and writes from its kOpTable row
 * (consumes first, in the unit's order, then produces at d_func);
 * a Send at cycle t lands on its peer's link at t + serialization +
 * wire, and a Receive produces only when an arrival is due; and each
 * consume is resolved on an index-only fabric, where a value written
 * at position p in cycle t flows along the diagonal p +- (now - t)
 * until it passes the chip edge or is overwritten.
 *
 * @return null (step instead) for a program the derivation does not
 * cover or that a stepped run would refuse: an instruction its
 * queue's slice cannot run, a stream group or window outside its
 * unit's limits, a window issued over an active one, two writes to
 * one stream register in one cycle, a Send on an unwired link, before
 * its Deskew or while the link still serializes, a Receive before
 * Deskew, or a run that would not retire within @p max_span cycles
 * (never beyond 2^32 - 1, the trace's offset range). A text with a
 * queue that cannot retire within @p max_span by its NOPs, Repeats
 * and instruction count alone is declined before anything is
 * reserved.
 */
std::shared_ptr<const ExecutionTrace>
deriveTrace(const std::vector<const AsmProgram *> &members,
            Cycle wire_latency, Cycle max_span = 0xffffffffull);

/** deriveTrace() of a lone chip running @p program. */
std::shared_ptr<const ExecutionTrace>
deriveTrace(const AsmProgram &program, Cycle max_span = 0xffffffffull);

/**
 * @return the events deriveTrace() lists for a lone chip running
 * @p program that fall before cycle @p until (at most 2^32 - 1), in
 * order: what a stepped run that stopped at @p until dispatched,
 * whether or not it retires by then (a cut-off, machine-checked or
 * never-retiring run). Empty for a program the derivation does not
 * cover; it ends where a stepped run would refuse to go on. It keeps
 * no tape and reserves nothing from the text, so its memory grows
 * with what dispatched before @p until, whatever the text would run.
 */
std::vector<ExecutionTrace::Event> deriveSchedule(const AsmProgram &program,
                                                  Cycle until);

/**
 * Replays @p trace on @p chips (identically configured members, in
 * ring order, with the traced programs loaded, clocks equal across
 * members and empty fabrics). On return the
 * chips are in the exact end-of-run state of a normal run: done(),
 * clocks advanced by trace.span, stats credited.
 */
void replayTrace(const ExecutionTrace &trace,
                 const std::vector<Chip *> &chips);

/**
 * @return the TraceCache key of a bound program set, one program per
 * pod member in ring order, on a ring of @p wire_latency: a fold of
 * the member count, each member's carried hashProgram() and the wire
 * latency, which is everything deriveTrace() reads. Two program
 * objects with one text share one key, and so one trace.
 */
std::uint64_t traceKeyOf(const std::vector<SharedProgram> &programs,
                         Cycle wire_latency);

/**
 * A byte-bounded LRU cache of execution traces shared by a serving
 * pool's workers, keyed by traceKeyOf(). A trace follows from its
 * key's text alone, so an entry never goes stale: it only ages out.
 * Thread-safe.
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
    std::shared_ptr<const ExecutionTrace> find(std::uint64_t key);

    /** Inserts (or replaces) @p key's trace; evicts LRU over budget. */
    void insert(std::uint64_t key,
                std::shared_ptr<const ExecutionTrace> trace);

    /** @return cached trace count. */
    std::size_t size() const;

    /** @return bytes held across all cached traces. */
    std::size_t memoryBytes() const;

  private:
    using LruList = std::list<
        std::pair<std::uint64_t, std::shared_ptr<const ExecutionTrace>>>;

    void evictOverBudgetLocked();

    mutable std::mutex mu_;
    LruList lru_; ///< Front = most recent.
    std::unordered_map<std::uint64_t, LruList::iterator> map_;
    std::size_t bytes_ = 0;
    std::size_t budget_;
};

} // namespace tsp

#endif // TSP_SIM_EXEC_TRACE_HH
