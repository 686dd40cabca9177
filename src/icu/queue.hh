/**
 * @file
 * One of the 144 independent instruction queues (paper III.A).
 *
 * Each queue holds a compiler-ordered instruction list and issues at
 * most one instruction per cycle. NOP(N) provides cycle-precise delay,
 * Repeat(n, d) re-issues the previous instruction, and Sync parks the
 * queue until a Notify broadcast arrives. The ICU has no stall logic
 * beyond these explicit instructions — program order plus NOP padding
 * *is* the schedule.
 */

#ifndef TSP_ICU_QUEUE_HH
#define TSP_ICU_QUEUE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arch/layout.hh"
#include "common/snapshot_io.hh"
#include "icu/barrier.hh"
#include "isa/instruction.hh"

namespace tsp {

/** One instruction queue plus its dispatch state machine. */
class InstructionQueue
{
  public:
    /**
     * @param id which of the 144 queues this is.
     * @param barrier shared chip-wide barrier controller.
     */
    InstructionQueue(IcuId id, BarrierController &barrier);

    /**
     * Points the queue at @p program and resets dispatch state. The
     * queue borrows the instructions: the caller keeps them alive and
     * unmodified while they are loaded (a chip holds the shared
     * program its queues point into). An empty span unloads.
     */
    void loadProgram(std::span<const Instruction> program);

    /** Deleted: borrowing a temporary would leave a dangling queue. */
    void loadProgram(std::vector<Instruction> &&) = delete;

    /**
     * Advances one cycle.
     *
     * Fills @p out with up to 2 instructions dispatched to the
     * functional slice this cycle (2 when the program co-issues a
     * MEM read/write pair via kFlagCoIssue).
     *
     * @return the number of dispatched instructions (0 if the queue
     * NOP'd, parked, was empty, or retired a purely local
     * instruction).
     */
    int tick(Cycle now, const Instruction *out[2]);

    /**
     * @return the earliest cycle >= @p now at which tick() could
     * dispatch or change state: the pending Repeat re-issue, the
     * Sync release (when a qualifying Notify broadcast exists), the
     * end of a NOP delay, or @p now itself when an instruction is
     * ready. kNoEventCycle when the queue is retired or parked with
     * no qualifying broadcast (a later Notify creates the event).
     *
     * Mirrors tick()'s branch order exactly: ticking every cycle in
     * [now, nextEventCycle(now)) dispatches nothing and only
     * accumulates idle counters — the span skipIdle() accounts for.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Fast-forwards this queue over the provably idle span
     * [@p now, @p target), crediting the NOP / parked cycle counters
     * exactly as per-cycle tick() calls would have. @p target must
     * not exceed nextEventCycle(now).
     */
    void skipIdle(Cycle now, Cycle target);

    /** @return true once every instruction has retired. */
    bool
    done() const
    {
        return pc_ >= program_.size() && !parked_ && repeatsLeft_ == 0;
    }

    /**
     * @return true when the queue can no longer act at or after
     * @p now: every instruction has retired and a trailing NOP no
     * longer gates (and counts) cycles. From then on tick() returns 0
     * and touches no counter, nextEventCycle() is kNoEventCycle and
     * skipIdle() does nothing, so a chip may stop visiting the queue.
     * Only loadProgram() or loadState() ends the state. A parked
     * queue is never inert.
     */
    bool inert(Cycle now) const { return done() && now >= busyUntil_; }

    /**
     * Retires the loaded program without ticking (trace-replay tier:
     * the recorded run retired it, and replay dispatches directly).
     * Counters are preserved — the chip credits the recorded deltas.
     */
    void
    retireForReplay()
    {
        pc_ = program_.size();
        busyUntil_ = 0;
        parked_ = false;
        repeatInst_ = nullptr;
        repeatsLeft_ = 0;
    }

    /** @return true if parked on a Sync right now. */
    bool parked() const { return parked_; }

    /** @return the cycle this queue parked (valid while parked()). */
    Cycle parkedSince() const { return parkedAt_; }

    /** @return queue identity. */
    IcuId id() const { return id_; }

    /** @return instructions dispatched to the slice so far. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** @return cycles spent NOP-delayed (clock-gated). */
    std::uint64_t nopCycles() const { return nopCycles_; }

    /** @return cycles spent parked on Sync. */
    std::uint64_t parkedCycles() const { return parkedCycles_; }

    /** @return number of program instructions not yet retired. */
    std::size_t pendingCount() const { return program_.size() - pc_; }

    /**
     * Serializes dispatch state and counters. The program itself is
     * *not* serialized — restore requires the identical program to be
     * loaded already (verified by content hash at the chip level);
     * the Repeat target travels as an index into it.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores dispatch state over the already-loaded program. Marks
     * @p r failed on a Repeat target outside that program.
     */
    void loadState(SnapshotReader &r);

  private:
    IcuId id_;
    BarrierController &barrier_;

    std::span<const Instruction> program_; ///< Borrowed; see loadProgram.
    std::size_t pc_ = 0;

    /** Queue is idle until this cycle (exclusive) due to NOP. */
    Cycle busyUntil_ = 0;

    bool parked_ = false;
    Cycle parkedAt_ = 0;

    // Repeat state: re-issue of the previous instruction.
    const Instruction *repeatInst_ = nullptr;
    std::uint32_t repeatsLeft_ = 0;
    std::uint32_t repeatGap_ = 0;
    Cycle nextRepeatAt_ = 0;

    std::uint64_t dispatched_ = 0;
    std::uint64_t nopCycles_ = 0;
    std::uint64_t parkedCycles_ = 0;
};

} // namespace tsp

#endif // TSP_ICU_QUEUE_HH
