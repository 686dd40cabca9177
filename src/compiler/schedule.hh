/**
 * @file
 * The compiler's central artifact: a set of (ICU, cycle, instruction)
 * events with exact dispatch times.
 *
 * The TSP has no hardware scheduling — program order in each of the
 * 144 queues plus explicit NOP padding *is* the schedule (paper III).
 * Kernels append timed events; toAsm() lowers them to per-queue
 * programs by sorting each queue and inserting NOPs for the gaps, and
 * verifies that no queue is double-booked in a cycle.
 */

#ifndef TSP_COMPILER_SCHEDULE_HH
#define TSP_COMPILER_SCHEDULE_HH

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "isa/assembler.hh"

namespace tsp {

/** One scheduled dispatch. */
struct ScheduledInst
{
    Cycle cycle = 0;
    IcuId icu{};
    Instruction inst{};
};

/** A fully timed program under construction. */
class ScheduledProgram
{
  public:
    /** Appends an event; events may arrive in any order. */
    void
    emit(Cycle cycle, IcuId icu, Instruction inst)
    {
        if (released_) [[unlikely]]
            panicReleased("emit");
        finish_ = std::max(finish_, cycle + holdCycles(inst));
        events_.push_back({cycle, icu, std::move(inst)});
    }

    /**
     * @return the cycle the program retires at: the latest dispatch
     * cycle plus hold (holdCycles()) over every emitted event; 0 with
     * none. Kept by release().
     */
    Cycle finishCycle() const { return finish_; }

    /** @return all events (unsorted); empty once released. */
    const std::vector<ScheduledInst> &events() const { return events_; }

    /** @return number of events, also after release(). */
    std::size_t
    size() const
    {
        return released_ ? *released_ : events_.size();
    }

    /**
     * Frees the events once nothing will assemble them again (a
     * Lowering seals its program when a session binds it). size()
     * keeps its count; emit(), toAsm(), gantt() and listing() panic.
     */
    void release();

    /**
     * Lowers to per-queue instruction lists with NOP padding.
     *
     * With @p with_preamble, every queue begins with the compulsory
     * barrier (paper III.A.2): queue 0 issues Notify at cycle 0 and
     * every other queue parks on Sync, retiring at kBarrierLatency;
     * all events must then be scheduled at or after kProgramStart.
     *
     * With @p compress_repeats (default), runs of four or more
     * identical instructions at a uniform cadence collapse into
     * [inst, Repeat(n-1, d)] — the paper's Repeat instruction, which
     * shrinks program text (and therefore Ifetch bandwidth) without
     * changing a single dispatch cycle.
     *
     * Panics if a queue is over-booked in a cycle (more than one
     * event, or two for a MEM read/write dual-issue pair).
     */
    AsmProgram toAsm(bool with_preamble = false,
                     bool compress_repeats = true) const;

    /** @return total instructions across all queues of @p prog. */
    static std::size_t instructionCount(const AsmProgram &prog);

    /**
     * First cycle available to events in a preamble'd program: the
     * barrier releases at kBarrierLatency (35), so dispatch resumes
     * at 35 and the first even boundary is 36.
     */
    static constexpr Cycle kProgramStart = 36;

    /**
     * Renders an occupancy chart (the Fig. 11 style schedule dump):
     * one row per involved ICU, one column per cycle in
     * [@p from, @p to), '#' where an instruction dispatches.
     */
    std::string gantt(Cycle from, Cycle to) const;

    /**
     * Renders the schedule as an event table sorted by time:
     * "cycle  ICU  instruction" lines.
     */
    std::string listing() const;

  private:
    [[noreturn]] static void panicReleased(const char *who);

    std::vector<ScheduledInst> events_;
    Cycle finish_ = 0;
    /** The event count release() kept; empty before it. */
    std::optional<std::size_t> released_;
};

} // namespace tsp

#endif // TSP_COMPILER_SCHEDULE_HH
