/**
 * @file
 * The top-level TSP chip model: 144 instruction queues driving 88 MEM
 * slices, the 16-ALU VXM, four MXM planes, two SXM complexes and the
 * C2C block, all communicating through the chip-wide stream register
 * file. One step() is one core-clock cycle; execution is exactly
 * deterministic — the same program produces the same cycle count and
 * the same stream/SRAM contents on every run.
 */

#ifndef TSP_SIM_CHIP_HH
#define TSP_SIM_CHIP_HH

#include <array>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "c2c/c2c_module.hh"
#include "common/stats.hh"
#include "icu/barrier.hh"
#include "icu/queue.hh"
#include "isa/assembler.hh"
#include "mem/fault.hh"
#include "mem/mem_slice.hh"
#include "mxm/mxm_plane.hh"
#include "sim/exec_trace.hh"
#include "sim/power.hh"
#include "sim/program.hh"
#include "stream/stream_io.hh"
#include "sxm/sxm_complex.hh"
#include "vxm/vxm_unit.hh"

namespace tsp {

struct ChipSnapshot;

/** The full first-generation TSP chip. */
class Chip
{
  public:
    explicit Chip(ChipConfig cfg = {});

    /** @return the active configuration. */
    const ChipConfig &config() const { return cfg_; }

    /**
     * Loads @p program into the instruction queues (replaces any).
     * The queues borrow its instruction vectors and the chip keeps a
     * reference, so the program outlives its creator's handle; its
     * carried hash becomes programHash(). Nothing is copied or
     * hashed, which makes a reload per request cheap.
     */
    void loadProgram(SharedProgram program);

    /**
     * One-shot form: takes ownership of @p program, hashes it once
     * and loads it as above. Callers that load one program on many
     * chips or many times should build a SharedProgram instead.
     */
    void
    loadProgram(AsmProgram program)
    {
        loadProgram(SharedProgram(std::move(program)));
    }

    /** Advances one core-clock cycle. */
    void step();

    /**
     * @return the earliest cycle >= now() at which any unit can act:
     * the min over instruction-queue events (dispatch, NOP expiry,
     * Repeat re-issue, Sync release), MXM sequencer activity, and
     * pending stream-fabric writes. now() when something happens this
     * cycle; kNoEventCycle when nothing can ever happen again without
     * a new program.
     */
    Cycle nextEventCycle() const;

    /**
     * Fast-forwards to @p target (> now()) in one jump. Every cycle
     * in [now(), target) must be event-free (the caller jumps to
     * nextEventCycle() or earlier); queues accumulate their idle
     * counters in closed form and the fabric bulk-advances — all
     * bit-identical to stepping cycle by cycle.
     */
    void advanceTo(Cycle target);

    /**
     * Runs until every queue has retired and all MXM sequencers are
     * idle, or @p max_cycles elapse.
     *
     * @return the final cycle count. Calls fatal() if the limit hits
     * (a deterministic program either finishes or is wrong).
     */
    Cycle run(Cycle max_cycles = 100'000'000);

    /**
     * Like run(), but surfaces limit exhaustion as a status instead
     * of calling fatal(): steps until done() or now() reaches
     * @p cycle_limit (an *absolute* cycle, so reloaded programs can
     * be bounded relative to the current clock).
     *
     * @return true when the program retired, false when the limit
     * hit first or a machine check was raised (distinguish with
     * machineCheck()). In either failure the chip is mid-program;
     * callers must discard or rebuild it before trusting further
     * runs — a machine-checked chip stays condemned until rebuilt.
     */
    bool runBounded(Cycle cycle_limit);

    /**
     * Advances the clock to exactly @p target (absolute), done or
     * not: a retired chip accumulates its idle accounting and static
     * energy just as per-cycle stepping would, and scheduled fault
     * events inside the span still land on their cycles. Used by the
     * pod scheduler to equalize member clocks — lock-step stepping
     * keeps stepping finished chips until the whole pod retires, so
     * bit-identical stats require the same tail here. Stops early
     * (clock halted) if a machine check is raised.
     */
    void runTo(Cycle target);

    /** @return true once any uncorrectable error condemned the chip. */
    bool machineCheck() const { return mcheck_->raised(); }

    /** @return first-error context (valid when machineCheck()). */
    const MachineCheckInfo &
    machineCheckInfo() const
    {
        return mcheck_->info();
    }

    /** @return total uncorrectable errors raised chip-wide. */
    std::uint64_t machineCheckCount() const { return mcheck_->raises(); }

    /** @return single-bit corrections chip-wide (stats()'s
     *  "ecc_corrected"), without building the stats map. */
    std::uint64_t correctedErrorCount() const;

    /** @return the fault injector, or nullptr when injection is off. */
    const FaultInjector *faultInjector() const { return faults_.get(); }

    /** @return current cycle. */
    Cycle now() const { return fabric_.now(); }

    /** @return true when all queues and sequencers are idle. */
    bool done() const;

    /** @return a MEM slice. */
    MemSlice &mem(Hemisphere hem, int index);
    const MemSlice &mem(Hemisphere hem, int index) const;

    /** @return the MEM slice owning @p addr. */
    MemSlice &
    mem(const GlobalAddr &addr)
    {
        return mem(addr.hem, addr.slice);
    }

    /** @return the stream fabric (tests and debugging). */
    StreamFabric &fabric() { return fabric_; }
    const StreamFabric &fabric() const { return fabric_; }

    /** @return the vector processor. */
    const VxmUnit &vxm() const { return *vxm_; }

    /** @return MXM plane 0..3. */
    const MxmPlane &mxm(int plane) const;

    /** @return a hemisphere's SXM complex. */
    const SxmComplex &sxm(Hemisphere hem) const;

    /** @return the chip-to-chip block. */
    C2cModule &c2c() { return *c2c_; }
    const C2cModule &c2c() const { return *c2c_; }

    /** @return energy so far: the power model over the lifetime
     *  activity counters and now() (sim/power.hh). */
    PowerReport power() const;

    /** @return the barrier controller (tests). */
    const BarrierController &barrier() const { return barrier_; }

    /** @return aggregate statistics across all units. */
    StatGroup stats() const;

    /** @return total instructions dispatched chip-wide. */
    std::uint64_t totalDispatched() const;

    /** @return total MACC operations across the four planes. */
    std::uint64_t totalMaccOps() const;

    /** @return cumulative NOP-idle cycles across all queues. */
    std::uint64_t totalNopCycles() const;

    /** @return cumulative Sync-parked cycles across all queues. */
    std::uint64_t totalParkedCycles() const;

    /** @return timed SRAM port accesses chip-wide (power stat). */
    std::uint64_t sramAccessCount() const { return sramAccesses_; }

    // --- Snapshot/restore (see sim/snapshot.hh) ---

    /**
     * Serializes the full architectural state into @p out at the
     * current quiesce point (between steps). Refuses — returning
     * false with @p err set — while a replay is in progress.
     */
    bool snapshot(ChipSnapshot &out, std::string *err = nullptr) const;

    /**
     * Restores @p snap onto this chip. The chip must have the same
     * configuration (fastForwardEnabled and fault seed excepted), the
     * same program loaded and the same fault environment; hash
     * mismatches refuse with @p err set. With the same fault seed the
     * RNG streams resume exactly (bit-identical continuation); with a
     * different seed this chip keeps its fresh streams (migration).
     * A refused restore leaves this chip exactly as it was.
     */
    bool restore(const ChipSnapshot &snap, std::string *err = nullptr);

    /** @return content hash of the loaded program (0 when none). */
    std::uint64_t programHash() const { return program_.hash(); }

    /** @return the loaded program (null when none). */
    const SharedProgram &program() const { return program_; }

    // --- Trace replay tier (see sim/exec_trace.hh) ---

    /**
     * Enters replay: the chip must be at the freshly loaded program
     * state the trace starts from (queues loaded, sequencers idle).
     * Stream produces/consumes are redirected to @p player until
     * finishReplay().
     */
    void beginReplay(TapeReplayer *player);

    /** @return queue @p icu_id's loaded program (empty when none). */
    std::span<const Instruction>
    queueProgram(int icu_id) const
    {
        return queues_[static_cast<std::size_t>(icu_id)].program();
    }

    /**
     * Re-executes one traced dispatch at absolute cycle @p when: @p
     * inst, an instruction of queue @p icu_id's loaded program.
     */
    void replayDispatch(int icu_id, const Instruction &inst, Cycle when);

    /**
     * Re-executes one traced MXM-plane tick at absolute cycle
     * @p when. The plane batches an int8 window's arithmetic itself
     * (mxm/mxm_plane.hh), so ticks replay one event at a time.
     */
    void replayMxmTick(int plane, Cycle when);

    /**
     * Leaves replay: jumps the clock to @p end (replay start +
     * traced span), credits the counters replay skipped from @p d
     * and retires the queues. The chip is left in the exact
     * end-of-run state of a normal run.
     */
    void finishReplay(const ExecutionTrace::ChipDeltas &d, Cycle end);

  private:
    void dispatch(const IcuId &icu, const Instruction &inst);
    void dispatchMem(const IcuId &icu, const Instruction &inst);

    ChipConfig cfg_;
    StreamFabric fabric_;
    BarrierController barrier_;

    // Constructed before (destroyed after) the units holding raw
    // pointers to them.
    std::unique_ptr<FaultInjector> faults_;    // Null: injection off.
    std::unique_ptr<MachineCheckSink> mcheck_;

    std::vector<MemSlice> memSlices_;          // 88: W0..43, E0..43
    std::unique_ptr<VxmUnit> vxm_;
    std::vector<std::unique_ptr<MxmPlane>> mxm_;
    std::vector<std::unique_ptr<SxmComplex>> sxm_;
    std::unique_ptr<C2cModule> c2c_;
    std::unique_ptr<StreamIo> memIo_;          // MEM slices' stream port.
    /**
     * Where the stepped tier's memIo_ copies and checks the operands
     * of a Write, Gather or Scatter and Ifetch's text pair when a code
     * does not hold or a fault injector is attached; otherwise
     * operands are read in their fabric slots, and replay reads tape
     * slots. Every copy overwrites what it uses, so nothing re-zeroes
     * it.
     */
    alignas(64) Vec320 memScratch_[2];

    /** The loaded program; queues_ point into its instructions. */
    SharedProgram program_;
    std::vector<InstructionQueue> queues_;     // 144.

    /**
     * Ids of the queues that are not inert (InstructionQueue::inert),
     * ascending. Every per-cycle scan (step, nextEventCycle,
     * advanceTo, done, the Notify floor) walks only these: an inert
     * queue neither dispatches, counts, parks nor has an event, so
     * skipping it changes nothing. Rebuilt by loadProgram() and a
     * committed restore(); step() drops a queue once it turns inert;
     * finishReplay() empties it.
     */
    std::vector<int> live_;

    /** Refills live_ from the queues' state at now(). */
    void rebuildLive();

    /**
     * Loads every unit from @p snap's payload (restore()'s decode,
     * header already checked). Writes as it reads, so a refusal can
     * leave the chip half-loaded; restore() runs it on a scratch chip
     * first.
     */
    bool decodePayload(const ChipSnapshot &snap, std::string *err);

    std::uint64_t ifetches_ = 0;

    /**
     * Counters replay credits wholesale because the machinery that
     * would bump them per cycle is skipped (queue scans never run).
     * Chip-lifetime cumulative, like the queue counters they shadow;
     * never reset.
     */
    std::uint64_t dispatchedAdjust_ = 0;
    std::uint64_t nopAdjust_ = 0;
    std::uint64_t parkedAdjust_ = 0;

    /**
     * True when the last step() dispatched nothing and no MXM
     * sequencer was streaming. A skippable idle span always begins
     * with such a cycle, so runBounded() consults the (O(live
     * queues)) event scan only after a quiet step — dense schedule
     * regions pay nothing for fast-forward support.
     */
    bool lastStepQuiet_ = true;

    /**
     * Timed SRAM accesses, counted incrementally at MEM dispatch
     * (read/write/gather/scatter each use one port access) so the
     * power model never rescans all 88 slices.
     */
    std::uint64_t sramAccesses_ = 0;
};

} // namespace tsp

#endif // TSP_SIM_CHIP_HH
