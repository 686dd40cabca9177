/**
 * @file
 * Host runtime: owns a chip instance, emplaces the model via the DMA
 * manifest, loads the scheduled program (with its barrier preamble),
 * runs it to completion, and reads result tensors back — the host
 * interface duties of the paper's C2C/PCIe module (II item 6).
 *
 * Sessions are *reusable*: reset() reloads the program and re-applies
 * the DMA image so the same chip serves inference after inference, and
 * writeTensor() substitutes a fresh input between runs. Because the
 * schedule is static, every run of the same compiled model consumes
 * exactly the same number of cycles regardless of input values — the
 * property the serving layer's admission control (src/serve) is built
 * on.
 */

#ifndef TSP_RUNTIME_SESSION_HH
#define TSP_RUNTIME_SESSION_HH

#include <memory>

#include "compiler/lowering.hh"
#include "ref/qnn.hh"
#include "sim/chip.hh"
#include "sim/snapshot.hh"

namespace tsp {

/** Usable PCIe Gen4 x16 bandwidth for the DMA-time model (bytes/s). */
inline constexpr double kPcieGen4Bps = 32.0e9;

/** How one bounded run ended. */
enum class RunStatus : std::uint8_t
{
    Completed,    ///< Program retired within the cycle budget.
    CycleLimit,   ///< Budget exhausted mid-program.
    MachineCheck, ///< Uncorrectable error condemned the chip.
};

/** @return stable lower-case name for @p s. */
const char *runStatusName(RunStatus s);

/** Outcome of one bounded run. */
struct RunResult
{
    /** True when the program retired within the cycle budget. */
    bool completed = false;

    /** Why the run ended. */
    RunStatus status = RunStatus::Completed;

    /** Cycles consumed by this run (meaningless when !completed). */
    Cycle cycles = 0;
};

/** One compiled model bound to one chip. */
class InferenceSession
{
  public:
    /**
     * Builds the chip, applies @p lw's DMA image and loads its
     * program. The Lowering must be fully built (all layers added)
     * and must outlive the session (reset() re-reads its image).
     */
    explicit InferenceSession(Lowering &lw, ChipConfig cfg = {});

    /**
     * Same, but with a pre-assembled (shared) program — avoids
     * re-running toAsm() when many sessions serve one compiled
     * lowering. The program is hashed here, once; reset() reloads it
     * without rehashing or copying it.
     */
    InferenceSession(Lowering &lw,
                     std::shared_ptr<const AsmProgram> prog,
                     ChipConfig cfg = {});

    /**
     * Same, with a program whose hash its owner already computed
     * (e.g. a worker pool over a BatchProgramCache).
     */
    InferenceSession(Lowering &lw, SharedProgram prog,
                     ChipConfig cfg = {});

    /**
     * Rebinds the session to another compiled lowering (typically a
     * different batch size of the same model) without rebuilding the
     * chip. Takes effect at the next reset(), which loads @p prog and
     * applies @p lw's DMA image.
     */
    void bind(Lowering &lw, SharedProgram prog);

    /**
     * Runs to completion; @return cycles consumed by this run.
     * Calls fatal() if @p max_cycles elapse first — use runBounded()
     * to observe exhaustion as a status instead.
     */
    Cycle run(Cycle max_cycles = 500'000'000);

    /**
     * Runs for at most @p max_cycles (relative to the current chip
     * clock) and reports exhaustion explicitly instead of exiting.
     * After a timed-out run the chip is mid-program; the next
     * reset() rebuilds it from scratch.
     */
    RunResult runBounded(Cycle max_cycles = 500'000'000);

    /** @return true when the last run hit its cycle budget. */
    bool timedOut() const { return timedOut_; }

    /** @return true when the last run ended in a machine check. */
    bool machineChecked() const { return machineChecked_; }

    /**
     * @return first-error context of the most recent machine check
     * (valid once machineChecked(); survives reset() so callers can
     * report it after the retry).
     */
    const MachineCheckInfo &lastMachineCheck() const { return lastMc_; }

    /** @return chips rebuilt after timeouts/machine checks. */
    int rebuilds() const { return rebuilds_; }

    /** @return bind() calls since construction — how often this
     * engine re-staged a different compiled program (batch switches
     * and, in multi-model pools, weight swaps between families). */
    std::uint64_t binds() const { return binds_; }

    /**
     * Rearms the session for another inference: reloads the program
     * and re-applies the DMA image (restoring weights, constants and
     * the compile-time input). After a timed-out run the chip is
     * rebuilt wholesale, since a half-executed program leaves queues
     * and sequencers in an unknown state.
     */
    void reset();

    /**
     * Overwrites an activation tensor (typically the model input)
     * with dense [h x w x c] int8 data — every stored row of both
     * hemisphere parts, halos included, mirroring the compile-time
     * DMA layout. Models the per-request host input transfer.
     */
    void writeTensor(const LoweredTensor &t,
                     const std::vector<std::int8_t> &data);

    /** Reads a lowered tensor back into a dense reference tensor. */
    ref::QTensor readTensor(const LoweredTensor &t) const;

    /** @return the chip model. */
    Chip &chip() { return *chip_; }
    const Chip &chip() const { return *chip_; }

    // --- Periodic snapshots + mid-batch migration ---

    /**
     * Arms periodic snapshotting: bounded runs advance in chunks of
     * @p every cycles and capture a ChipSnapshot at each chunk
     * boundary (never after a machine check, so the last snapshot
     * always precedes the first uncorrectable error). 0 disables.
     * Capture is skipped silently whenever the chip refuses (e.g. a
     * trace recording is in progress). Chunking itself is invisible:
     * Chip::runBounded() stops bit-identically at any absolute cycle.
     */
    void enableSnapshots(Cycle every) { snapshotEvery_ = every; }

    /** @return the armed snapshot cadence (0 when disabled). */
    Cycle snapshotEvery() const { return snapshotEvery_; }

    /** @return the last captured snapshot, or nullptr. Cleared by
     *  reset() — a snapshot never outlives its batch. */
    const ChipSnapshot *lastSnapshot() const { return lastSnap_.get(); }

    /** @return snapshots captured since construction. */
    std::uint64_t snapshotCount() const { return snapshots_; }

    /** @return machine-check recoveries served via migration. */
    int migrations() const { return migrations_; }

    /**
     * Machine-check recovery without a full retry: rebuilds the chip
     * (fresh derived fault seed), reloads the program, restores the
     * last pre-fault snapshot onto it and resumes the run for at most
     * @p max_cycles more. The restored chip keeps its fresh RNG
     * streams, so the upset that condemned the source is not replayed
     * (scheduled FaultEvents do replay — they are wired to cycles).
     * Requires lastSnapshot() != nullptr; if the restore is refused
     * the session stays condemned and the result reads MachineCheck.
     */
    RunResult migrateAndResume(Cycle max_cycles = 500'000'000);

    /**
     * Enables the trace record/replay tier: the first complete run
     * after a reset() records the resolved micro-op sequence, and
     * subsequent fresh runs of the same bound program replay it (see
     * sim/exec_trace.hh). Runs with fault injection or a dispatch /
     * power trace enabled always take the normal path.
     */
    void enableReplay(bool on = true) { replayEnabled_ = on; }

    /** @return the trace recorded for the bound program, if any. */
    const std::shared_ptr<const ExecutionTrace> &
    trace() const
    {
        return trace_;
    }

    /** Installs a trace recorded elsewhere for the bound program. */
    void
    setTrace(std::shared_ptr<const ExecutionTrace> t)
    {
        trace_ = std::move(t);
    }

    /** @return runs served by replaying a recorded trace. */
    std::uint64_t replayCount() const { return replays_; }

    /** @return runs that successfully recorded a trace. */
    std::uint64_t recordCount() const { return records_; }

    /** @return the bound compiled program (serving-cache key). */
    const AsmProgram *program() const { return prog_.get(); }

    /** @return cycles consumed by the last run(). */
    Cycle cycles() const { return cycles_; }

    /**
     * @return chip cycles consumed over the session's lifetime,
     * *including* cycles burned on engines later condemned and
     * rebuilt — the honest compute cost of retries and migrations,
     * which the current chip's clock alone under-reports.
     */
    Cycle totalCycles() const { return retiredCycles_ + chip_->now(); }

    /** @return compute latency of the last run in seconds. */
    double latencySeconds() const;

    /** @return modeled one-time PCIe DMA time for the image. */
    double dmaSeconds() const { return dmaSeconds_; }

  private:
    /** The original per-cycle / fast-forward run path. */
    RunResult runRaw(Cycle max_cycles);

    /** Captures a snapshot if the chip permits one right now. */
    void captureSnapshot();

    /** @return true when this config may ever record or replay. */
    bool replayEligible() const;

    Lowering *lw_;
    ChipConfig cfg_;
    /** Cached assembly (with barrier preamble) and its hash. */
    SharedProgram prog_;
    std::unique_ptr<Chip> chip_;
    Cycle cycles_ = 0;
    bool timedOut_ = false;
    bool machineChecked_ = false;
    MachineCheckInfo lastMc_{};
    int rebuilds_ = 0;
    std::uint64_t binds_ = 0;
    double dmaSeconds_ = 0.0;
    /** Cycles consumed by chips already discarded (see totalCycles). */
    Cycle retiredCycles_ = 0;

    Cycle snapshotEvery_ = 0;
    std::unique_ptr<ChipSnapshot> lastSnap_;
    std::uint64_t snapshots_ = 0;
    int migrations_ = 0;

    bool replayEnabled_ = false;
    /**
     * True between reset()/construction and the next run: the chip
     * is at the freshly loaded program state a recording started
     * from, so a replay lands on identical footing.
     */
    bool fresh_ = true;
    std::shared_ptr<const ExecutionTrace> trace_;
    std::uint64_t replays_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace tsp

#endif // TSP_RUNTIME_SESSION_HH
