/**
 * @file
 * Host runtime: owns a pod of N >= 1 chips, emplaces the model via
 * the DMA manifest, loads one scheduled program per member (with its
 * barrier preamble), runs it to completion, and reads result tensors
 * back — the host interface duties of the paper's C2C/PCIe module
 * (II item 6).
 *
 * A chip is a pod of one. The paper's chips scale out on one clock
 * domain over statically scheduled C2C links, so a multi-chip
 * collective runs under the same execution contract as one chip and
 * one engine serves both. A pod of one wires no link and keeps the
 * configured fault seed: it is the bare chip, bit for bit.
 *
 * Sessions are *reusable*: reset() reloads the programs and re-applies
 * the DMA image so the same pod serves inference after inference, and
 * writeTensor() substitutes a fresh input between runs. Because the
 * schedule is static, every run of the same compiled model consumes
 * exactly the same number of cycles regardless of input values — the
 * property the serving layer's admission control (src/serve) is built
 * on.
 *
 * Reliability semantics scale up from the chip: a machine check on
 * *any* member condemns the *whole* pod (a collective's result is a
 * function of every member's state), and reset() after a timeout or
 * machine check rebuilds every member with a derived fault seed.
 */

#ifndef TSP_RUNTIME_SESSION_HH
#define TSP_RUNTIME_SESSION_HH

#include <memory>
#include <vector>

#include "c2c/pod.hh"
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

/** Outcome of one bounded run. */
struct RunResult
{
    /** True when the program retired within the cycle budget. */
    bool completed = false;

    /** Why the run ended. */
    RunStatus status = RunStatus::Completed;

    /** Cycles consumed by this run (meaningless when !completed). */
    Cycle cycles = 0;

    /**
     * After a machine check: the program cycles done (since reset())
     * at the session's last clean snapshot, where migrateAndResume()
     * continues; 0 when there is none.
     */
    Cycle resumeAt = 0;
};

/** One compiled workload bound to a pod of N >= 1 chips. */
class InferenceSession
{
  public:
    /**
     * Builds one chip, applies @p lw's DMA image and loads its
     * program, the lowering's one cached assembly
     * (Lowering::assembled()). The Lowering must be fully built (all
     * layers added). Binding seals it (see bind()): from then on it
     * holds only its run half, which must outlive the session,
     * because reset() re-applies its image.
     */
    explicit InferenceSession(Lowering &lw, ChipConfig cfg = {});

    /**
     * Same, but with a pre-assembled (shared) program of @p lw — for
     * a caller that assembles the program itself. The program is
     * hashed here, once; reset() reloads it without rehashing or
     * copying it.
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
     * Builds a pod of @p chips (see Pod's ctor for member fault
     * seeds) with nothing bound: bind() and reset() before the first
     * run.
     */
    InferenceSession(int chips, Cycle wire_latency, ChipConfig cfg = {});

    /**
     * Binds one program per member (ring order) and, optionally, the
     * Lowering whose DMA image member 0 receives (it must outlive the
     * binding). Binding seals @p lw (Lowering::seal()): its build
     * state is freed, and the session keeps only a pointer to its
     * image. Takes effect at the next reset(), which loads the
     * programs and applies the image; any held trace or snapshot is
     * of the previous programs and is dropped, and no run before that
     * reset may derive, replay or migrate.
     */
    void bind(std::vector<SharedProgram> programs,
              Lowering *lw = nullptr);

    /** Single-chip shorthand for bind({prog}, &lw). */
    void
    bind(Lowering &lw, SharedProgram prog)
    {
        bind({std::move(prog)}, &lw);
    }

    /**
     * Runs to completion; @return cycles consumed by this run.
     * Calls fatal() if @p max_cycles elapse first — use runBounded()
     * to observe exhaustion as a status instead.
     */
    Cycle run(Cycle max_cycles = 500'000'000);

    /**
     * Runs for at most @p max_cycles (relative to the current pod
     * clock) and reports exhaustion explicitly instead of exiting.
     * After a failed run the pod is mid-program; the next reset()
     * rebuilds it from scratch.
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

    /**
     * @return ring index of the member that raised the most recent
     * machine check (-1 before any; survives reset()).
     */
    int machineCheckChip() const { return mcChip_; }

    /** @return pods rebuilt after timeouts/machine checks. */
    int rebuilds() const { return rebuilds_; }

    /**
     * Rearms the session for another inference: reloads the bound
     * programs and re-applies the DMA image (restoring weights,
     * constants and the compile-time input). After a timed-out or
     * machine-checked run every member is rebuilt first, since a
     * half-executed program leaves queues and sequencers in an
     * unknown state. Memory a rebuild discards is only restored from
     * the image: restage backdoor inputs after every reset().
     */
    void reset();

    /**
     * Overwrites an activation tensor (typically the model input) on
     * member 0 with dense [h x w x c] int8 data — every stored row of
     * both hemisphere parts, halos included, mirroring the
     * compile-time DMA layout. Models the per-request host input
     * transfer.
     */
    void writeTensor(const LoweredTensor &t,
                     const std::vector<std::int8_t> &data);

    /** Reads a lowered tensor on member 0 back into a dense
     *  reference tensor. */
    ref::QTensor readTensor(const LoweredTensor &t) const;

    /** @return member 0 (the chip of a single-chip session). */
    Chip &chip() { return pod_->chip(0); }
    const Chip &chip() const { return pod_->chip(0); }

    /** @return the pod. */
    Pod &pod() { return *pod_; }
    const Pod &pod() const { return *pod_; }

    // --- Periodic snapshots + mid-batch migration ---

    /**
     * Arms periodic snapshotting: bounded runs advance in chunks of
     * @p every cycles and capture a PodSnapshot at each chunk
     * boundary (never after a machine check, so the last snapshot
     * always precedes the first uncorrectable error). 0 disables.
     * Capture is skipped silently whenever a member refuses. A run
     * that replays a trace takes no snapshot. Chunking itself is
     * invisible:
     * Pod::runAllBounded() stops bit-identically at any absolute
     * cycle, and a chunk boundary is a consistent cut even when
     * member clocks differ by the lookahead, because every C2C vector
     * is delivered into the receiver's link queue at send time.
     */
    void enableSnapshots(Cycle every) { snapshotEvery_ = every; }

    /** @return the last captured snapshot, or nullptr. Cleared by
     *  reset() and bind() — a snapshot never outlives its batch. */
    const PodSnapshot *lastSnapshot() const { return lastSnap_.get(); }

    /** @return snapshots captured since construction. */
    std::uint64_t snapshotCount() const { return snapshots_; }

    /** @return machine-check recoveries served via migration. */
    int migrations() const { return migrations_; }

    /**
     * Machine-check recovery without a full retry: rebuilds the pod
     * (fresh derived fault seed), reloads the programs, restores the
     * last pre-fault snapshot onto it and resumes the run at program
     * cycle RunResult::resumeAt for at most @p max_cycles more; the
     * returned cycles count from there. The restored members keep
     * their fresh RNG streams, so the upset that condemned the source
     * is not replayed (scheduled FaultEvents do replay — they are
     * wired to cycles). Requires a machine-checked run whose resumeAt
     * is nonzero. The snapshot is always of the session's own
     * programs, config and fault environment, so a refused restore is
     * a simulator bug and panics with the reason.
     */
    RunResult migrateAndResume(Cycle max_cycles = 500'000'000);

    /**
     * Migrations a caller attempts for one run before giving up (a
     * resumed run can machine-check again under sustained fault
     * rates).
     */
    static constexpr int kMaxMigrations = 8;

    /**
     * Enables the trace replay tier: the first fresh run after a
     * reset() derives a trace of every member's resolved micro-op
     * sequence from the bound programs' text (deriveTrace(), for any
     * pod size) and replays it, and later fresh runs replay the same
     * trace (see sim/exec_trace.hh). A first run that starts with
     * values on a member's fabric or a vector on its links, a program
     * the derivation declines and one that will not retire within the
     * budget step instead and keep no trace. With a @p pool, traces
     * are shared: a fresh run with no trace of its own looks the bound
     * programs' text up in the pool first (traceKeyOf()), and a new
     * trace is inserted there. Runs with fault injection always step.
     */
    void
    enableReplay(std::shared_ptr<TraceCache> pool = nullptr)
    {
        replayEnabled_ = true;
        pool_ = std::move(pool);
    }

    /** @return the trace derived for the bound programs, if any. */
    const std::shared_ptr<const ExecutionTrace> &
    trace() const
    {
        return trace_;
    }

    /** @return runs served by replaying the session's trace after
     *  the first run that made it. */
    std::uint64_t replayCount() const { return replays_; }

    /** @return first runs that derived the session's trace (and
     *  replayed it). */
    std::uint64_t recordCount() const { return records_; }

    /** @return member 0's bound compiled program. */
    const AsmProgram *
    program() const
    {
        return programs_.empty() ? nullptr : programs_.front().get();
    }

    /** @return cycles consumed by the last run(). */
    Cycle cycles() const { return cycles_; }

    /**
     * @return member-summed chip cycles consumed over the session's
     * lifetime, *including* cycles burned on pods later condemned and
     * rebuilt — the honest compute cost of retries and migrations,
     * which the current members' clocks alone under-report.
     */
    Cycle totalCycles() const { return retiredCycles_ + memberCycles(); }

    /** @return single-bit corrections on the current pod's members. */
    std::uint64_t correctedErrors() const;

    /** @return uncorrectable raises on the current pod's members. */
    std::uint64_t machineCheckCount() const;

    /** @return compute latency of the last run in seconds. */
    double latencySeconds() const;

    /** @return modeled PCIe DMA time for the bound image (0 when no
     *  Lowering is bound: backdoor-staged pods). */
    double dmaSeconds() const { return dmaSeconds_; }

  private:
    /** The per-cycle / fast-forward run path. */
    RunResult runRaw(Cycle max_cycles);

    /** Captures a snapshot if every member permits one right now. */
    void captureSnapshot();

    /** @return true when this config may ever replay. */
    bool replayEligible() const;

    /**
     * @return true when every member's fabric and links hold nothing:
     * the state a trace derived from the text starts from.
     */
    bool quiescent() const;

    /** @return a fresh pod with the next derived fault seed and the
     *  bound programs loaded. */
    std::unique_ptr<Pod> rebuildPod();

    /** @return the sum of the current members' clocks. */
    Cycle memberCycles() const;

    /** @return every member chip, in ring order. */
    std::vector<Chip *> members();

    ChipConfig cfg_;
    std::unique_ptr<Pod> pod_;
    /** One cached assembly (with barrier preamble) per member. */
    std::vector<SharedProgram> programs_;
    /** The bound lowering's image for member 0; null for
     *  backdoor-staged pods. */
    const HostImage *image_ = nullptr;
    /** traceKeyOf() of programs_ on the pod's ring, computed at
     *  bind(). */
    std::uint64_t key_ = 0;
    Cycle cycles_ = 0;
    bool timedOut_ = false;
    bool machineChecked_ = false;
    MachineCheckInfo lastMc_{};
    int mcChip_ = -1;
    int rebuilds_ = 0;
    double dmaSeconds_ = 0.0;
    /** Member cycles consumed by pods already discarded. */
    Cycle retiredCycles_ = 0;

    Cycle snapshotEvery_ = 0;
    std::unique_ptr<PodSnapshot> lastSnap_;
    Cycle resetAt_ = 0; ///< Pod clock at the last reset().
    Cycle snapAt_ = 0;  ///< Pod clock at the last snapshot capture.
    std::uint64_t snapshots_ = 0;
    int migrations_ = 0;

    bool replayEnabled_ = false;
    /**
     * True between reset() and the next run: the members are at the
     * freshly loaded program state a trace starts from, so a replay
     * lands on identical footing.
     */
    bool fresh_ = false;
    std::shared_ptr<TraceCache> pool_;
    std::shared_ptr<const ExecutionTrace> trace_;
    std::uint64_t replays_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace tsp

#endif // TSP_RUNTIME_SESSION_HH
