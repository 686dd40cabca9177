/**
 * @file
 * Host runtime for a multi-chip pod: owns the ring, loads one
 * statically scheduled program per member, runs the collective with
 * the conservative-lookahead fast-forward scheduler, and surfaces
 * the same RunResult/reset() lifecycle as the single-chip
 * InferenceSession — so the serving layer can treat "a pod" as just
 * another backend.
 *
 * Reliability semantics scale up from the chip: a machine check on
 * *any* member condemns the *whole* pod (a collective's result is a
 * function of every member's state), and reset() after a timeout or
 * machine check rebuilds every member with a derived fault seed.
 */

#ifndef TSP_RUNTIME_POD_SESSION_HH
#define TSP_RUNTIME_POD_SESSION_HH

#include <memory>
#include <vector>

#include "c2c/pod.hh"
#include "runtime/session.hh"
#include "sim/snapshot.hh"

namespace tsp {

/** A reusable pod bound to one set of per-chip programs. */
class PodSession
{
  public:
    /** Builds the pod (see Pod's ctor for per-member fault seeds). */
    PodSession(int chips, Cycle wire_latency, ChipConfig cfg = {});

    /**
     * Caches and loads one program per member chip (replacing any).
     * reset() reloads the same programs, borrowed as they are.
     */
    void loadPrograms(std::vector<SharedProgram> programs);

    /**
     * Runs the pod for at most @p max_cycles (relative to the current
     * pod clock) via Pod::runAllBounded(). After a failed run the pod
     * is mid-collective; the next reset() rebuilds it wholesale.
     */
    RunResult runBounded(Cycle max_cycles = 500'000'000);

    /**
     * Rearms the pod for another collective: reloads the cached
     * programs, rebuilding every member chip first when the last run
     * timed out or machine checked (with a fault seed derived from
     * the rebuild count, mirroring InferenceSession::reset()).
     * Memory contents do NOT survive a rebuild; restage inputs after
     * every reset().
     */
    void reset();

    /** Backdoor-writes one word on member @p chip. */
    void writeWord(int chip, Hemisphere hem, int slice, MemAddr addr,
                   const Vec320 &v);

    /** Backdoor-reads one word on member @p chip. */
    Vec320 readWord(int chip, Hemisphere hem, int slice,
                    MemAddr addr) const;

    /** @return true when the last run hit its cycle budget. */
    bool timedOut() const { return timedOut_; }

    /** @return true when the last run ended in a machine check. */
    bool machineChecked() const { return machineChecked_; }

    /**
     * @return first-error context of the most recent machine check
     * (valid once machineChecked(); survives reset()).
     */
    const MachineCheckInfo &lastMachineCheck() const { return lastMc_; }

    /**
     * @return ring index of the member that raised the most recent
     * machine check (-1 before any; survives reset()).
     */
    int machineCheckChip() const { return mcChip_; }

    /** @return pods rebuilt after timeouts/machine checks. */
    int rebuilds() const { return rebuilds_; }

    /** @return cycles consumed by the last run. */
    Cycle cycles() const { return cycles_; }

    /**
     * @return member-summed chip cycles consumed over the session's
     * lifetime, *including* cycles burned on pods later condemned
     * and rebuilt (mirrors InferenceSession::totalCycles()).
     */
    Cycle totalCycles() const;

    /** @return the pod. */
    Pod &pod() { return *pod_; }
    const Pod &pod() const { return *pod_; }

    // --- Periodic snapshots + mid-batch migration ---

    /**
     * Arms periodic pod snapshotting: bounded runs advance in chunks
     * of @p every cycles, capturing a PodSnapshot at each chunk
     * boundary (never after a machine check). 0 disables. A chunk
     * boundary is a consistent cut even when member clocks differ by
     * the conservative lookahead: every C2C vector is delivered into
     * the receiver's link queue at send time, so per-chip state is
     * the whole joint state. Mirrors
     * InferenceSession::enableSnapshots().
     */
    void enableSnapshots(Cycle every) { snapshotEvery_ = every; }

    /** @return the armed snapshot cadence (0 when disabled). */
    Cycle snapshotEvery() const { return snapshotEvery_; }

    /** @return the last captured snapshot, or nullptr. Cleared by
     *  reset(). */
    const PodSnapshot *lastSnapshot() const { return lastSnap_.get(); }

    /** @return snapshots captured since construction. */
    std::uint64_t snapshotCount() const { return snapshots_; }

    /** @return machine-check recoveries served via migration. */
    int migrations() const { return migrations_; }

    /**
     * Machine-check recovery without a full retry: rebuilds the whole
     * pod (fresh derived fault seeds), reloads the programs, restores
     * the last pre-fault snapshot and resumes for at most
     * @p max_cycles more. Mirrors
     * InferenceSession::migrateAndResume().
     */
    RunResult migrateAndResume(Cycle max_cycles = 500'000'000);

    /** @return member-aggregated statistics (sums across chips). */
    StatGroup stats() const;

    /**
     * Enables the trace record/replay tier: the first complete
     * collective after a reset()/loadPrograms() records every
     * member's micro-op sequence, and subsequent fresh runs replay
     * it (see sim/exec_trace.hh). Mirrors
     * InferenceSession::enableReplay().
     */
    void enableReplay(bool on = true) { replayEnabled_ = on; }

    /** @return the trace recorded for the loaded programs, if any. */
    const std::shared_ptr<const ExecutionTrace> &
    trace() const
    {
        return trace_;
    }

    /** Installs a trace recorded elsewhere for the loaded programs. */
    void
    setTrace(std::shared_ptr<const ExecutionTrace> t)
    {
        trace_ = std::move(t);
    }

    /** @return runs served by replaying a recorded trace. */
    std::uint64_t replayCount() const { return replays_; }

    /** @return runs that successfully recorded a trace. */
    std::uint64_t recordCount() const { return records_; }

  private:
    /** The original Pod::runAllBounded() path. */
    RunResult runRaw(Cycle max_cycles);

    /** Captures a snapshot if every member permits one right now. */
    void captureSnapshot();

    /** @return every member chip, in ring order. */
    std::vector<Chip *> members();
    int chips_;
    Cycle wireLatency_;
    ChipConfig cfg_;
    std::unique_ptr<Pod> pod_;
    std::vector<SharedProgram> programs_;
    Cycle cycles_ = 0;
    bool timedOut_ = false;
    bool machineChecked_ = false;
    MachineCheckInfo lastMc_{};
    int mcChip_ = -1;
    int rebuilds_ = 0;
    /** Member cycles consumed by pods already discarded. */
    Cycle retiredCycles_ = 0;

    Cycle snapshotEvery_ = 0;
    std::unique_ptr<PodSnapshot> lastSnap_;
    std::uint64_t snapshots_ = 0;
    int migrations_ = 0;

    bool replayEnabled_ = false;
    /** True between loadPrograms()/reset() and the next run. */
    bool fresh_ = false;
    std::shared_ptr<const ExecutionTrace> trace_;
    std::uint64_t replays_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace tsp

#endif // TSP_RUNTIME_POD_SESSION_HH
