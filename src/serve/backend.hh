/**
 * @file
 * The serving layer's execution-engine abstraction.
 *
 * A worker thread doesn't care what is behind a request: one chip
 * running a compiled model (SessionBackend) or an N-chip pod running
 * a statically scheduled collective (PodBackend). Both run on one
 * engine, an InferenceSession over a pod of N >= 1 chips
 * (EngineBackend), and expose the same deterministic contract the
 * admission controller relies on —
 * a completed run always consumes exactly the same cycle count —
 * plus the reliability surface (reset-rebuilds, machine-check and
 * corrected-error counters) the retry policy drives.
 *
 * The interface is batch-native: resetBatch(b) arms the engine's
 * compiled batch-b program, writeSample/readSample stage and extract
 * per-sample data, and serveBatch() runs one whole attempt.
 * maxBatch() == 1 backends are plain single-request engines that
 * serve batches of one.
 */

#ifndef TSP_SERVE_BACKEND_HH
#define TSP_SERVE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "graph/batch_program.hh"
#include "ref/qnn.hh"
#include "runtime/session.hh"

namespace tsp::serve {

/** One worker's execution engine (a chip or a pod of chips). */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** @return largest batch this engine has a compiled program for. */
    virtual int maxBatch() const = 0;

    /**
     * @return exact bytes one sample's dense input must have, or 0
     * when the engine does not know (no validation possible). The
     * server rejects mis-sized requests as RejectedInvalid before
     * admission instead of faulting inside a worker thread.
     */
    virtual std::size_t expectedInputBytes() const = 0;

    /**
     * Rearms for the next run of the compiled batch-@p batch program
     * (1 <= batch <= maxBatch()): reloads programs and rebuilds the
     * engine when the previous run timed out or machine checked
     * (with a derived fault seed — retries must not replay the
     * identical environmental upset).
     */
    virtual void resetBatch(int batch) = 0;

    /** Stages sample @p sample's dense int8 input (after
     * resetBatch(); 0 <= sample < batch). */
    virtual void writeSample(int sample,
                             const std::vector<std::int8_t> &input) = 0;

    /** Runs for at most @p max_cycles relative to the engine clock. */
    virtual RunResult runBounded(Cycle max_cycles) = 0;

    /** Reads sample @p sample's result (after a completed run). */
    virtual ref::QTensor readSample(int sample) const = 0;

    /**
     * @return cumulative single-bit corrections on the *current*
     * engine (resets to zero when resetBatch() rebuilds it — sample
     * before/after one run, never across a reset).
     */
    virtual std::uint64_t correctedErrors() const = 0;

    /** @return cumulative uncorrectable raises on the current engine. */
    virtual std::uint64_t machineCheckCount() const = 0;

    /** @return total chip cycles consumed (summed over members). */
    virtual Cycle totalCycles() const = 0;

    /** @return engines rebuilt after timeouts/machine checks. */
    virtual int rebuilds() const = 0;

    /**
     * Attaches a pool-shared execution-trace cache and enables the
     * replay tier (see sim/exec_trace.hh): the first worker to run a
     * program text derives its trace, every worker replays it.
     */
    virtual void attachTraceCache(std::shared_ptr<TraceCache>) = 0;

    /** @return runs served by replaying a trace made earlier. */
    virtual std::uint64_t replayCount() const = 0;

    /** @return first runs that derived a trace (and replayed it). */
    virtual std::uint64_t recordCount() const = 0;

    // --- Snapshot-based mid-batch migration ---

    /**
     * Arms periodic engine snapshotting with cadence @p every cycles
     * (0 disables); see InferenceSession::enableSnapshots().
     */
    virtual void enableSnapshots(Cycle every) = 0;

    /**
     * @return true when a clean pre-fault snapshot of the current
     * batch exists, i.e. migrateAndResume() can recover it without a
     * full retry.
     */
    virtual bool canMigrate() const = 0;

    /**
     * Machine-check recovery: rebuilds the engine, restores the last
     * pre-fault snapshot and resumes the batch at program cycle
     * RunResult::resumeAt for at most @p max_cycles more. Only
     * meaningful after a machine-checked run whose resumeAt is
     * nonzero.
     */
    virtual RunResult migrateAndResume(Cycle max_cycles) = 0;

    /** @return batches recovered via migration. */
    virtual int migrations() const = 0;

    /**
     * @return modeled host-side seconds to rebuild this engine and
     * restage its image before a retry or migration resume (the DMA
     * re-transfer for a chip; 0 when restaging is free). The retry
     * policy books this on top of the recompute time.
     */
    virtual double rebuildPenaltySec() const = 0;

    /**
     * Arms a registry-pinned compiled program (multi-model pools):
     * the worker loop hands each batch job's program — possibly a
     * different model family than the previous job — to the engine
     * before resetBatch(). Re-binding a different program re-stages
     * the engine image (the admission controller booked that swap).
     * Default: unsupported.
     */
    virtual void bindProgram(std::shared_ptr<BatchProgram> /*bp*/)
    {
        TSP_ASSERT(!"backend does not support program binding");
    }

    /**
     * One attempt at a whole batch: rearms the batch-|inputs|
     * program, stages every sample, runs. Outputs (readSample) are
     * only meaningful when the returned run completed.
     */
    RunResult serveBatch(
        const std::vector<const std::vector<std::int8_t> *> &inputs,
        Cycle max_cycles);
};

/**
 * The engine lifecycle both concrete backends share: one
 * InferenceSession over a pod of N >= 1 chips carries the run,
 * reliability, replay and migration surface. A subclass keeps only
 * which programs a batch size binds and where a sample's bytes live
 * in chip memory.
 */
class EngineBackend : public Backend
{
  public:
    RunResult runBounded(Cycle max_cycles) override
    {
        return sess_.runBounded(max_cycles);
    }
    std::uint64_t correctedErrors() const override
    {
        return sess_.correctedErrors();
    }
    std::uint64_t machineCheckCount() const override
    {
        return sess_.machineCheckCount();
    }
    /** Lifetime accounting: the current pod's clocks alone forget
     *  cycles burned on engines condemned and rebuilt. */
    Cycle totalCycles() const override { return sess_.totalCycles(); }
    int rebuilds() const override { return sess_.rebuilds(); }
    void attachTraceCache(std::shared_ptr<TraceCache> t) override
    {
        sess_.enableReplay(std::move(t));
    }
    std::uint64_t replayCount() const override
    {
        return sess_.replayCount();
    }
    std::uint64_t recordCount() const override
    {
        return sess_.recordCount();
    }
    void enableSnapshots(Cycle every) override
    {
        sess_.enableSnapshots(every);
    }
    bool canMigrate() const override
    {
        return sess_.lastSnapshot() != nullptr;
    }
    RunResult migrateAndResume(Cycle max_cycles) override
    {
        return sess_.migrateAndResume(max_cycles);
    }
    int migrations() const override { return sess_.migrations(); }
    /** The bound image's DMA time; 0 for backdoor-staged pods. */
    double rebuildPenaltySec() const override
    {
        return sess_.dmaSeconds();
    }

    /** @return the underlying session (tests, benchmarks). */
    InferenceSession &session() { return sess_; }

  protected:
    explicit EngineBackend(InferenceSession sess)
        : sess_(std::move(sess))
    {
    }

    InferenceSession sess_;
};

/**
 * A single-chip backend over compiled batch programs (weights
 * installed once per batch, per-sample activations — see
 * graph/batch_program). It runs whichever program was bound last:
 * the server binds each batch job's registry-pinned program, and a
 * standalone caller binds acquire(b) before resetBatch(b).
 */
class SessionBackend final : public EngineBackend
{
  public:
    /**
     * Starts bound to @p initial (pinned by the shared_ptr, so
     * registry eviction cannot free it). @p max_batch is the
     * largest batch any family compiles (per-family caps are
     * enforced at admission).
     */
    SessionBackend(std::shared_ptr<BatchProgram> initial,
                   int max_batch, ChipConfig cfg);

    int maxBatch() const override { return maxBatch_; }
    std::size_t expectedInputBytes() const override;
    void resetBatch(int batch) override;
    void writeSample(int sample,
                     const std::vector<std::int8_t> &input) override;
    ref::QTensor readSample(int sample) const override;
    void bindProgram(std::shared_ptr<BatchProgram> bp) override;

  private:
    std::shared_ptr<BatchProgram> boundBp_; ///< Pinned, armed program.
    int maxBatch_ = 1;
};

/**
 * An N-chip ring-pod backend serving the int8 ring all-reduce
 * collective: each sample's input is the concatenation of every
 * member's 320-byte local vector, the output is the saturating
 * elementwise sum, read from chip 0. With max_batch > 1 the pod
 * holds one compiled batched collective per batch size (samples
 * pipelined around the ring — see c2c/collective.hh).
 */
class PodBackend final : public EngineBackend
{
  public:
    PodBackend(int chips, Cycle wire_latency, ChipConfig cfg,
               int max_batch = 1);

    /**
     * @return exact cycles(b) for b = 1..max_batch of the all-reduce
     * on an equivalent pod: the builder's AllReducePlan::finish, which
     * a run retires at (a static schedule's timing is independent of
     * its data and of fault injection, which only flips data bits).
     * This is the table the admission controller books against. The
     * chip configuration does not enter it.
     */
    static std::vector<Cycle> serviceCyclesTable(int chips,
                                                 Cycle wire_latency,
                                                 ChipConfig cfg,
                                                 int max_batch);

    /** @return bytes one sample's input must have (chips * 320). */
    static std::size_t inputBytes(int chips);

    int maxBatch() const override;
    std::size_t expectedInputBytes() const override;
    void resetBatch(int batch) override;
    void writeSample(int sample,
                     const std::vector<std::int8_t> &input) override;
    ref::QTensor readSample(int sample) const override;

  private:
    /** progs_[b-1]: the compiled batch-b collective, one program per
     *  member, each hashed once here. */
    std::vector<std::vector<SharedProgram>> progs_;
    int bound_ = 1; ///< Batch size currently bound.
};

} // namespace tsp::serve

#endif // TSP_SERVE_BACKEND_HH
