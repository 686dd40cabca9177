/**
 * @file
 * A forwarding serve::Backend for the serving workloads. It wraps the
 * engine a BackendFactory (or FleetConfig::makeBackend) would have
 * returned and forwards every virtual unchanged, and:
 *
 *  - times the engine calls as runtime.* spans (traced run);
 *  - keeps, for each sample read, the FNV-1a digests of its input and
 *    output, 16 bytes per sample, so the benchmark can check every
 *    output against the src/ref golden after the timed phase (the
 *    fleet keeps ServerConfig::onResult for its time series, so the
 *    engine is the only place outputs are visible);
 *  - accumulates per-run deltas of engine counters (energy, C2C
 *    sends) that survive engine rebuilds after machine checks;
 *  - stamps the host time each sample's output is read, i.e. each
 *    request completes, with the thread CPU time the engine spent on
 *    it.
 *
 * Counter reads and digests happen outside the spans. In serve-mix
 * the untraced run uses the bare engines, and its traced run, which
 * goes through this class, must reproduce the untraced run's simulated
 * results exactly; that is the check that this class forwards every
 * virtual.
 */

#ifndef PERFBENCH_PROBE_BACKEND_HH
#define PERFBENCH_PROBE_BACKEND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hh"
#include "serve/backend.hh"

namespace perfbench {

/** Engine counters read around each run (outside the spans). */
struct EngineCounters
{
    double energyJ = 0.0;
    std::uint64_t c2cSent = 0;
};

/** FNV-1a digests of one sample the engine served. */
struct SampleDigest
{
    std::uint64_t input = 0;
    std::uint64_t output = 0;
};

class ProbeBackend final : public tsp::serve::Backend
{
  public:
    /**
     * @param spans span log (disabled logs record nothing).
     * @param counters reads the wrapped engine's counters, or null.
     */
    ProbeBackend(std::unique_ptr<tsp::serve::Backend> inner,
                 SpanLog &spans, std::function<EngineCounters()> counters);

    int maxBatch() const override { return inner_->maxBatch(); }
    std::size_t expectedInputBytes() const override
    {
        return inner_->expectedInputBytes();
    }
    void resetBatch(int batch) override;
    void writeSample(int sample,
                     const std::vector<std::int8_t> &input) override;
    tsp::RunResult runBounded(tsp::Cycle max_cycles) override;
    tsp::ref::QTensor readSample(int sample) const override;
    std::uint64_t correctedErrors() const override
    {
        return inner_->correctedErrors();
    }
    std::uint64_t machineCheckCount() const override
    {
        return inner_->machineCheckCount();
    }
    tsp::Cycle totalCycles() const override
    {
        return inner_->totalCycles();
    }
    int rebuilds() const override { return inner_->rebuilds(); }
    void attachTraceCache(std::shared_ptr<tsp::TraceCache> t) override
    {
        inner_->attachTraceCache(std::move(t));
    }
    std::uint64_t replayCount() const override
    {
        return inner_->replayCount();
    }
    std::uint64_t recordCount() const override
    {
        return inner_->recordCount();
    }
    void enableSnapshots(tsp::Cycle every) override
    {
        inner_->enableSnapshots(every);
    }
    bool canMigrate() const override { return inner_->canMigrate(); }
    /** Forwarded untimed and uncounted: the engine is rebuilt
     * inside, so a counter delta across it means nothing. */
    tsp::RunResult migrateAndResume(tsp::Cycle max_cycles) override
    {
        return inner_->migrateAndResume(max_cycles);
    }
    int migrations() const override { return inner_->migrations(); }
    double rebuildPenaltySec() const override
    {
        return inner_->rebuildPenaltySec();
    }
    void bindProgram(std::shared_ptr<tsp::BatchProgram> bp) override
    {
        inner_->bindProgram(std::move(bp));
    }

    /** @return counters summed over every run (rebuilds included). */
    const EngineCounters &totals() const { return totals_; }

    /** @return every sample read, in order. Each is charged the
     * thread CPU time since the previous read of its batch, or since
     * the batch's first resetBatch (retries included). */
    const std::vector<Completion> &completions() const
    {
        return completions_;
    }

    /** @return digests of every sample read, in completion order. */
    const std::vector<SampleDigest> &samples() const { return samples_; }

  private:
    std::unique_ptr<tsp::serve::Backend> inner_;
    SpanLog &spans_;
    std::function<EngineCounters()> counters_;
    EngineCounters totals_;
    /** Input digests of the current batch, by sample. */
    std::vector<std::uint64_t> inputs_;
    /** Thread CPU time not yet charged to a read began here; -1 when
     * every read sample is charged. */
    mutable std::int64_t busySinceCpuNs_ = -1;
    mutable int readsLeft_ = 0; ///< Samples of the batch not yet read.
    mutable std::vector<SampleDigest> samples_;
    mutable std::vector<Completion> completions_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_BACKEND_HH
