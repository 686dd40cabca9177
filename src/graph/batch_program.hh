/**
 * @file
 * Batch-B compiled programs with amortized weight install.
 *
 * A batch-B program is built by lowering the same Graph B times into
 * one Lowering: the conv placement cache makes every repeat reuse the
 * first sample's weight tiles/bias/scale quads (placed once, DMA'd
 * once), while each sample gets fresh activation tensors from the
 * bump allocator — so per-sample outputs are independent and the
 * whole batch shares a single weight image. The engine scheduling
 * state persists across repeats, so sample s+1's first layer overlaps
 * sample s's tail exactly like adjacent layers of one network: the
 * compile-time finish cycle cycles(B) is exact and strictly sublinear
 * in B versus B independent batch-1 replays (one barrier preamble,
 * one schedule lead-in, one weight install, pipelined seams).
 *
 * Batch sizes compile *on first use*: a size the batcher never forms
 * costs neither startup time nor memory — with N model families per
 * server the eager 1..maxBatch sweep multiplied both for programs
 * that never ran. Compilation is a pure function of (graph,
 * warm input, batch, pipelined), so when a size compiles has no
 * effect on what it compiles to; exact cycle counts are memoized
 * forever (they survive eviction), keeping the admission
 * controller's feasibility arithmetic exact (paper V.c: deadlines
 * are provable because the cycle count is known before execution).
 *
 * Slots hold shared_ptrs so a consumer that must outlive eviction
 * (a sealed batch riding a queue, a worker's bound engine) pins its
 * program via acquire(); evict(b) — used by the serving layer's
 * model registry to stay under a byte budget — only drops the
 * cache's own reference. get() references are stable only while the
 * slot is resident; callers that never evict (every pre-registry
 * call site) keep the old contract unchanged.
 */

#ifndef TSP_GRAPH_BATCH_PROGRAM_HH
#define TSP_GRAPH_BATCH_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "compiler/lowering.hh"
#include "graph/graph.hh"
#include "sim/program.hh"

namespace tsp {

/** One compiled batch size: program + per-sample tensor slots. */
struct BatchProgram
{
    int batch = 1;
    std::unique_ptr<Lowering> lw;
    /** The assembled program, hashed once at compile; its hash is
     *  also the trace-cache fingerprint. */
    SharedProgram prog;
    /** inputs[s]/outputs[s]: sample s's staging/result tensors. */
    std::vector<LoweredTensor> inputs;
    std::vector<LoweredTensor> outputs;
    /** Exact finish cycle of the batch-B schedule. */
    Cycle cycles = 0;

    /** @return approximate heap footprint: weight/activation image
     * plus assembled instruction streams (byte-budget accounting). */
    std::size_t memoryBytes() const;
};

/** Lazily compiled lowerings for batch sizes 1..maxBatch. */
class BatchProgramCache
{
  public:
    /**
     * Prepares (but does not compile) batch sizes 1..@p max_batch.
     * @p warm_input is the placeholder input DMA'd with each sample
     * slot (real inputs are staged by the runtime before every run).
     */
    BatchProgramCache(Graph g, std::vector<std::int8_t> warm_input,
                      int max_batch, bool pipelined = true);

    int maxBatch() const
    {
        return static_cast<int>(progs_.size());
    }

    /**
     * @return the compiled program for @p batch (1-based), compiling
     * it on first use. The reference is stable while the slot stays
     * resident; use acquire() when eviction is possible.
     */
    BatchProgram &get(int batch);
    const BatchProgram &get(int batch) const;

    /** @return a shared handle to batch @p batch's program (compiled
     * on first use), pinning it across a later evict(). */
    std::shared_ptr<BatchProgram> acquire(int batch) const;

    /** @return exact cycles(@p batch), compiling on first use; the
     * value is memoized and survives eviction. */
    Cycle cycles(int batch) const;

    /** @return true when @p batch's program is currently resident. */
    bool compiled(int batch) const;

    /** @return resident compiled batch sizes. */
    std::size_t compiledCount() const;

    /** @return bytes held by resident programs. */
    std::size_t residentBytes() const;

    /** @return compilations performed (recompiles after evict count). */
    std::uint64_t compileCount() const;

    /**
     * Drops batch @p batch's program from the cache (memoized cycles
     * are kept, so admission stays exact without recompiling).
     * @return the evicted handle (null if the slot was empty) so the
     * caller can invalidate derived state (e.g. execution traces)
     * keyed by it.
     */
    std::shared_ptr<BatchProgram> evict(int batch);

    /**
     * Legacy eager accessor: compiles every remaining size, then
     * returns the full exact-cycles table (cyclesByBatch()[b-1] =
     * cycles(b)). New call sites should prefer cycles(b).
     */
    const std::vector<Cycle> &cyclesByBatch() const;

    const Graph &graph() const { return g_; }

  private:
    /** Compiles slot @p b if absent; requires mu_. */
    const std::shared_ptr<BatchProgram> &ensureLocked(int b) const;

    Graph g_;
    std::vector<std::int8_t> warm_;
    bool pipelined_;

    mutable std::mutex mu_;
    /** progs_[b-1]; null until compiled (or after eviction). */
    mutable std::vector<std::shared_ptr<BatchProgram>> progs_;
    /** cycles_[b-1]; 0 until first compiled, then exact forever. */
    mutable std::vector<Cycle> cycles_;
    mutable std::uint64_t compiles_ = 0;
};

} // namespace tsp

#endif // TSP_GRAPH_BATCH_PROGRAM_HH
