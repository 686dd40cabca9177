/**
 * @file
 * Model registry: the compiled model families behind one server.
 *
 * Every server of compiled models is built over a registry; a single
 * model is the one-family case. Production TSP fleets serve many
 * models per pod. The registry owns one lazily compiled
 * BatchProgramCache per model family and presents the serving layer a
 * single keyed surface: (model-id, batch-size) → compiled program.
 * Three properties make exact multi-tenant admission possible on top
 * of it:
 *
 *  - cycles(m, b) is exact and memoized forever: compilation is a
 *    pure function of the graph, so the admission controller's
 *    feasibility arithmetic never estimates, even for programs that
 *    were evicted and will be recompiled.
 *  - swapSec(m, b) is the modeled host cost of re-staging model m's
 *    batch-b weight image over PCIe when a worker switches model
 *    families — booked *exactly* into admission completions, the
 *    same way engine-rebuild cost is booked into retries. It reads
 *    the image size memoized at compile, so pricing a swap never
 *    recompiles an evicted program behind the budget and the LRU.
 *  - acquire() pins the program with a shared_ptr, so LRU eviction
 *    under the byte budget can never yank a program out from under a
 *    sealed batch riding a queue or a worker's bound engine.
 *
 * Eviction is *eager* about derived state: dropping a model's
 * compiled program immediately invalidates its execution traces in
 * the attached TraceCache. (Previously dead traces lingered until a
 * lookup happened to miss on the fingerprint, pinning the shared
 * byte budget and evicting the hot model's traces.)
 *
 * Threading: acquire()/eviction and the LRU clock run on the
 * server's submit path (single-threaded under the submit lock), so
 * the eviction sequence — and therefore every registry counter in
 * the metrics report — is a pure function of the admission history.
 * cycles()/swapSec() are internally locked and may be read anywhere.
 */

#ifndef TSP_SERVE_MODEL_REGISTRY_HH
#define TSP_SERVE_MODEL_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/batch_program.hh"
#include "sim/exec_trace.hh"

namespace tsp::serve {

/** One model family as registered by the operator. */
struct ModelSpec
{
    /** Stable name (metrics, CLI, routing logs). */
    std::string name;

    /** The model graph; compiled per batch size on first use. */
    Graph graph;

    /** Placeholder input DMA'd with each sample slot; its size is
     * the family's exact expected request payload. */
    std::vector<std::int8_t> warmInput;

    /** Largest batch size the batcher may form for this family. */
    int maxBatch = 1;

    /** Compile with the pipelined scheduler (default). */
    bool pipelined = true;
};

/** N model families keyed by (model-id, batch-size). */
class ModelRegistry
{
  public:
    /** Default compiled-program byte budget (effectively unbounded
     * for the simulated tiny/dense families; set lower to force
     * swap traffic). */
    static constexpr std::size_t kDefaultBudget =
        std::size_t{1} << 30;

    explicit ModelRegistry(std::vector<ModelSpec> specs,
                           std::size_t budget_bytes = kDefaultBudget);

    /** @return registered model families. */
    int modelCount() const
    {
        return static_cast<int>(models_.size());
    }

    /** @return family @p m's stable name. */
    const std::string &name(int m) const;

    /** @return family @p m's largest compilable batch size. */
    int maxBatch(int m) const;

    /** @return exact bytes one of family @p m's requests must have. */
    std::size_t expectedInputBytes(int m) const;

    /** @return exact cycles of family @p m's batch-@p b program
     * (compiles on first use; memoized forever). */
    Cycle cycles(int m, int b) const;

    /**
     * @return modeled seconds to re-stage family @p m's batch-@p b
     * weight/constant image over the host link when a worker
     * switches model families (image bytes at PCIe Gen4 x16). Reads
     * the memoized image size: compiles only a size never compiled.
     */
    double swapSec(int m, int b) const;

    /**
     * @return a pinned handle to family @p m's batch-@p b program,
     * compiling it on first use, refreshing its LRU stamp, and
     * evicting least-recently-used programs (with eager trace
     * invalidation) while the resident total exceeds the budget.
     * The just-acquired program is never evicted by its own acquire.
     * Submit-path only (see file comment).
     */
    std::shared_ptr<BatchProgram> acquire(int m, int b);

    /** Attaches the serving pool's shared trace cache so eviction
     * can drop a swapped-out model's traces eagerly. */
    void attachTraceCache(std::shared_ptr<TraceCache> traces)
    {
        traces_ = std::move(traces);
    }

    /** @return true when (m, b) is currently resident. */
    bool compiled(int m, int b) const;

    /** @return bytes currently held by resident programs. */
    std::size_t residentBytes() const;

    /** @return total compilations (recompiles after eviction count). */
    std::uint64_t compileCount() const;

    /** @return programs evicted under the byte budget. */
    std::uint64_t evictions() const { return evictions_; }

    /** @return the configured byte budget. */
    std::size_t budgetBytes() const { return budget_; }

    /** @return family @p m's underlying cache (tests). */
    BatchProgramCache &cache(int m);
    const BatchProgramCache &cache(int m) const;

  private:
    struct Model
    {
        ModelSpec spec;
        std::unique_ptr<BatchProgramCache> cache;
        /** lruStamp[b-1]: acquire tick; 0 = never acquired. */
        std::vector<std::uint64_t> lruStamp;
    };

    void evictOverBudget(int keep_m, int keep_b);

    std::vector<Model> models_;
    std::size_t budget_;
    std::shared_ptr<TraceCache> traces_;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace tsp::serve

#endif // TSP_SERVE_MODEL_REGISTRY_HH
