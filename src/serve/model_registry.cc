#include "serve/model_registry.hh"

#include <limits>
#include <utility>

#include "common/logging.hh"
#include "runtime/session.hh"

namespace tsp::serve {

ModelRegistry::ModelRegistry(std::vector<ModelSpec> specs,
                             std::size_t budget_bytes)
    : budget_(budget_bytes)
{
    TSP_ASSERT(!specs.empty());
    models_.reserve(specs.size());
    for (auto &spec : specs) {
        TSP_ASSERT(spec.maxBatch >= 1);
        Model m;
        m.cache = std::make_unique<BatchProgramCache>(
            spec.graph, spec.warmInput, spec.maxBatch,
            spec.pipelined);
        m.lruStamp.assign(static_cast<std::size_t>(spec.maxBatch),
                          0);
        m.spec = std::move(spec);
        models_.push_back(std::move(m));
    }
}

const std::string &
ModelRegistry::name(int m) const
{
    return models_.at(static_cast<std::size_t>(m)).spec.name;
}

int
ModelRegistry::maxBatch(int m) const
{
    return models_.at(static_cast<std::size_t>(m)).spec.maxBatch;
}

std::size_t
ModelRegistry::expectedInputBytes(int m) const
{
    return models_.at(static_cast<std::size_t>(m))
        .spec.warmInput.size();
}

Cycle
ModelRegistry::cycles(int m, int b) const
{
    return models_.at(static_cast<std::size_t>(m))
        .cache->cycles(b);
}

double
ModelRegistry::swapSec(int m, int b) const
{
    const BatchProgram &bp =
        models_.at(static_cast<std::size_t>(m)).cache->get(b);
    return static_cast<double>(bp.lw->image().totalBytes()) /
           kPcieGen4Bps;
}

std::shared_ptr<BatchProgram>
ModelRegistry::acquire(int m, int b)
{
    Model &model = models_.at(static_cast<std::size_t>(m));
    std::shared_ptr<BatchProgram> bp = model.cache->acquire(b);
    model.lruStamp.at(static_cast<std::size_t>(b - 1)) = ++tick_;
    evictOverBudget(m, b);
    return bp;
}

void
ModelRegistry::evictOverBudget(int keep_m, int keep_b)
{
    while (residentBytes() > budget_) {
        // Oldest resident (model, batch), skipping the program the
        // caller just acquired — it is about to be bound/run.
        int victim_m = -1;
        int victim_b = -1;
        std::uint64_t oldest =
            std::numeric_limits<std::uint64_t>::max();
        for (std::size_t mi = 0; mi < models_.size(); ++mi) {
            const Model &model = models_[mi];
            for (int b = 1; b <= model.spec.maxBatch; ++b) {
                if (static_cast<int>(mi) == keep_m && b == keep_b)
                    continue;
                if (!model.cache->compiled(b))
                    continue;
                const std::uint64_t stamp =
                    model.lruStamp[static_cast<std::size_t>(b - 1)];
                if (stamp < oldest) {
                    oldest = stamp;
                    victim_m = static_cast<int>(mi);
                    victim_b = b;
                }
            }
        }
        if (victim_m < 0)
            break; // Only the just-acquired program remains.
        std::shared_ptr<BatchProgram> evicted =
            models_[static_cast<std::size_t>(victim_m)]
                .cache->evict(victim_b);
        TSP_ASSERT(evicted != nullptr);
        ++evictions_;
        // Eager trace invalidation: a swapped-out program's traces
        // must not pin the shared trace-cache byte budget until a
        // lookup happens to miss on them.
        if (traces_)
            traces_->invalidate(traceKeyOf({evicted->prog}));
    }
}

bool
ModelRegistry::compiled(int m, int b) const
{
    return models_.at(static_cast<std::size_t>(m))
        .cache->compiled(b);
}

std::size_t
ModelRegistry::residentBytes() const
{
    std::size_t bytes = 0;
    for (const auto &model : models_)
        bytes += model.cache->residentBytes();
    return bytes;
}

std::uint64_t
ModelRegistry::compileCount() const
{
    std::uint64_t n = 0;
    for (const auto &model : models_)
        n += model.cache->compileCount();
    return n;
}

BatchProgramCache &
ModelRegistry::cache(int m)
{
    return *models_.at(static_cast<std::size_t>(m)).cache;
}

const BatchProgramCache &
ModelRegistry::cache(int m) const
{
    return *models_.at(static_cast<std::size_t>(m)).cache;
}

} // namespace tsp::serve
