#include "graph/batch_program.hh"

#include <utility>

#include "common/logging.hh"
#include "compiler/schedule.hh"

namespace tsp {

std::size_t
BatchProgram::memoryBytes() const
{
    std::size_t bytes = sizeof(BatchProgram);
    if (lw)
        bytes += lw->image().totalBytes();
    if (prog) {
        for (const auto &[icu, insts] : prog->queues)
            bytes += insts.size() * sizeof(Instruction);
    }
    bytes += (inputs.capacity() + outputs.capacity()) *
             sizeof(LoweredTensor);
    return bytes;
}

BatchProgramCache::BatchProgramCache(
    Graph g, std::vector<std::int8_t> warm_input, int max_batch,
    bool pipelined)
    : g_(std::move(g)), warm_(std::move(warm_input)),
      pipelined_(pipelined)
{
    TSP_ASSERT(max_batch >= 1);
    progs_.resize(static_cast<std::size_t>(max_batch));
    memo_.resize(static_cast<std::size_t>(max_batch));
}

const std::shared_ptr<BatchProgram> &
BatchProgramCache::ensureLocked(int b) const
{
    TSP_ASSERT(b >= 1 && b <= static_cast<int>(progs_.size()));
    std::shared_ptr<BatchProgram> &slot =
        progs_[static_cast<std::size_t>(b - 1)];
    if (slot)
        return slot;
    auto bp = std::make_shared<BatchProgram>();
    bp->batch = b;
    bp->lw = std::make_unique<Lowering>(pipelined_);
    bp->inputs.reserve(static_cast<std::size_t>(b));
    bp->outputs.reserve(static_cast<std::size_t>(b));
    for (int s = 0; s < b; ++s) {
        auto tensors = g_.lower(*bp->lw, warm_);
        bp->inputs.push_back(tensors.at(0));
        bp->outputs.push_back(tensors.at(g_.outputNode()));
    }
    bp->cycles = bp->lw->finishCycle();
    bp->prog = SharedProgram(
        bp->lw->program().toAsm(/*with_preamble=*/true));
    // One weight placement per conv layer, not per sample: the whole
    // point of the batch program. Checked against any other resident
    // size (compilation order is irrelevant — it's a pure function).
    for (const auto &other : progs_) {
        if (other)
            TSP_ASSERT(bp->lw->weightPlacements() ==
                       other->lw->weightPlacements());
    }
    // Compilation is deterministic, so a memo from a since-evicted
    // compile must match the fresh one exactly.
    Memo &memo = memo_[static_cast<std::size_t>(b - 1)];
    const Memo fresh{bp->cycles, bp->lw->image().totalBytes()};
    if (memo.cycles != 0)
        TSP_ASSERT(memo.cycles == fresh.cycles &&
                   memo.imageBytes == fresh.imageBytes);
    memo = fresh;
    // cycles(B) must be exact and strictly monotone in B; checked
    // against every size whose count is already known.
    for (std::size_t i = 0; i < memo_.size(); ++i) {
        if (memo_[i].cycles == 0 ||
            i == static_cast<std::size_t>(b - 1))
            continue;
        if (i < static_cast<std::size_t>(b - 1))
            TSP_ASSERT(memo_[i].cycles < bp->cycles);
        else
            TSP_ASSERT(memo_[i].cycles > bp->cycles);
    }
    ++compiles_;
    slot = std::move(bp);
    return slot;
}

std::shared_ptr<BatchProgram>
BatchProgramCache::acquire(int batch) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ensureLocked(batch);
}

const BatchProgramCache::Memo &
BatchProgramCache::memoLocked(int b) const
{
    TSP_ASSERT(b >= 1 && b <= static_cast<int>(progs_.size()));
    if (memo_[static_cast<std::size_t>(b - 1)].cycles == 0)
        ensureLocked(b);
    return memo_[static_cast<std::size_t>(b - 1)];
}

Cycle
BatchProgramCache::cycles(int batch) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return memoLocked(batch).cycles;
}

std::size_t
BatchProgramCache::imageBytes(int batch) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return memoLocked(batch).imageBytes;
}

bool
BatchProgramCache::compiled(int batch) const
{
    std::lock_guard<std::mutex> lock(mu_);
    TSP_ASSERT(batch >= 1 &&
               batch <= static_cast<int>(progs_.size()));
    return progs_[static_cast<std::size_t>(batch - 1)] != nullptr;
}

std::size_t
BatchProgramCache::compiledCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &p : progs_)
        n += p ? 1 : 0;
    return n;
}

std::size_t
BatchProgramCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    for (const auto &p : progs_)
        bytes += p ? p->memoryBytes() : 0;
    return bytes;
}

std::uint64_t
BatchProgramCache::compileCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return compiles_;
}

std::shared_ptr<BatchProgram>
BatchProgramCache::evict(int batch)
{
    std::lock_guard<std::mutex> lock(mu_);
    TSP_ASSERT(batch >= 1 &&
               batch <= static_cast<int>(progs_.size()));
    return std::exchange(
        progs_[static_cast<std::size_t>(batch - 1)], nullptr);
}

} // namespace tsp
