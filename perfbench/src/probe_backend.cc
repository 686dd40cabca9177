#include "probe_backend.hh"

namespace perfbench {

ProbeBackend::ProbeBackend(std::unique_ptr<tsp::serve::Backend> inner,
                           SpanLog &spans,
                           std::function<EngineCounters()> counters)
    : inner_(std::move(inner)), spans_(spans),
      counters_(std::move(counters))
{
}

void
ProbeBackend::resetBatch(int batch)
{
    if (busySinceCpuNs_ < 0)
        busySinceCpuNs_ = threadCpuNs();
    readsLeft_ = batch;
    {
        auto s = spans_.scope("runtime.reset_batch");
        inner_->resetBatch(batch);
    }
    inputs_.assign(static_cast<std::size_t>(batch), 0);
}

void
ProbeBackend::writeSample(int sample,
                          const std::vector<std::int8_t> &input)
{
    {
        auto s = spans_.scope("runtime.write");
        inner_->writeSample(sample, input);
    }
    inputs_.at(static_cast<std::size_t>(sample)) =
        tsp::fnv1a64(input.data(), input.size());
}

tsp::RunResult
ProbeBackend::runBounded(tsp::Cycle max_cycles)
{
    // Read on the engine the run uses: rebuilds happen in
    // resetBatch(), never inside runBounded().
    const EngineCounters before =
        counters_ ? counters_() : EngineCounters{};
    tsp::RunResult r;
    {
        auto s = spans_.scope("runtime.run");
        r = inner_->runBounded(max_cycles);
    }
    if (counters_) {
        const EngineCounters after = counters_();
        totals_.energyJ += after.energyJ - before.energyJ;
        totals_.c2cSent += after.c2cSent - before.c2cSent;
    }
    return r;
}

tsp::ref::QTensor
ProbeBackend::readSample(int sample) const
{
    tsp::ref::QTensor out;
    {
        auto s = spans_.scope("runtime.read");
        out = inner_->readSample(sample);
    }
    completions_.push_back({nowNs(), threadCpuNs() - busySinceCpuNs_});
    samples_.push_back({inputs_.at(static_cast<std::size_t>(sample)),
                        tsp::fnv1a64(out.data.data(), out.data.size())});
    // The batch's next read is charged from here; the next batch
    // starts its own clock at resetBatch().
    busySinceCpuNs_ = --readsLeft_ > 0 ? threadCpuNs() : -1;
    return out;
}

} // namespace perfbench
