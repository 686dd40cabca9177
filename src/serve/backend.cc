#include "serve/backend.hh"

#include "c2c/collective.hh"
#include "common/logging.hh"

namespace tsp::serve {

RunResult
Backend::serveBatch(
    const std::vector<const std::vector<std::int8_t> *> &inputs,
    Cycle max_cycles)
{
    const int b = static_cast<int>(inputs.size());
    TSP_ASSERT(b >= 1 && b <= maxBatch());
    resetBatch(b);
    for (int s = 0; s < b; ++s)
        writeSample(s, *inputs[static_cast<std::size_t>(s)]);
    return runBounded(max_cycles);
}

SessionBackend::SessionBackend(std::shared_ptr<BatchProgram> initial,
                               int max_batch, ChipConfig cfg)
    : EngineBackend(InferenceSession(*initial->lw, initial->prog, cfg)),
      boundBp_(std::move(initial)), maxBatch_(max_batch)
{
    TSP_ASSERT(max_batch >= 1);
}

void
SessionBackend::bindProgram(std::shared_ptr<BatchProgram> bp)
{
    TSP_ASSERT(bp != nullptr);
    if (boundBp_ == bp)
        return;
    // A different program object: another model family, another
    // batch size, or a recompile after registry eviction. The
    // session re-stages the new image (the weight swap the booking
    // already paid for).
    boundBp_ = std::move(bp);
    sess_.bind(*boundBp_->lw, boundBp_->prog);
}

std::size_t
SessionBackend::expectedInputBytes() const
{
    const ActTensor &t = boundBp_->inputs[0].t;
    return static_cast<std::size_t>(t.height) *
           static_cast<std::size_t>(t.width) *
           static_cast<std::size_t>(t.channels);
}

void
SessionBackend::resetBatch(int batch)
{
    // The caller binds the matching batch program first (the worker
    // loop binds each job's pinned program), so the armed batch size
    // must already match here.
    TSP_ASSERT(batch >= 1 && batch <= maxBatch() &&
               boundBp_->batch == batch);
    sess_.reset();
}

void
SessionBackend::writeSample(int sample,
                            const std::vector<std::int8_t> &input)
{
    sess_.writeTensor(
        boundBp_->inputs[static_cast<std::size_t>(sample)], input);
}

ref::QTensor
SessionBackend::readSample(int sample) const
{
    return sess_.readTensor(
        boundBp_->outputs[static_cast<std::size_t>(sample)]);
}

namespace {

std::vector<SharedProgram>
allReducePrograms(const Pod &pod, int batch)
{
    std::vector<ScheduledProgram> sched;
    buildRingAllReduce(pod, sched, batch);
    std::vector<SharedProgram> progs;
    progs.reserve(sched.size());
    for (auto &p : sched)
        progs.emplace_back(p.toAsm());
    return progs;
}

} // namespace

PodBackend::PodBackend(int chips, Cycle wire_latency, ChipConfig cfg,
                       int max_batch)
    : EngineBackend(InferenceSession(chips, wire_latency, cfg))
{
    TSP_ASSERT(max_batch >= 1 &&
               max_batch <= AllReducePlan::kMaxBatch);
    progs_.reserve(static_cast<std::size_t>(max_batch));
    for (int b = 1; b <= max_batch; ++b)
        progs_.push_back(allReducePrograms(sess_.pod(), b));
    sess_.bind(progs_[0]);
    sess_.reset();
}

std::vector<Cycle>
PodBackend::serviceCyclesTable(int chips, Cycle wire_latency, ChipConfig,
                               int max_batch)
{
    std::vector<Cycle> table;
    table.reserve(static_cast<std::size_t>(max_batch));
    std::vector<ScheduledProgram> sched;
    for (int b = 1; b <= max_batch; ++b) {
        table.push_back(
            buildRingAllReduce(chips, wire_latency, sched, b).finish);
    }
    return table;
}

std::size_t
PodBackend::inputBytes(int chips)
{
    return static_cast<std::size_t>(chips) *
           static_cast<std::size_t>(kLanes);
}

int
PodBackend::maxBatch() const
{
    return static_cast<int>(progs_.size());
}

std::size_t
PodBackend::expectedInputBytes() const
{
    return inputBytes(sess_.pod().size());
}

void
PodBackend::resetBatch(int batch)
{
    TSP_ASSERT(batch >= 1 && batch <= maxBatch());
    if (batch != bound_) {
        sess_.bind(progs_[static_cast<std::size_t>(batch - 1)]);
        bound_ = batch;
    }
    sess_.reset();
}

void
PodBackend::writeSample(int sample,
                        const std::vector<std::int8_t> &input)
{
    Pod &pod = sess_.pod();
    TSP_ASSERT(input.size() == inputBytes(pod.size()));
    Vec320 v;
    for (int c = 0; c < pod.size(); ++c) {
        for (int i = 0; i < kLanes; ++i) {
            v.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(
                    input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(i)]);
        }
        pod.chip(c)
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorWrite(AllReducePlan::kLocalAddr +
                               static_cast<MemAddr>(sample),
                           v);
    }
}

ref::QTensor
PodBackend::readSample(int sample) const
{
    // Every member holds the reduced vector after the broadcast;
    // chip 0 is the designated reader.
    const Vec320 v =
        sess_.chip()
            .mem(Hemisphere::East, AllReducePlan::kSlice)
            .backdoorRead(AllReducePlan::kResultAddr +
                          static_cast<MemAddr>(sample));
    ref::QTensor out(1, 1, kLanes);
    for (int i = 0; i < kLanes; ++i)
        out.at(0, 0, i) = static_cast<std::int8_t>(
            v.bytes[static_cast<std::size_t>(i)]);
    return out;
}

} // namespace tsp::serve
