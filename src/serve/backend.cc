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

SessionBackend::SessionBackend(Lowering &lw, SharedProgram prog,
                               LoweredTensor input,
                               LoweredTensor output, ChipConfig cfg)
    : EngineBackend(InferenceSession(lw, std::move(prog), cfg)),
      inputSlot_(std::move(input)), outputSlot_(std::move(output))
{
}

SessionBackend::SessionBackend(BatchProgramCache &cache,
                               ChipConfig cfg)
    : SessionBackend(cache.acquire(1), cache.maxBatch(), cfg)
{
    cache_ = &cache;
}

SessionBackend::SessionBackend(std::shared_ptr<BatchProgram> initial,
                               int max_batch, ChipConfig cfg)
    : EngineBackend(InferenceSession(*initial->lw, initial->prog, cfg)),
      inputSlot_(initial->inputs[0]), outputSlot_(initial->outputs[0]),
      boundBp_(std::move(initial)), maxBatch_(max_batch),
      bound_(boundBp_->batch)
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
    inputSlot_ = boundBp_->inputs[0];
    outputSlot_ = boundBp_->outputs[0];
    sess_.bind(*boundBp_->lw, boundBp_->prog);
    bound_ = boundBp_->batch;
}

std::size_t
SessionBackend::expectedInputBytes() const
{
    const ActTensor &t = inputSlot_.t;
    return static_cast<std::size_t>(t.height) *
           static_cast<std::size_t>(t.width) *
           static_cast<std::size_t>(t.channels);
}

void
SessionBackend::resetBatch(int batch)
{
    TSP_ASSERT(batch >= 1 && batch <= maxBatch());
    if (cache_ && batch != bound_) {
        boundBp_ = cache_->acquire(batch);
        sess_.bind(*boundBp_->lw, boundBp_->prog);
        bound_ = batch;
    }
    // Multi-model mode: the worker loop bindProgram()s the job's
    // pinned program first, so the armed batch size must already
    // match here.
    TSP_ASSERT(bound_ == batch);
    sess_.reset();
}

void
SessionBackend::writeSample(int sample,
                            const std::vector<std::int8_t> &input)
{
    if (boundBp_) {
        sess_.writeTensor(
            boundBp_->inputs[static_cast<std::size_t>(sample)],
            input);
        return;
    }
    TSP_ASSERT(sample == 0);
    sess_.writeTensor(inputSlot_, input);
}

ref::QTensor
SessionBackend::readSample(int sample) const
{
    if (boundBp_) {
        return sess_.readTensor(
            boundBp_->outputs[static_cast<std::size_t>(sample)]);
    }
    TSP_ASSERT(sample == 0);
    return sess_.readTensor(outputSlot_);
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

Cycle
PodBackend::serviceCycles(int chips, Cycle wire_latency,
                          ChipConfig cfg)
{
    return serviceCyclesTable(chips, wire_latency, cfg, 1)[0];
}

std::vector<Cycle>
PodBackend::serviceCyclesTable(int chips, Cycle wire_latency,
                               ChipConfig cfg, int max_batch)
{
    // A static schedule's cycle count is input- and fault-independent
    // (injection flips data bits, never timing), so one fault-free
    // calibration run per batch size is the exact booking for every
    // future request.
    cfg.fault = FaultConfig{};
    std::vector<Cycle> table;
    table.reserve(static_cast<std::size_t>(max_batch));
    for (int b = 1; b <= max_batch; ++b) {
        InferenceSession calib(chips, wire_latency, cfg);
        calib.bind(allReducePrograms(calib.pod(), b));
        calib.reset();
        const RunResult r = calib.runBounded();
        TSP_ASSERT(r.completed);
        table.push_back(r.cycles);
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
