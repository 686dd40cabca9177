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

SessionBackend::SessionBackend(Lowering &lw, LoweredTensor input,
                               LoweredTensor output, ChipConfig cfg)
    : inputSlot_(std::move(input)), outputSlot_(std::move(output)),
      sess_(lw, cfg), lwKey_(&lw)
{
}

SessionBackend::SessionBackend(BatchProgramCache &cache,
                               ChipConfig cfg)
    : cache_(&cache), boundBp_(cache.acquire(1)),
      sess_(*boundBp_->lw, boundBp_->prog, cfg)
{
    inputSlot_ = boundBp_->inputs[0];
    outputSlot_ = boundBp_->outputs[0];
}

SessionBackend::SessionBackend(std::shared_ptr<BatchProgram> initial,
                               int max_batch, ChipConfig cfg)
    : boundBp_(std::move(initial)), maxBatch_(max_batch),
      sess_(*boundBp_->lw, boundBp_->prog, cfg)
{
    TSP_ASSERT(boundBp_ != nullptr);
    TSP_ASSERT(max_batch >= 1);
    inputSlot_ = boundBp_->inputs[0];
    outputSlot_ = boundBp_->outputs[0];
    bound_ = boundBp_->batch;
}

int
SessionBackend::maxBatch() const
{
    return cache_ ? cache_->maxBatch() : maxBatch_;
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
    TSP_ASSERT(cache_ || !boundBp_ || bound_ == batch);
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

void
SessionBackend::attachTraceCache(std::shared_ptr<TraceCache> t)
{
    traces_ = std::move(t);
    sess_.enableReplay(traces_ != nullptr);
}

TraceKey
SessionBackend::traceKey() const
{
    // Pointer identity alone would be an ABA hazard (a retired
    // program's address can be reused by a different one); the chip's
    // cached program content hash disambiguates.
    const void *ptr = boundBp_
                          ? static_cast<const void *>(sess_.program())
                          : static_cast<const void *>(lwKey_);
    return {ptr, sess_.chip().programHash()};
}

RunResult
SessionBackend::runBounded(Cycle max_cycles)
{
    if (!traces_)
        return sess_.runBounded(max_cycles);
    // Seed the session from the pool cache (another worker may have
    // recorded this program already); publish a fresh recording back.
    const TraceKey key = traceKey();
    if (!sess_.trace())
        sess_.setTrace(traces_->find(key));
    const bool had = sess_.trace() != nullptr;
    const RunResult r = sess_.runBounded(max_cycles);
    if (!had && sess_.trace())
        traces_->insert(key, sess_.trace());
    return r;
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

std::uint64_t
SessionBackend::correctedErrors() const
{
    return sess_.chip().stats().get("ecc_corrected");
}

std::uint64_t
SessionBackend::machineCheckCount() const
{
    return sess_.chip().machineCheckCount();
}

Cycle
SessionBackend::totalCycles() const
{
    // Lifetime accounting: the current chip's clock alone forgets
    // cycles burned on engines condemned and rebuilt along the way.
    return sess_.totalCycles();
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
    : sess_(chips, wire_latency, cfg)
{
    TSP_ASSERT(max_batch >= 1 &&
               max_batch <= AllReducePlan::kMaxBatch);
    progs_.reserve(static_cast<std::size_t>(max_batch));
    for (int b = 1; b <= max_batch; ++b)
        progs_.push_back(allReducePrograms(sess_.pod(), b));
    sess_.loadPrograms(progs_[0]);
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
        PodSession calib(chips, wire_latency, cfg);
        calib.loadPrograms(allReducePrograms(calib.pod(), b));
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
    // reset() first: it rebuilds a condemned/timed-out pod (derived
    // fault seeds) before any program swap touches the members.
    sess_.reset();
    if (batch != bound_) {
        sess_.loadPrograms(progs_[static_cast<std::size_t>(
            batch - 1)]);
        bound_ = batch;
    }
}

void
PodBackend::writeSample(int sample,
                        const std::vector<std::int8_t> &input)
{
    const int n = sess_.pod().size();
    TSP_ASSERT(input.size() == inputBytes(n));
    Vec320 v;
    for (int c = 0; c < n; ++c) {
        for (int i = 0; i < kLanes; ++i) {
            v.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(
                    input[static_cast<std::size_t>(c) * kLanes +
                          static_cast<std::size_t>(i)]);
        }
        sess_.writeWord(c, Hemisphere::East, AllReducePlan::kSlice,
                        AllReducePlan::kLocalAddr +
                            static_cast<MemAddr>(sample),
                        v);
    }
}

void
PodBackend::attachTraceCache(std::shared_ptr<TraceCache> t)
{
    traces_ = std::move(t);
    sess_.enableReplay(traces_ != nullptr);
}

RunResult
PodBackend::runBounded(Cycle max_cycles)
{
    if (!traces_)
        return sess_.runBounded(max_cycles);
    // Keyed by this backend's compiled batch-b collective: the trace
    // survives batch switches (loadPrograms drops the session's own
    // reference) and LRU-competes with every other program in the
    // pool. Content-fingerprinted against pointer reuse (ABA) by
    // folding the members' carried hashes.
    const std::vector<SharedProgram> &progs =
        progs_[static_cast<std::size_t>(bound_ - 1)];
    std::uint64_t fingerprint = 0;
    for (const SharedProgram &p : progs) {
        fingerprint ^= p.hash() + 0x9e3779b97f4a7c15ull +
                       (fingerprint << 6) + (fingerprint >> 2);
    }
    const TraceKey key(&progs, fingerprint);
    if (!sess_.trace())
        sess_.setTrace(traces_->find(key));
    const bool had = sess_.trace() != nullptr;
    const RunResult r = sess_.runBounded(max_cycles);
    if (!had && sess_.trace())
        traces_->insert(key, sess_.trace());
    return r;
}

ref::QTensor
PodBackend::readSample(int sample) const
{
    // Every member holds the reduced vector after the broadcast;
    // chip 0 is the designated reader.
    const Vec320 v =
        sess_.readWord(0, Hemisphere::East, AllReducePlan::kSlice,
                       AllReducePlan::kResultAddr +
                           static_cast<MemAddr>(sample));
    ref::QTensor out(1, 1, kLanes);
    for (int i = 0; i < kLanes; ++i)
        out.at(0, 0, i) = static_cast<std::int8_t>(
            v.bytes[static_cast<std::size_t>(i)]);
    return out;
}

std::uint64_t
PodBackend::correctedErrors() const
{
    return sess_.stats().get("ecc_corrected");
}

std::uint64_t
PodBackend::machineCheckCount() const
{
    std::uint64_t n = 0;
    const Pod &pod = sess_.pod();
    for (int c = 0; c < pod.size(); ++c)
        n += pod.chip(c).machineCheckCount();
    return n;
}

Cycle
PodBackend::totalCycles() const
{
    // Lifetime accounting across rebuilds, as in SessionBackend.
    return sess_.totalCycles();
}

} // namespace tsp::serve
