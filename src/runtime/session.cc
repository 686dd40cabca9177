#include "runtime/session.hh"

#include <string>

#include "common/logging.hh"
#include "common/seed.hh"

namespace tsp {

InferenceSession::InferenceSession(Lowering &lw, ChipConfig cfg)
    : InferenceSession(lw, lw.assembled(), cfg)
{
}

InferenceSession::InferenceSession(
    Lowering &lw, std::shared_ptr<const AsmProgram> prog,
    ChipConfig cfg)
    : InferenceSession(lw, SharedProgram(std::move(prog)), cfg)
{
}

InferenceSession::InferenceSession(Lowering &lw, SharedProgram prog,
                                   ChipConfig cfg)
    : InferenceSession(1, 0, cfg)
{
    bind(lw, std::move(prog));
    reset();
}

InferenceSession::InferenceSession(int chips, Cycle wire_latency,
                                   ChipConfig cfg)
    : cfg_(cfg), pod_(std::make_unique<Pod>(chips, wire_latency, cfg))
{
}

void
InferenceSession::bind(std::vector<SharedProgram> programs,
                       Lowering *lw)
{
    TSP_ASSERT(static_cast<int>(programs.size()) == pod_->size());
    programs_ = std::move(programs);
    // A bound lowering keeps only its run half: the image is all a
    // session reads of it.
    if (lw)
        lw->seal();
    image_ = lw ? &lw->image() : nullptr;
    key_ = traceKeyOf(programs_, pod_->wireLatency());
    dmaSeconds_ =
        image_ ? static_cast<double>(image_->totalBytes()) / kPcieGen4Bps
               : 0.0;
    // The members still hold the previous programs and image until
    // the next reset(): any derived trace or snapshot is of the
    // wrong program (or the wrong weights after a reinstall), and no
    // run before that reset may derive, replay or migrate.
    trace_.reset();
    lastSnap_.reset();
    fresh_ = false;
}

Cycle
InferenceSession::run(Cycle max_cycles)
{
    const RunResult r = runBounded(max_cycles);
    if (r.status == RunStatus::MachineCheck) {
        fatal("InferenceSession::run: machine check at cycle %llu, "
              "%s: %s",
              static_cast<unsigned long long>(lastMc_.cycle),
              lastMc_.unit.c_str(), lastMc_.detail.c_str());
    }
    if (!r.completed) {
        fatal("InferenceSession::run: cycle limit %llu reached — "
              "program never completes",
              static_cast<unsigned long long>(max_cycles));
    }
    return r.cycles;
}

bool
InferenceSession::replayEligible() const
{
    // Fault injection mutates consumed values in ways the tape does
    // not capture.
    return !cfg_.fault.enabled();
}

std::vector<Chip *>
InferenceSession::members()
{
    std::vector<Chip *> chips;
    chips.reserve(static_cast<std::size_t>(pod_->size()));
    for (int c = 0; c < pod_->size(); ++c)
        chips.push_back(&pod_->chip(c));
    return chips;
}

bool
InferenceSession::quiescent() const
{
    for (int c = 0; c < pod_->size(); ++c) {
        const Chip &chip = pod_->chip(c);
        if (chip.fabric().validEntries() != 0 ||
            chip.fabric().pendingWrites() != 0 ||
            !chip.c2c().idle(chip.now())) {
            return false;
        }
    }
    return true;
}

RunResult
InferenceSession::runBounded(Cycle max_cycles)
{
    // Replay only engages from the freshly loaded program state a
    // trace starts from: any run consumes freshness, and a run that
    // starts with values on a member's fabric or a vector on its links
    // (neither is in the text) steps.
    const bool eligible =
        replayEnabled_ && fresh_ && replayEligible() && quiescent();
    fresh_ = false;
    if (!eligible)
        return runRaw(max_cycles);
    // Another session of the pool may have derived the trace.
    if (!trace_ && pool_)
        trace_ = pool_->find(key_);
    if (trace_) {
        if (trace_->span > max_cycles)
            return runRaw(max_cycles);
        ++replays_;
    } else {
        // The run's trace follows from its programs' text, so the first
        // run replays it too. A declined derivation, or one that will
        // not retire within the budget, steps and keeps no trace.
        std::vector<const AsmProgram *> texts;
        for (const SharedProgram &p : programs_)
            texts.push_back(p.get());
        trace_ = deriveTrace(texts, pod_->wireLatency(), max_cycles);
        if (!trace_)
            return runRaw(max_cycles);
        ++records_;
        if (pool_)
            pool_->insert(key_, trace_);
    }
    replayTrace(*trace_, members());
    timedOut_ = false;
    machineChecked_ = false;
    cycles_ = trace_->span;
    return {true, RunStatus::Completed, trace_->span};
}

void
InferenceSession::captureSnapshot()
{
    auto snap = std::make_unique<PodSnapshot>();
    if (pod_->snapshot(*snap)) {
        lastSnap_ = std::move(snap);
        snapAt_ = pod_->now();
        ++snapshots_;
    }
}

RunResult
InferenceSession::runRaw(Cycle max_cycles)
{
    // Member clocks are cumulative across reset() cycles, so the
    // budget applies relative to the current pod clock.
    const Cycle base = pod_->now();
    const Cycle limit = base + max_cycles;
    RunResult r;
    for (;;) {
        // With a snapshot cadence the run advances in chunks and
        // captures at each boundary. runAllBounded() stops
        // bit-identically at any absolute cycle (even inside a
        // fast-forwarded idle span), so chunking never perturbs the
        // simulation. A machine-checked chunk takes no snapshot: the
        // last capture always precedes the first uncorrectable error.
        const Cycle next =
            snapshotEvery_ > 0
                ? std::min(limit, pod_->now() + snapshotEvery_)
                : limit;
        r.completed = pod_->runAllBounded(next);
        machineChecked_ = pod_->machineCheck();
        if (r.completed || machineChecked_ || next >= limit)
            break;
        captureSnapshot();
    }
    timedOut_ = !r.completed && !machineChecked_;
    if (r.completed) {
        r.status = RunStatus::Completed;
    } else if (machineChecked_) {
        r.status = RunStatus::MachineCheck;
        r.resumeAt = lastSnap_ ? snapAt_ - resetAt_ : 0;
        mcChip_ = pod_->machineCheckChip();
        lastMc_ = pod_->chip(mcChip_).machineCheckInfo();
    } else {
        r.status = RunStatus::CycleLimit;
    }
    r.cycles = pod_->now() - base;
    cycles_ = r.cycles;
    return r;
}

std::unique_ptr<Pod>
InferenceSession::rebuildPod()
{
    // Soft errors are environmental, not part of the schedule, so the
    // rebuilt pod draws a derived fault seed — a retry of the same
    // request must not deterministically replay the upset that killed
    // it. (Explicit FaultEvents *do* replay: they model a fault wired
    // to a cycle, and bounded retries against them end in
    // FailedMachineCheck by design.)
    ++rebuilds_;
    ChipConfig cfg = cfg_;
    cfg.fault.seed = deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                                static_cast<std::uint64_t>(rebuilds_));
    auto pod =
        std::make_unique<Pod>(pod_->size(), pod_->wireLatency(), cfg);
    for (int c = 0; c < pod->size(); ++c)
        pod->chip(c).loadProgram(programs_[static_cast<std::size_t>(c)]);
    return pod;
}

void
InferenceSession::reset()
{
    TSP_ASSERT(!programs_.empty());
    if (timedOut_ || machineChecked_) {
        // A half-executed program leaves queues, barriers, MXM
        // sequencers and the members' mutual progress in an arbitrary
        // state, and one condemned chip poisons every downstream
        // partial; only a whole fresh pod is trustworthy.
        retiredCycles_ += memberCycles();
        pod_ = rebuildPod();
        timedOut_ = false;
        machineChecked_ = false;
    } else {
        for (int c = 0; c < pod_->size(); ++c) {
            pod_->chip(c).loadProgram(
                programs_[static_cast<std::size_t>(c)]);
        }
    }
    if (image_)
        image_->applyTo(pod_->chip(0));
    resetAt_ = pod_->now();
    lastSnap_.reset(); // A snapshot never outlives its batch.
    fresh_ = true;
}

RunResult
InferenceSession::migrateAndResume(Cycle max_cycles)
{
    TSP_ASSERT(lastSnap_ != nullptr);
    // Same rebuild discipline as reset() after a machine check.
    ++migrations_;
    std::unique_ptr<Pod> fresh = rebuildPod();
    // The snapshot is of this session's own programs, config and
    // fault environment (bind() and reset() drop it), so a refusal
    // is a simulator bug, never a new fault.
    std::string err;
    if (!fresh->restore(*lastSnap_, &err))
        panic("InferenceSession::migrateAndResume: restore refused: %s",
              err.c_str());
    // The condemned members ran from 0 to the fault; the restored
    // ones resume at their snapshot-time clocks. Only the span they
    // will not re-cover is retired, or lifetime cycles would
    // double-count the (snapshot, fault] segment they replay.
    for (int c = 0; c < pod_->size(); ++c) {
        const Cycle old_now = pod_->chip(c).now();
        retiredCycles_ += old_now - std::min(old_now, fresh->chip(c).now());
    }
    pod_ = std::move(fresh);
    machineChecked_ = false;
    timedOut_ = false;
    fresh_ = false; // Mid-program: no replay footing.
    return runRaw(max_cycles);
}

Cycle
InferenceSession::memberCycles() const
{
    Cycle total = 0;
    for (int c = 0; c < pod_->size(); ++c)
        total += pod_->chip(c).now();
    return total;
}

std::uint64_t
InferenceSession::correctedErrors() const
{
    std::uint64_t n = 0;
    for (int c = 0; c < pod_->size(); ++c)
        n += pod_->chip(c).correctedErrorCount();
    return n;
}

std::uint64_t
InferenceSession::machineCheckCount() const
{
    std::uint64_t n = 0;
    for (int c = 0; c < pod_->size(); ++c)
        n += pod_->chip(c).machineCheckCount();
    return n;
}

double
InferenceSession::latencySeconds() const
{
    return static_cast<double>(cycles_) * cfg_.cyclePeriodSec();
}

void
InferenceSession::writeTensor(const LoweredTensor &t,
                              const std::vector<std::int8_t> &data)
{
    const ActTensor &at = t.t;
    TSP_ASSERT(static_cast<std::size_t>(at.height) * at.width *
                   at.channels ==
               data.size());
    Chip &chip = pod_->chip(0);
    // Same traversal as Lowering::inputTensor's DMA manifest: every
    // stored row of both engine parts, including the halo rows each
    // side duplicates past the split boundary.
    Vec320 v;
    for (int e = 0; e < 2; ++e) {
        const int y_lo = e == 0 ? 0 : at.storedLoY();
        const int y_hi = e == 0 ? at.storedHiY() : at.height;
        for (int y = y_lo; y < y_hi; ++y) {
            for (int x = 0; x < at.width; ++x) {
                for (int kg = 0; kg < at.kgCount; ++kg) {
                    v.bytes.fill(0);
                    const int c_lo = kg * kMxmDim;
                    const int c_hi =
                        std::min(at.channels, c_lo + kMxmDim);
                    for (int c = c_lo; c < c_hi; ++c) {
                        v.bytes[static_cast<std::size_t>(c - c_lo)] =
                            static_cast<std::uint8_t>(
                                data[(static_cast<std::size_t>(y) *
                                          at.width +
                                      x) *
                                         at.channels +
                                     c]);
                    }
                    const GlobalAddr a = at.addrOf(e, y, x, kg);
                    chip.mem(a.hem, a.slice).backdoorWrite(a.addr, v);
                }
            }
        }
    }
}

ref::QTensor
InferenceSession::readTensor(const LoweredTensor &t) const
{
    const ActTensor &at = t.t;
    const Chip &chip = pod_->chip(0);
    ref::QTensor out(at.height, at.width, at.channels);
    for (int y = 0; y < at.height; ++y) {
        const int e = at.ownerOf(y);
        for (int x = 0; x < at.width; ++x) {
            for (int kg = 0; kg < at.kgCount; ++kg) {
                const GlobalAddr a = at.addrOf(e, y, x, kg);
                const Vec320 v =
                    chip.mem(a.hem, a.slice).backdoorRead(a.addr);
                const int c_lo = kg * kMxmDim;
                const int c_hi =
                    std::min(at.channels, c_lo + kMxmDim);
                for (int c = c_lo; c < c_hi; ++c) {
                    out.at(y, x, c) = static_cast<std::int8_t>(
                        v.bytes[static_cast<std::size_t>(c - c_lo)]);
                }
            }
        }
    }
    return out;
}

} // namespace tsp
