#include "runtime/session.hh"

#include "common/logging.hh"
#include "common/seed.hh"

namespace tsp {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Completed:
        return "completed";
      case RunStatus::CycleLimit:
        return "cycle_limit";
      case RunStatus::MachineCheck:
        return "machine_check";
    }
    return "?";
}

InferenceSession::InferenceSession(Lowering &lw, ChipConfig cfg)
    : InferenceSession(
          lw, SharedProgram(lw.program().toAsm(/*with_preamble=*/true)),
          cfg)
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
    : lw_(&lw), cfg_(cfg), prog_(std::move(prog)),
      chip_(std::make_unique<Chip>(cfg))
{
    chip_->loadProgram(prog_);
    lw.image().applyTo(*chip_);
    dmaSeconds_ =
        static_cast<double>(lw.image().totalBytes()) / kPcieGen4Bps;
}

void
InferenceSession::bind(Lowering &lw, SharedProgram prog)
{
    lw_ = &lw;
    prog_ = std::move(prog);
    ++binds_;
    dmaSeconds_ =
        static_cast<double>(lw.image().totalBytes()) / kPcieGen4Bps;
    // The chip still holds the previous program and image until the
    // next reset(): any recorded trace is for the wrong program (or
    // the wrong weights after a reinstall), and no run before that
    // reset may record or replay.
    trace_.reset();
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
    // not capture; the dispatch trace and the per-cycle power trace
    // are artifacts only per-cycle execution populates.
    return !cfg_.fault.enabled() && !cfg_.traceEnabled &&
           !cfg_.powerTraceEnabled;
}

RunResult
InferenceSession::runBounded(Cycle max_cycles)
{
    // Record/replay only engages from the freshly loaded program
    // state a recording started from; any run consumes freshness.
    const bool eligible = replayEnabled_ && fresh_ && replayEligible();
    fresh_ = false;
    if (eligible && trace_ && trace_->span <= max_cycles) {
        replayTrace(*trace_, {chip_.get()});
        ++replays_;
        timedOut_ = false;
        machineChecked_ = false;
        cycles_ = trace_->span;
        return {true, RunStatus::Completed, trace_->span};
    }
    if (eligible && !trace_) {
        TraceRecording rec({chip_.get()});
        const RunResult r = runRaw(max_cycles);
        trace_ = rec.finish(r.completed);
        if (trace_)
            ++records_;
        return r;
    }
    return runRaw(max_cycles);
}

void
InferenceSession::captureSnapshot()
{
    auto snap = std::make_unique<ChipSnapshot>();
    if (chip_->snapshot(*snap)) {
        lastSnap_ = std::move(snap);
        ++snapshots_;
    }
}

RunResult
InferenceSession::runRaw(Cycle max_cycles)
{
    // The chip clock is cumulative across reset() cycles, so the
    // budget is applied relative to the current time.
    const Cycle base = chip_->now();
    const Cycle limit = base + max_cycles;
    RunResult r;
    if (snapshotEvery_ > 0) {
        // Chunked run with a snapshot at each boundary. runBounded()
        // stops bit-identically at any absolute cycle (even inside a
        // fast-forwarded idle span), so chunking never perturbs the
        // simulation. A machine-checked chunk takes no snapshot: the
        // last capture always precedes the first uncorrectable error.
        for (;;) {
            const Cycle next =
                std::min(limit, chip_->now() + snapshotEvery_);
            r.completed = chip_->runBounded(next);
            machineChecked_ = chip_->machineCheck();
            if (r.completed || machineChecked_ ||
                chip_->now() >= limit) {
                break;
            }
            captureSnapshot();
        }
    } else {
        r.completed = chip_->runBounded(limit);
        machineChecked_ = chip_->machineCheck();
    }
    timedOut_ = !r.completed && !machineChecked_;
    if (r.completed) {
        r.status = RunStatus::Completed;
    } else if (machineChecked_) {
        r.status = RunStatus::MachineCheck;
        lastMc_ = chip_->machineCheckInfo();
    } else {
        r.status = RunStatus::CycleLimit;
    }
    r.cycles = chip_->now() - base;
    cycles_ = r.cycles;
    return r;
}

void
InferenceSession::reset()
{
    if (timedOut_ || machineChecked_) {
        // A half-executed program leaves queues, barriers and MXM
        // sequencers in an arbitrary state, and a machine-checked
        // chip is condemned; only a fresh chip is trustworthy.
        // Soft errors are environmental, not part of the schedule, so
        // the rebuilt chip draws a derived fault seed — a retry of the
        // same request must not deterministically replay the upset
        // that killed it. (Explicit FaultEvents *do* replay: they
        // model a fault wired to a cycle, and bounded retries against
        // them end in FailedMachineCheck by design.)
        ++rebuilds_;
        retiredCycles_ += chip_->now();
        ChipConfig cfg = cfg_;
        cfg.fault.seed =
            deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                       static_cast<std::uint64_t>(rebuilds_));
        chip_ = std::make_unique<Chip>(cfg);
        timedOut_ = false;
        machineChecked_ = false;
    }
    chip_->loadProgram(prog_);
    lw_->image().applyTo(*chip_);
    lastSnap_.reset(); // A snapshot never outlives its batch.
    fresh_ = true;
}

RunResult
InferenceSession::migrateAndResume(Cycle max_cycles)
{
    TSP_ASSERT(lastSnap_ != nullptr);
    // Same rebuild discipline as reset() after a machine check: only
    // a fresh chip is trustworthy, and it draws a derived fault seed
    // so the condemned chip's upset sequence is not replayed.
    ++rebuilds_;
    ++migrations_;
    ChipConfig cfg = cfg_;
    cfg.fault.seed =
        deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                   static_cast<std::uint64_t>(rebuilds_));
    auto fresh = std::make_unique<Chip>(cfg);
    fresh->loadProgram(prog_);
    std::string err;
    if (!fresh->restore(*lastSnap_, &err)) {
        // Same program, config and fault environment, so this cannot
        // happen; if it somehow does, stay condemned and let the
        // caller fall back to a full retry.
        return {false, RunStatus::MachineCheck, 0};
    }
    // The condemned chip ran from 0 to its fault; the restored one
    // resumes at the snapshot cycle. Only the span the new chip will
    // not re-cover is retired, or lifetime cycles would double-count
    // the (snapshot, fault] segment it replays.
    retiredCycles_ += chip_->now() - std::min(chip_->now(), fresh->now());
    chip_ = std::move(fresh);
    machineChecked_ = false;
    timedOut_ = false;
    fresh_ = false; // Mid-program: no record/replay footing.
    return runRaw(max_cycles);
}

double
InferenceSession::latencySeconds() const
{
    return static_cast<double>(cycles_) *
           chip_->config().cyclePeriodSec();
}

void
InferenceSession::writeTensor(const LoweredTensor &t,
                              const std::vector<std::int8_t> &data)
{
    const ActTensor &at = t.t;
    TSP_ASSERT(static_cast<std::size_t>(at.height) * at.width *
                   at.channels ==
               data.size());
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
                    chip_->mem(a.hem, a.slice)
                        .backdoorWrite(a.addr, v);
                }
            }
        }
    }
}

ref::QTensor
InferenceSession::readTensor(const LoweredTensor &t) const
{
    const ActTensor &at = t.t;
    ref::QTensor out(at.height, at.width, at.channels);
    for (int y = 0; y < at.height; ++y) {
        const int e = at.ownerOf(y);
        for (int x = 0; x < at.width; ++x) {
            for (int kg = 0; kg < at.kgCount; ++kg) {
                const GlobalAddr a = at.addrOf(e, y, x, kg);
                const Vec320 v =
                    chip_->mem(a.hem, a.slice).backdoorRead(a.addr);
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
