#include "runtime/pod_session.hh"

#include "common/logging.hh"
#include "common/seed.hh"

namespace tsp {

PodSession::PodSession(int chips, Cycle wire_latency, ChipConfig cfg)
    : chips_(chips), wireLatency_(wire_latency), cfg_(cfg),
      pod_(std::make_unique<Pod>(chips, wire_latency, cfg))
{
}

void
PodSession::loadPrograms(std::vector<SharedProgram> programs)
{
    TSP_ASSERT(static_cast<int>(programs.size()) == chips_);
    programs_ = std::move(programs);
    for (int c = 0; c < chips_; ++c) {
        pod_->chip(c).loadProgram(
            programs_[static_cast<std::size_t>(c)]);
    }
    // New programs (or a weight reinstall via new programs): any
    // recorded trace is stale.
    trace_.reset();
    fresh_ = true;
}

std::vector<Chip *>
PodSession::members()
{
    std::vector<Chip *> chips;
    chips.reserve(static_cast<std::size_t>(chips_));
    for (int c = 0; c < chips_; ++c)
        chips.push_back(&pod_->chip(c));
    return chips;
}

RunResult
PodSession::runBounded(Cycle max_cycles)
{
    // Record/replay only engages from the freshly loaded program
    // state a recording started from; any run consumes freshness.
    const bool eligible = replayEnabled_ && fresh_ &&
                          !cfg_.fault.enabled() && !cfg_.traceEnabled &&
                          !cfg_.powerTraceEnabled;
    fresh_ = false;
    if (eligible && trace_ && trace_->span <= max_cycles) {
        replayTrace(*trace_, members());
        ++replays_;
        timedOut_ = false;
        machineChecked_ = false;
        cycles_ = trace_->span;
        return {true, RunStatus::Completed, trace_->span};
    }
    if (eligible && !trace_) {
        TraceRecording rec(members());
        const RunResult r = runRaw(max_cycles);
        trace_ = rec.finish(r.completed);
        if (trace_)
            ++records_;
        return r;
    }
    return runRaw(max_cycles);
}

void
PodSession::captureSnapshot()
{
    auto snap = std::make_unique<PodSnapshot>();
    if (pod_->snapshot(*snap)) {
        lastSnap_ = std::move(snap);
        ++snapshots_;
    }
}

RunResult
PodSession::runRaw(Cycle max_cycles)
{
    // Member clocks are cumulative across reset() cycles, so the
    // budget applies relative to the current pod clock.
    const Cycle base = pod_->now();
    const Cycle limit = base + max_cycles;
    RunResult r;
    if (snapshotEvery_ > 0) {
        // Chunked run with a snapshot at each boundary; resuming a
        // limit-stopped runAllBounded() is bit-identical because
        // member evolution is independent of scheduler interleaving.
        // A machine-checked chunk takes no snapshot.
        for (;;) {
            const Cycle next =
                std::min(limit, pod_->now() + snapshotEvery_);
            r.completed = pod_->runAllBounded(next);
            machineChecked_ = pod_->machineCheck();
            if (r.completed || machineChecked_ ||
                pod_->now() >= limit) {
                break;
            }
            captureSnapshot();
        }
    } else {
        r.completed = pod_->runAllBounded(limit);
        machineChecked_ = pod_->machineCheck();
    }
    timedOut_ = !r.completed && !machineChecked_;
    if (r.completed) {
        r.status = RunStatus::Completed;
    } else if (machineChecked_) {
        r.status = RunStatus::MachineCheck;
        mcChip_ = pod_->machineCheckChip();
        lastMc_ = pod_->chip(mcChip_).machineCheckInfo();
    } else {
        r.status = RunStatus::CycleLimit;
    }
    r.cycles = pod_->now() - base;
    cycles_ = r.cycles;
    return r;
}

void
PodSession::reset()
{
    if (timedOut_ || machineChecked_) {
        // A half-finished collective leaves members desynchronized,
        // and one condemned chip poisons every downstream partial —
        // only a whole fresh pod is trustworthy. As in
        // InferenceSession::reset(), the rebuild draws a derived
        // fault seed so a bounded retry does not deterministically
        // replay the upset that killed the run.
        ++rebuilds_;
        for (int c = 0; c < chips_; ++c)
            retiredCycles_ += pod_->chip(c).now();
        ChipConfig cfg = cfg_;
        cfg.fault.seed =
            deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                       static_cast<std::uint64_t>(rebuilds_));
        pod_ = std::make_unique<Pod>(chips_, wireLatency_, cfg);
        timedOut_ = false;
        machineChecked_ = false;
    }
    TSP_ASSERT(!programs_.empty());
    for (int c = 0; c < chips_; ++c) {
        pod_->chip(c).loadProgram(
            programs_[static_cast<std::size_t>(c)]);
    }
    lastSnap_.reset(); // A snapshot never outlives its batch.
    fresh_ = true;
}

RunResult
PodSession::migrateAndResume(Cycle max_cycles)
{
    TSP_ASSERT(lastSnap_ != nullptr);
    // Rebuild discipline as in reset(): one condemned member poisons
    // the collective, so the whole pod is rebuilt, with derived fault
    // seeds so the killing upset sequence is not replayed.
    ++rebuilds_;
    ++migrations_;
    ChipConfig cfg = cfg_;
    cfg.fault.seed =
        deriveSeed(cfg_.fault.seed, SeedDomain::EngineRebuild,
                   static_cast<std::uint64_t>(rebuilds_));
    auto fresh = std::make_unique<Pod>(chips_, wireLatency_, cfg);
    for (int c = 0; c < chips_; ++c) {
        fresh->chip(c).loadProgram(
            programs_[static_cast<std::size_t>(c)]);
    }
    std::string err;
    if (!fresh->restore(*lastSnap_, &err))
        return {false, RunStatus::MachineCheck, 0};
    // Retire only the span the restored members will not re-cover:
    // each resumes at its snapshot-time clock, so the (snapshot,
    // fault] segment is re-executed and must not be double-counted.
    for (int c = 0; c < chips_; ++c) {
        const Cycle old_now = pod_->chip(c).now();
        const Cycle new_now = fresh->chip(c).now();
        retiredCycles_ += old_now - std::min(old_now, new_now);
    }
    pod_ = std::move(fresh);
    machineChecked_ = false;
    timedOut_ = false;
    fresh_ = false; // Mid-collective: no record/replay footing.
    return runRaw(max_cycles);
}

void
PodSession::writeWord(int chip, Hemisphere hem, int slice,
                      MemAddr addr, const Vec320 &v)
{
    pod_->chip(chip).mem(hem, slice).backdoorWrite(addr, v);
}

Vec320
PodSession::readWord(int chip, Hemisphere hem, int slice,
                     MemAddr addr) const
{
    return pod_->chip(chip).mem(hem, slice).backdoorRead(addr);
}

Cycle
PodSession::totalCycles() const
{
    Cycle total = retiredCycles_;
    for (int c = 0; c < chips_; ++c)
        total += pod_->chip(c).now();
    return total;
}

StatGroup
PodSession::stats() const
{
    StatGroup g;
    for (int c = 0; c < chips_; ++c) {
        const StatGroup cs = pod_->chip(c).stats();
        for (const auto &[name, value] : cs.all())
            g.add(name, value);
    }
    g.set("pod_chips", static_cast<std::uint64_t>(chips_));
    return g;
}

} // namespace tsp
