#include "sim/chip.hh"

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace tsp {

Chip::Chip(ChipConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.validate();

    // The sink always exists: an uncorrectable error condemns the
    // chip whether it came from the injector or from a test's manual
    // bit flip. The injector only exists when configured, so the
    // default build does zero extra work per access.
    mcheck_ = std::make_unique<MachineCheckSink>();
    if (cfg_.fault.enabled())
        faults_ = std::make_unique<FaultInjector>(cfg_.fault);
    fabric_.attachFaultHooks(faults_.get(), mcheck_.get());

    memSlices_.reserve(kMemSlices);
    for (int h = 0; h < 2; ++h) {
        for (int i = 0; i < kMemSlicesPerHem; ++i) {
            memSlices_.emplace_back(static_cast<Hemisphere>(h), i,
                                    faults_.get(), mcheck_.get());
        }
    }

    vxm_ = std::make_unique<VxmUnit>(cfg_, fabric_);
    for (int p = 0; p < kMxmPlanes; ++p)
        mxm_.push_back(std::make_unique<MxmPlane>(p, cfg_, fabric_));
    sxm_.push_back(std::make_unique<SxmComplex>(Hemisphere::West, cfg_,
                                                fabric_));
    sxm_.push_back(std::make_unique<SxmComplex>(Hemisphere::East, cfg_,
                                                fabric_));
    c2c_ = std::make_unique<C2cModule>(cfg_, fabric_);
    memIo_ = std::make_unique<StreamIo>(cfg_, fabric_, "MEM");

    queues_.reserve(kNumIcus);
    for (int i = 0; i < kNumIcus; ++i)
        queues_.emplace_back(IcuId{i}, barrier_);
    live_.reserve(kNumIcus);
}

void
Chip::rebuildLive()
{
    live_.clear();
    for (const auto &q : queues_) {
        if (!q.inert(now()))
            live_.push_back(q.id().id);
    }
}

MemSlice &
Chip::mem(Hemisphere hem, int index)
{
    TSP_ASSERT(index >= 0 && index < kMemSlicesPerHem);
    const int base =
        hem == Hemisphere::West ? 0 : kMemSlicesPerHem;
    return memSlices_[static_cast<std::size_t>(base + index)];
}

const MemSlice &
Chip::mem(Hemisphere hem, int index) const
{
    return const_cast<Chip *>(this)->mem(hem, index);
}

const MxmPlane &
Chip::mxm(int plane) const
{
    TSP_ASSERT(plane >= 0 && plane < kMxmPlanes);
    return *mxm_[static_cast<std::size_t>(plane)];
}

const SxmComplex &
Chip::sxm(Hemisphere hem) const
{
    return *sxm_[hem == Hemisphere::West ? 0 : 1];
}

void
Chip::loadProgram(SharedProgram program)
{
    TSP_ASSERT(program);
    program_ = std::move(program);
    // One merge pass over the (ICU-ordered) program: queues without
    // instructions are unloaded, the rest borrow their vectors.
    const auto &qs = program_->queues;
    auto it = qs.begin();
    for (int i = 0; i < kNumIcus; ++i) {
        std::span<const Instruction> insts;
        if (it != qs.end() && it->first == i) {
            insts = it->second;
            ++it;
        }
        queues_[static_cast<std::size_t>(i)].loadProgram(insts);
    }
    TSP_ASSERT(it == qs.end()); // Every ICU id lies in [0, kNumIcus).
    rebuildLive();
    fabric_.clear();
    // Stale broadcasts must not leak into the next program's barrier
    // preamble: a reloaded chip starts from the same barrier state as
    // a fresh one (session reuse determinism).
    barrier_.clear();
    lastStepQuiet_ = true;
}

void
Chip::dispatchMem(const IcuId &icu, const Instruction &inst)
{
    const int rel = icu.id - IcuId::memBase;
    MemSlice &slice = memSlices_[static_cast<std::size_t>(rel)];
    const SlicePos pos = slice.pos();
    const Cycle now = fabric_.now();
    const Cycle when = now + opTiming(inst.op).dFunc;

    // Every MEM opcode below uses exactly one SRAM port access;
    // counting here keeps the power model free of slice scans.
    ++sramAccesses_;

    switch (inst.op) {
      case Opcode::Read:
        // The word is read straight into the produced vector (a tape
        // slot on replay: the bulk of all produces pays one SRAM-word
        // copy), and its stored code travels with it so SRAM soft
        // errors stay detectable downstream.
        memIo_->produceInPlace<1>(
            inst.dst, pos, when, /*keep_codes=*/true,
            [&](Vec320 *const *o) { slice.readInto(inst.addr, now, *o[0]); });
        return;
      case Opcode::Write: {
        const Vec320 *v =
            memIo_->consumeRef(inst.srcA, pos, memScratch_[0]);
        slice.write(inst.addr, *v, now);
        return;
      }
      case Opcode::Gather: {
        // The map stream supplies one 13-bit word address per
        // superlane in the first two bytes of each tile word.
        const Vec320 *m =
            memIo_->consumeRef(inst.srcB, pos, memScratch_[0]);
        std::array<MemAddr, kSuperlanes> addrs;
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            const std::size_t base =
                static_cast<std::size_t>(sl * kWordBytes);
            addrs[static_cast<std::size_t>(sl)] = static_cast<MemAddr>(
                (m->bytes[base] |
                 (static_cast<unsigned>(m->bytes[base + 1]) << 8)) &
                (kMemWordsPerSlice - 1));
        }
        memIo_->produceInPlace<1>(
            inst.dst, pos, when, /*keep_codes=*/true,
            [&](Vec320 *const *o) { slice.gatherInto(addrs, now, *o[0]); });
        return;
      }
      case Opcode::Scatter: {
        const Vec320 *m =
            memIo_->consumeRef(inst.srcB, pos, memScratch_[0]);
        const Vec320 *v =
            memIo_->consumeRef(inst.srcA, pos, memScratch_[1]);
        std::array<MemAddr, kSuperlanes> addrs;
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            const std::size_t base =
                static_cast<std::size_t>(sl * kWordBytes);
            addrs[static_cast<std::size_t>(sl)] = static_cast<MemAddr>(
                (m->bytes[base] |
                 (static_cast<unsigned>(m->bytes[base + 1]) << 8)) &
                (kMemWordsPerSlice - 1));
        }
        slice.scatter(addrs, *v, now);
        return;
      }
      default:
        panic("%s: bad MEM opcode %s", icu.name().c_str(),
              opcodeName(inst.op));
    }
}

void
Chip::dispatch(const IcuId &icu, const Instruction &inst)
{
    const Cycle now = fabric_.now();

    // ICU-common instructions may issue from any queue.
    switch (inst.op) {
      case Opcode::Notify: {
        barrier_.notify(now);
        // Broadcasts that arrived before the earliest still-parked
        // Sync can never satisfy another queue (future Syncs park at
        // >= now): drop them so long runs and reused sessions don't
        // accumulate them without bound. Only live queues can be
        // parked. step() may be mid-way through compacting live_, but
        // every entry still holds a live id or an inert (never
        // parked) one.
        Cycle parked_floor = now;
        for (const int id : live_) {
            const auto &q = queues_[static_cast<std::size_t>(id)];
            if (q.parked() && q.parkedSince() < parked_floor)
                parked_floor = q.parkedSince();
        }
        barrier_.prune(parked_floor);
        return;
      }
      case Opcode::Config:
        // Low-power mode: recorded for the power model; geometry is
        // fixed per program in this model (ChipConfig sets VL).
        return;
      case Opcode::Ifetch: {
        // Default fetch model: count bandwidth; consume the text
        // vector pair if the compiler routed one here.
        ++ifetches_;
        StreamRef second = inst.srcA;
        second.id = static_cast<StreamId>(inst.srcA.id + 1);
        memIo_->tryConsume(inst.srcA, IcuId{icu}.pos(), memScratch_[0]);
        memIo_->tryConsume(second, IcuId{icu}.pos(), memScratch_[0]);
        return;
      }
      default:
        break;
    }

    switch (icu.kind()) {
      case SliceKind::MEM:
        dispatchMem(icu, inst);
        return;
      case SliceKind::VXM:
        vxm_->execute(inst, icu.id - IcuId::vxmBase, now);
        return;
      case SliceKind::MXM: {
        const int plane = (icu.id - IcuId::mxmBase) / 2;
        mxm_[static_cast<std::size_t>(plane)]->issue(inst, now);
        return;
      }
      case SliceKind::SXM: {
        const int rel = icu.id - IcuId::sxmBase;
        const int hem_idx = rel < 8 ? 0 : 1;
        sxm_[static_cast<std::size_t>(hem_idx)]->execute(
            inst, static_cast<SxmUnit>(rel % 8), now);
        return;
      }
      case SliceKind::C2C:
        c2c_->execute(inst, icu.id - IcuId::c2cBase, now);
        return;
      default:
        panic("dispatch: bad ICU kind");
    }
}

void
Chip::step()
{
    const Cycle now = fabric_.now();
    int dispatches = 0;

    // Scheduled SRAM upsets land before any access this cycle. These
    // are events to nextEventCycle(), so fast-forward stops exactly
    // here and both stepping modes observe the same upset history.
    if (faults_ && faults_->hasScheduled())
        faults_->applyScheduled(now, memSlices_);

    // Live queues tick in id order, as all 144 would: same-cycle
    // dispatch order is observable through the fault RNG draws and
    // the stream write order. A queue that is inert from the next
    // cycle on is dropped in place.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live_.size(); ++k) {
        const int id = live_[k];
        InstructionQueue &q = queues_[static_cast<std::size_t>(id)];
        const Instruction *insts[2] = {nullptr, nullptr};
        const int n = q.tick(now, insts);
        dispatches += n;
        for (int i = 0; i < n; ++i)
            dispatch(q.id(), *insts[i]);
        if (!q.inert(now + 1))
            live_[kept++] = id;
    }
    live_.resize(kept);

    // MXM sequencers stream activations/results every cycle. Note
    // whether any plane was active *before* ticking so the final
    // cycle of a window still counts as busy. A tick on an idle plane
    // is a no-op (a trace lists only busy-plane ticks).
    bool mxm_busy = false;
    for (const auto &plane : mxm_) {
        mxm_busy = mxm_busy || plane->busy();
        plane->tick(now);
    }

    lastStepQuiet_ = dispatches == 0 && !mxm_busy;
    fabric_.advance();
}

Cycle
Chip::nextEventCycle() const
{
    const Cycle now = fabric_.now();
    // An active MXM sequencer consumes or produces every cycle.
    for (const auto &plane : mxm_) {
        if (plane->busy())
            return now;
    }
    Cycle ev = fabric_.earliestPendingCycle();
    {
        // Link events (pending rx arrivals, serializer drain) are
        // conservative stop points: nothing dispatches at them, but
        // they bound how far a span can be declared idle when this
        // chip is a pod member.
        const Cycle c = c2c_->earliestEventCycle(now);
        if (c < ev)
            ev = c;
    }
    if (faults_) {
        const Cycle f = faults_->nextScheduledCycle();
        if (f <= now)
            return now;
        if (f < ev)
            ev = f;
    }
    for (const int id : live_) {
        const Cycle e =
            queues_[static_cast<std::size_t>(id)].nextEventCycle(now);
        if (e <= now)
            return now;
        if (e < ev)
            ev = e;
    }
    return ev;
}

void
Chip::advanceTo(Cycle target)
{
    const Cycle now = fabric_.now();
    TSP_ASSERT(target > now);

    // Idle accounting each queue would have accumulated per cycle
    // (an inert queue accumulates none).
    for (const int id : live_)
        queues_[static_cast<std::size_t>(id)].skipIdle(now, target);

    // Nothing dispatches or executes inside the span, so the only
    // activity is vectors hopping along the fabric, which advanceBy()
    // accumulates in closed form.
    fabric_.advanceBy(target - now);
}

bool
Chip::done() const
{
    for (const int id : live_) {
        if (!queues_[static_cast<std::size_t>(id)].done())
            return false;
    }
    for (const auto &plane : mxm_) {
        if (plane->abcActive() || plane->accActive())
            return false;
    }
    return true;
}

Cycle
Chip::run(Cycle max_cycles)
{
    if (!runBounded(max_cycles)) {
        if (machineCheck()) {
            const MachineCheckInfo &mc = machineCheckInfo();
            fatal("Chip::run: machine check at cycle %llu, %s: %s",
                  static_cast<unsigned long long>(mc.cycle),
                  mc.unit.c_str(), mc.detail.c_str());
        }
        fatal("Chip::run: cycle limit %llu reached — program never "
              "completes",
              static_cast<unsigned long long>(max_cycles));
    }
    return now();
}

bool
Chip::runBounded(Cycle cycle_limit)
{
    while (!done()) {
        // A raised machine check halts the clock after the cycle that
        // detected it: no further dispatch can consume corrupted data.
        if (mcheck_->raised())
            return false;
        if (now() >= cycle_limit)
            return false;
        if (cfg_.fastForwardEnabled && lastStepQuiet_) {
            const Cycle ev = nextEventCycle();
            if (ev > now()) {
                advanceTo(ev < cycle_limit ? ev : cycle_limit);
                continue;
            }
        }
        step();
    }
    // A machine check on the program's very last cycle still fails
    // the run: the retiring store may have committed corrupted data.
    return !mcheck_->raised();
}

void
Chip::runTo(Cycle target)
{
    while (now() < target) {
        if (mcheck_->raised())
            return;
        if (cfg_.fastForwardEnabled && lastStepQuiet_) {
            const Cycle ev = nextEventCycle();
            if (ev > now()) {
                advanceTo(ev < target ? ev : target);
                continue;
            }
        }
        step();
    }
}

std::uint64_t
Chip::totalDispatched() const
{
    std::uint64_t total = dispatchedAdjust_;
    for (const auto &q : queues_)
        total += q.dispatched();
    return total;
}

std::uint64_t
Chip::totalNopCycles() const
{
    std::uint64_t total = nopAdjust_;
    for (const auto &q : queues_)
        total += q.nopCycles();
    return total;
}

std::uint64_t
Chip::totalParkedCycles() const
{
    std::uint64_t total = parkedAdjust_;
    for (const auto &q : queues_)
        total += q.parkedCycles();
    return total;
}

void
Chip::beginReplay(TapeReplayer *player)
{
    TSP_ASSERT(player != nullptr && !mcheck_->raised());
    // The chip is at the freshly loaded program state the trace
    // starts from (queues loaded, sequencers idle). A previous run
    // can leave dead values still flowing; a reload would clear them,
    // and replay never reads the fabric, so drop them here to let
    // replayJumpTo() keep its emptiness invariant.
    fabric_.clear();
    fabric_.attachTapeReplayer(player);
    for (auto &m : memSlices_)
        m.setReplayMode(true);
}

void
Chip::replayDispatch(int icu_id, const Instruction &inst, Cycle when)
{
    fabric_.replayJumpTo(when);
    dispatch(IcuId{icu_id}, inst);
}

void
Chip::replayMxmTick(int plane, Cycle when)
{
    TSP_ASSERT(plane >= 0 && plane < kMxmPlanes);
    fabric_.replayJumpTo(when);
    mxm_[static_cast<std::size_t>(plane)]->tick(when);
}

void
Chip::finishReplay(const ExecutionTrace::ChipDeltas &d, Cycle end)
{
    TSP_ASSERT(fabric_.tapeReplayer() != nullptr);
    fabric_.replayJumpTo(end);
    fabric_.replayCredit(d.fabricHops, d.fabricWrites);
    fabric_.attachTapeReplayer(nullptr);
    for (auto &m : memSlices_)
        m.setReplayMode(false);

    // The queues never ticked: retire them (the traced run retired)
    // and credit the dispatch/idle counters their scans would have
    // accumulated.
    for (auto &q : queues_)
        q.retireForReplay();
    live_.clear();
    dispatchedAdjust_ += d.dispatched;
    nopAdjust_ += d.nopCycles;
    parkedAdjust_ += d.parkedCycles;
    lastStepQuiet_ = true;
}

std::uint64_t
Chip::totalMaccOps() const
{
    std::uint64_t total = 0;
    for (const auto &plane : mxm_)
        total += plane->maccOps();
    return total;
}

PowerReport
Chip::power() const
{
    ActivityTotals a;
    a.maccOps = totalMaccOps();
    a.vxmLaneOps = vxm_->laneOps();
    a.streamHops = fabric_.totalHops();
    a.sramAccesses = sramAccesses_;
    for (const auto &s : sxm_)
        a.sxmBytes += s->bytesSwitched();
    a.icuDispatches = totalDispatched();
    return energyOf(cfg_, a, now());
}

std::uint64_t
Chip::correctedErrorCount() const
{
    std::uint64_t n =
        memIo_->correctedErrors() + vxm_->io().correctedErrors();
    for (const auto &m : memSlices_)
        n += m.correctedErrors();
    for (const auto &s : sxm_)
        n += s->io().correctedErrors();
    for (const auto &p : mxm_)
        n += p->io().correctedErrors();
    return n;
}

StatGroup
Chip::stats() const
{
    StatGroup g;
    g.set("cycles", now());
    g.set("dispatched", totalDispatched());
    g.set("macc_ops", totalMaccOps());
    g.set("vxm_lane_ops", vxm_->laneOps());
    g.set("stream_hops", fabric_.totalHops());
    g.set("stream_writes", fabric_.totalWrites());
    g.set("ifetches", ifetches_);
    g.set("notifies",
          static_cast<std::uint64_t>(barrier_.totalNotifies()));

    g.set("nop_cycles", totalNopCycles());
    g.set("parked_cycles", totalParkedCycles());

    std::uint64_t reads = 0, writes = 0;
    std::uint64_t sram_cor = 0, sram_unc = 0;
    for (const auto &m : memSlices_) {
        reads += m.reads();
        writes += m.writes();
        sram_cor += m.correctedErrors();
        sram_unc += m.uncorrectableErrors();
    }
    g.set("mem_reads", reads);
    g.set("mem_writes", writes);

    // Per-unit SECDED breakdown (the hardware's per-consumer CSRs),
    // plus chip-wide totals kept under the original names.
    std::uint64_t sxm_cor = 0, sxm_unc = 0;
    for (const auto &s : sxm_) {
        sxm_cor += s->io().correctedErrors();
        sxm_unc += s->io().uncorrectableErrors();
    }
    std::uint64_t mxm_cor = 0, mxm_unc = 0;
    for (const auto &p : mxm_) {
        mxm_cor += p->io().correctedErrors();
        mxm_unc += p->io().uncorrectableErrors();
    }
    g.set("ecc_corrected_mem_sram", sram_cor);
    g.set("ecc_uncorrectable_mem_sram", sram_unc);
    g.set("ecc_corrected_mem_port", memIo_->correctedErrors());
    g.set("ecc_uncorrectable_mem_port", memIo_->uncorrectableErrors());
    g.set("ecc_corrected_vxm", vxm_->io().correctedErrors());
    g.set("ecc_uncorrectable_vxm", vxm_->io().uncorrectableErrors());
    g.set("ecc_corrected_sxm", sxm_cor);
    g.set("ecc_uncorrectable_sxm", sxm_unc);
    g.set("ecc_corrected_mxm", mxm_cor);
    g.set("ecc_uncorrectable_mxm", mxm_unc);
    g.set("ecc_corrected", correctedErrorCount());
    g.set("ecc_uncorrectable",
          sram_unc + memIo_->uncorrectableErrors() +
              vxm_->io().uncorrectableErrors() + sxm_unc + mxm_unc);

    g.set("machine_checks", mcheck_->raises());
    if (faults_) {
        g.set("faults_injected_mem", faults_->memFlips());
        g.set("faults_injected_stream", faults_->streamFlips());
        g.set("faults_injected_c2c", faults_->c2cFlips());
        g.set("faults_injected_scheduled", faults_->scheduledFlips());
    }

    std::uint64_t sxm_bytes = 0;
    for (const auto &s : sxm_)
        sxm_bytes += s->bytesSwitched();
    g.set("sxm_bytes", sxm_bytes);

    g.set("c2c_sent", c2c_->sent());
    g.set("c2c_received", c2c_->received());
    g.set("c2c_dropped_receives", c2c_->droppedReceives());
    for (int link = 0; link < kC2cLinks; ++link) {
        const std::uint64_t d = c2c_->droppedReceives(link);
        if (d > 0) {
            g.set("c2c_dropped_receives_link" + std::to_string(link),
                  d);
        }
    }
    return g;
}

} // namespace tsp
