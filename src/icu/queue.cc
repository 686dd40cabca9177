#include "icu/queue.hh"

#include "common/logging.hh"

namespace tsp {

InstructionQueue::InstructionQueue(IcuId id, BarrierController &barrier)
    : id_(id), barrier_(barrier)
{
}

void
InstructionQueue::loadProgram(std::span<const Instruction> program)
{
    program_ = program;
    pc_ = 0;
    busyUntil_ = 0;
    parked_ = false;
    repeatInst_ = nullptr;
    repeatsLeft_ = 0;
}

void
InstructionQueue::saveState(SnapshotWriter &w) const
{
    w.u64(pc_);
    w.u64(busyUntil_);
    w.b(parked_);
    w.u64(parkedAt_);
    // The Repeat target points into program_; round-trip as index.
    const std::uint64_t repeat_idx =
        repeatInst_ != nullptr
            ? static_cast<std::uint64_t>(repeatInst_ -
                                         program_.data())
            : ~std::uint64_t{0};
    w.u64(repeat_idx);
    w.u32(repeatsLeft_);
    w.u32(repeatGap_);
    w.u64(nextRepeatAt_);
    w.u64(dispatched_);
    w.u64(nopCycles_);
    w.u64(parkedCycles_);
}

void
InstructionQueue::loadState(SnapshotReader &r)
{
    pc_ = static_cast<std::size_t>(r.u64());
    busyUntil_ = r.u64();
    parked_ = r.b();
    parkedAt_ = r.u64();
    const std::uint64_t repeat_idx = r.u64();
    repeatInst_ = repeat_idx < program_.size()
                      ? &program_[static_cast<std::size_t>(repeat_idx)]
                      : nullptr;
    repeatsLeft_ = r.u32();
    // Re-issues need a Repeat target inside the loaded program.
    if (!repeatInst_ && (repeat_idx != ~std::uint64_t{0} || repeatsLeft_ > 0))
        r.fail();
    repeatGap_ = r.u32();
    nextRepeatAt_ = r.u64();
    dispatched_ = r.u64();
    nopCycles_ = r.u64();
    parkedCycles_ = r.u64();
}

Cycle
InstructionQueue::nextEventCycle(Cycle now) const
{
    if (repeatsLeft_ > 0)
        return nextRepeatAt_ > now ? nextRepeatAt_ : now;
    if (parked_) {
        const auto release = barrier_.releaseTime(parkedAt_);
        if (!release)
            return kNoEventCycle;
        return *release > now ? *release : now;
    }
    if (now < busyUntil_)
        return busyUntil_;
    if (pc_ >= program_.size())
        return kNoEventCycle;
    return now;
}

void
InstructionQueue::skipIdle(Cycle now, Cycle target)
{
    TSP_ASSERT(target >= now);
    const Cycle n = target - now;
    if (repeatsLeft_ > 0)
        return; // Waiting between re-issues touches no counter.
    if (parked_) {
        parkedCycles_ += n;
        return;
    }
    if (now < busyUntil_) {
        // target <= nextEventCycle(now) == busyUntil_ by contract.
        TSP_ASSERT(target <= busyUntil_);
        nopCycles_ += n;
        return;
    }
    // Retired queue: per-cycle ticks would return without counting.
}

int
InstructionQueue::tick(Cycle now, const Instruction *out[2])
{
    // Active Repeat re-issues take priority over new program fetch.
    if (repeatsLeft_ > 0) {
        if (now < nextRepeatAt_)
            return 0;
        --repeatsLeft_;
        nextRepeatAt_ = now + repeatGap_;
        ++dispatched_;
        out[0] = repeatInst_;
        return 1;
    }

    if (parked_) {
        const auto release = barrier_.releaseTime(parkedAt_);
        if (release && now >= *release) {
            parked_ = false; // Sync retires; fall through to issue.
        } else {
            ++parkedCycles_;
            return 0;
        }
    }

    if (now < busyUntil_) {
        ++nopCycles_;
        return 0;
    }

    if (pc_ >= program_.size())
        return 0;

    const Instruction &inst = program_[pc_];
    switch (inst.op) {
      case Opcode::Nop: {
        const std::uint32_t n = inst.imm0 ? inst.imm0 : 1;
        busyUntil_ = now + n;
        ++nopCycles_;
        ++pc_;
        return 0;
      }
      case Opcode::Sync:
        parked_ = true;
        parkedAt_ = now;
        ++pc_;
        ++parkedCycles_;
        return 0;
      case Opcode::Repeat: {
        // "Repeat the previous instruction n times, d cycles between
        // iterations": the repeated instruction precedes this one in
        // program order (an intervening NOP only spaces the first
        // iteration).
        const std::size_t prev_pc = repeatTarget(program_, pc_);
        if (prev_pc == 0) {
            panic("%s: repeat with no previous instruction",
                  id_.name().c_str());
        }
        const Instruction &prev = program_[prev_pc - 1];
        TSP_ASSERT(prev.op != Opcode::Repeat &&
                   prev.op != Opcode::Sync);
        repeatInst_ = &prev;
        repeatsLeft_ = inst.imm0;
        repeatGap_ = inst.imm1 ? inst.imm1 : 1;
        ++pc_;
        // The first iteration fires the cycle Repeat dispatches (the
        // scheduler spaces it with a NOP when d > 1); later ones are
        // d cycles apart.
        if (repeatsLeft_ > 0) {
            --repeatsLeft_;
            nextRepeatAt_ = now + repeatGap_;
            ++dispatched_;
            out[0] = repeatInst_;
            return 1;
        }
        return 0;
      }
      default: {
        ++pc_;
        ++dispatched_;
        out[0] = &program_[pc_ - 1];
        int n = 1;
        // Dual-issue: a following instruction marked co-issue
        // dispatches in the same cycle (MEM read+write pairing).
        if (n < 2 && pc_ < program_.size() &&
            (program_[pc_].flags & Instruction::kFlagCoIssue)) {
            out[n++] = &program_[pc_];
            ++pc_;
            ++dispatched_;
        }
        return n;
      }
    }
}

} // namespace tsp
