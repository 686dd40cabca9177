#include "stream/fabric.hh"

#include "common/logging.hh"

namespace tsp {

StreamFabric::StreamFabric()
    : rings_(kNumRings),
      pendingRing_(static_cast<std::size_t>(kPendingHorizon))
{
}

void
StreamFabric::applyWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                         const char *writer, std::uint32_t tag)
{
    TSP_ASSERT(pos >= 0 && pos < kPositions);
    Ring &ring = rings_[static_cast<std::size_t>(ringIndex(s))];
    if (ring.slots.empty())
        ring.slots.resize(kPositions);
    Entry &e =
        ring.slots[static_cast<std::size_t>(slotOf(s.dir, pos))];
    if (e.valid && e.writtenAt == cycle_) {
        panic("fabric: two producers on %s at pos %d in cycle %llu "
              "(%s then %s) (scheduler bug)",
              s.toString().c_str(), pos,
              static_cast<unsigned long long>(cycle_), e.writer,
              writer);
    }
    if (!e.valid) {
        e.valid = true;
        ++ring.validInRing;
        ++validCount_;
    }
    e.vec = vec;
    e.writtenAt = cycle_;
    e.writer = writer;
    e.tag = tag;
    ++totalWrites_;
}

void
StreamFabric::scheduleWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                            Cycle when, const char *writer,
                            std::uint32_t tag)
{
    // Producer delays are architectural constants well inside the
    // calendar: a write beyond it is a simulator bug.
    TSP_ASSERT(when >= cycle_ && when - cycle_ < kPendingHorizon);
    if (when == cycle_) {
        applyWrite(s, pos, vec, writer, tag);
        return;
    }
    PendingBatch &b =
        pendingRing_[static_cast<std::size_t>(when % kPendingHorizon)];
    if (b.writes.empty()) {
        b.when = when;
        pendingCycles_.push(when);
    } else {
        TSP_ASSERT(b.when == when);
    }
    b.writes.push_back({s, pos, vec, writer, tag});
    ++pendingCount_;
}

Cycle
StreamFabric::earliestPendingCycle() const
{
    return pendingCycles_.empty() ? kNoEventCycle : pendingCycles_.top();
}

const Vec320 *
StreamFabric::peek(StreamRef s, SlicePos pos) const
{
    TSP_ASSERT(pos >= 0 && pos < kPositions);
    const Ring &ring = rings_[static_cast<std::size_t>(ringIndex(s))];
    if (ring.validInRing == 0)
        return nullptr;
    const Entry &e =
        ring.slots[static_cast<std::size_t>(slotOf(s.dir, pos))];
    return e.valid ? &e.vec : nullptr;
}

const Vec320 *
StreamFabric::peek(StreamRef s, SlicePos pos,
                   std::uint32_t *tag) const
{
    TSP_ASSERT(pos >= 0 && pos < kPositions);
    const Ring &ring = rings_[static_cast<std::size_t>(ringIndex(s))];
    if (ring.validInRing == 0)
        return nullptr;
    const Entry &e =
        ring.slots[static_cast<std::size_t>(slotOf(s.dir, pos))];
    if (!e.valid)
        return nullptr;
    *tag = e.tag;
    return &e.vec;
}

void
StreamFabric::replayJumpTo(Cycle target)
{
    TSP_ASSERT(target >= cycle_);
    // Replay keeps the registers empty: produces bypass the fabric
    // (they go to the tape), so there is nothing to flow or fall off.
    TSP_ASSERT(tapeRep_ != nullptr && validCount_ == 0 &&
               pendingWrites() == 0);
    cycle_ = target;
}

void
StreamFabric::applyPendingNow()
{
    if (!pendingCycles_.empty() && pendingCycles_.top() == cycle_) {
        pendingCycles_.pop();
        PendingBatch &b = pendingRing_[static_cast<std::size_t>(
            cycle_ % kPendingHorizon)];
        TSP_ASSERT(b.when == cycle_ && !b.writes.empty());
        for (const PendingWrite &w : b.writes)
            applyWrite(w.s, w.pos, w.vec, w.writer, w.tag);
        pendingCount_ -= b.writes.size();
        b.writes.clear(); // Capacity retained for reuse.
    }
    // Drain-order invariant: nothing pending at or before now.
    TSP_ASSERT(pendingCycles_.empty() ||
               pendingCycles_.top() > cycle_);
}

void
StreamFabric::advance()
{
    // Everything valid moves one hop (for power accounting).
    totalHops_ += validCount_;

    ++cycle_;

    // The slot that wrapped around the edge no longer holds a live
    // value: for eastward streams the value past position N-1 falls
    // off the east edge (its slot becomes position 0); westward values
    // fall off the west edge (slot becomes position N-1). Empty rings
    // (all of them on an empty fabric) have nothing to drop.
    for (int r = 0; validCount_ > 0 && r < kNumRings; ++r) {
        Ring &ring = rings_[static_cast<std::size_t>(r)];
        if (ring.validInRing == 0)
            continue;
        const Direction dir =
            r < kStreamsPerDir ? Direction::East : Direction::West;
        const SlicePos entry_pos =
            dir == Direction::East ? 0 : kPositions - 1;
        Entry &e = ring.slots[static_cast<std::size_t>(
            slotOf(dir, entry_pos))];
        if (e.valid) {
            e.valid = false;
            --ring.validInRing;
            --validCount_;
        }
    }

    // Apply writes that become visible this cycle.
    applyPendingNow();
}

void
StreamFabric::advanceBy(Cycle n)
{
    if (n == 0)
        return;
    // Fast-forward legality: no write may become visible strictly
    // inside the span (it would flow from the wrong cycle).
    TSP_ASSERT(earliestPendingCycle() >= cycle_ + n);

    // Per ring, hop totals and edge fall-off in closed form: an
    // eastward value at position p contributes one hop per advance
    // until the advance that wraps it past position N-1 — exactly
    // N - p hops — and symmetrically p + 1 hops westward. Empty
    // rings (the common case in idle spans) cost nothing.
    const long t = static_cast<long>(cycle_ % kPositions);
    std::uint64_t hops = 0;
    for (int r = 0; r < kNumRings; ++r) {
        Ring &ring = rings_[static_cast<std::size_t>(r)];
        if (ring.validInRing == 0)
            continue;
        const bool east = r < kStreamsPerDir;
        for (int idx = 0; idx < kPositions; ++idx) {
            Entry &e = ring.slots[static_cast<std::size_t>(idx)];
            if (!e.valid)
                continue;
            long pos = east ? (idx + t) % kPositions
                            : (idx - t) % kPositions;
            if (pos < 0)
                pos += kPositions;
            const Cycle remaining = east
                                        ? static_cast<Cycle>(
                                              kPositions - pos)
                                        : static_cast<Cycle>(pos + 1);
            hops += remaining < n ? remaining : n;
            if (remaining <= n) {
                e.valid = false;
                --ring.validInRing;
                --validCount_;
            }
        }
    }
    totalHops_ += hops;
    cycle_ += n;

    // Writes scheduled for the arrival cycle become visible now, in
    // the same edge-falloff-then-apply order as advance().
    applyPendingNow();
}

namespace {

void
putVec(SnapshotWriter &w, const Vec320 &v)
{
    w.bytes(v.bytes.data(), v.bytes.size());
    for (const auto e : v.ecc)
        w.u16(e);
}

void
getVec(SnapshotReader &r, Vec320 &v)
{
    r.bytes(v.bytes.data(), v.bytes.size());
    for (auto &e : v.ecc)
        e = r.u16();
}

} // namespace

void
StreamFabric::saveState(SnapshotWriter &w) const
{
    w.u64(cycle_);
    for (const auto &ring : rings_) {
        w.u32(static_cast<std::uint32_t>(ring.validInRing));
        for (std::size_t idx = 0; idx < ring.slots.size(); ++idx) {
            const Entry &e = ring.slots[idx];
            if (!e.valid)
                continue;
            w.u16(static_cast<std::uint16_t>(idx));
            w.u64(e.writtenAt);
            w.u32(e.tag);
            putVec(w, e.vec);
        }
    }
    // All scheduled-but-unapplied writes, flattened with their
    // visibility cycle; loadState() re-inserts via scheduleWrite.
    w.u64(pendingCount_);
    for (const auto &b : pendingRing_) {
        for (const PendingWrite &pw : b.writes) {
            w.u64(b.when);
            w.u8(pw.s.id);
            w.u8(pw.s.dir == Direction::West ? 1 : 0);
            w.i32(pw.pos);
            w.u32(pw.tag);
            putVec(w, pw.vec);
        }
    }
    w.u64(validCount_);
    w.u64(totalHops_);
    w.u64(totalWrites_);
}

void
StreamFabric::loadState(SnapshotReader &r)
{
    clear();
    cycle_ = r.u64();
    for (auto &ring : rings_) {
        const std::uint32_t n = r.u32();
        if (n > 0 && ring.slots.empty())
            ring.slots.resize(kPositions);
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
            const std::uint16_t idx = r.u16();
            if (idx >= kPositions || ring.slots[idx].valid) {
                r.fail();
                return;
            }
            Entry &e = ring.slots[idx];
            e.valid = true;
            e.writtenAt = r.u64();
            e.writer = "snapshot";
            e.tag = r.u32();
            getVec(r, e.vec);
            ++ring.validInRing;
            ++validCount_;
        }
    }
    const std::uint64_t pending = r.u64();
    for (std::uint64_t i = 0; i < pending && r.ok(); ++i) {
        const Cycle when = r.u64();
        StreamRef s{};
        s.id = r.u8();
        s.dir = r.u8() ? Direction::West : Direction::East;
        const SlicePos pos = r.i32();
        const std::uint32_t tag = r.u32();
        Vec320 vec;
        getVec(r, vec);
        // Pending means strictly in the future (writes for the
        // restored cycle were applied before the snapshot was taken)
        // and inside the calendar.
        if (s.id >= kStreamsPerDir || pos < 0 || pos >= kPositions ||
            when <= cycle_ || when - cycle_ >= kPendingHorizon) {
            r.fail();
            return;
        }
        scheduleWrite(s, pos, vec, when, "snapshot", tag);
    }
    if (r.u64() != validCount_)
        r.fail();
    totalHops_ = r.u64();
    totalWrites_ = r.u64();
}

void
StreamFabric::clear()
{
    // Runs before every request (program load, replay entry), usually
    // on an already-empty fabric: only rings holding values and a
    // calendar holding writes are walked, as in advanceBy().
    for (auto &ring : rings_) {
        if (ring.validInRing == 0)
            continue;
        for (auto &e : ring.slots)
            e.valid = false;
        ring.validInRing = 0;
    }
    validCount_ = 0;
    if (pendingCount_ > 0) {
        for (auto &b : pendingRing_)
            b.writes.clear();
    }
    pendingCycles_ = {};
    pendingCount_ = 0;
}

} // namespace tsp
